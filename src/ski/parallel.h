/**
 * @file
 * Parallel JSONSki for a single large record — the paper's stated
 * future work ("we expect the slowdown would be addressed after
 * speculation is added to JSONSki", §5.2).
 *
 * Queries whose first step selects array elements (`$[*]...`,
 * `$[m:n]...` — every large-record dataset in the evaluation has this
 * shape, and `$.pd[*]...` reaches it after one cheap key hop) are
 * parallelized in two phases:
 *
 *  1. a sequential but bit-parallel *split pass* locates the spans of
 *     the root array's top-level elements (same counting machinery as
 *     the record scanner — no tokenization), and
 *  2. the remaining query steps are evaluated over the element spans
 *     in parallel, each worker running an ordinary Streamer.
 *
 * Matches are merged in document order, so results are identical to
 * the serial streamer.  Queries that never reach an array step fall
 * back to the serial path.
 */
#ifndef JSONSKI_SKI_PARALLEL_H
#define JSONSKI_SKI_PARALLEL_H

#include <cstddef>
#include <string_view>

#include "path/ast.h"
#include "path/matches.h"
#include "util/thread_pool.h"

namespace jsonski::ski {

/** See file comment. */
class ParallelStreamer
{
  public:
    explicit ParallelStreamer(path::PathQuery query)
        : query_(std::move(query))
    {}

    /**
     * Evaluate over one record using @p pool.  Matches are delivered
     * to @p sink in document order after the parallel phase joins.
     * Malformed input raises the ParseError the serial streamer raises
     * (same ErrorCode and position); no match reaches @p sink then.
     */
    size_t run(std::string_view json, ThreadPool& pool,
               path::MatchSink* sink = nullptr) const;

    /**
     * True when the query shape lets run() actually parallelize
     * (a leading array step, possibly after key steps).
     */
    bool parallelizable() const;

    const path::PathQuery& query() const { return query_; }

  private:
    path::PathQuery query_;
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_PARALLEL_H
