/**
 * @file
 * Recursive-descent streaming with fast-forwarding — the JSONSki core
 * (paper Algorithm 2 integrated with the G1..G5 primitives).
 *
 * The streamer walks the input with a Skipper, descending recursively
 * only along the query's match path; everything irrelevant is
 * fast-forwarded.  Recursion depth is therefore bounded by the query
 * length, not by the data's nesting depth.
 */
#ifndef JSONSKI_SKI_STREAMER_H
#define JSONSKI_SKI_STREAMER_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "path/automaton.h"
#include "path/matches.h"
#include "ski/skipper.h"
#include "ski/stats.h"

namespace jsonski::index {
class StructuralIndex;
}

namespace jsonski::ski {

struct PassInput;

using path::CollectSink;
using path::MatchSink;

/** Outcome of one streaming pass. */
struct StreamResult
{
    size_t matches = 0;
    FastForwardStats stats;

    /** Bytes of the record ingested (== record size on success). */
    size_t input_bytes = 0;

    /** Chunked-ingestion accounting; zeros for whole-buffer runs. */
    intervals::StreamCursor::IngestStats ingest;

    /** Kernel whose scan loops ran the pass (kernels::Kernel::name). */
    const char* kernel = nullptr;
};

/**
 * Tuning/ablation knobs for the streamer; defaults reproduce the
 * paper's full design.
 */
struct StreamerOptions
{
    /** G1 on/off: skip attributes/elements by inferred value type. */
    bool type_filter = true;

    /** Batched primitive-run skipping (enhanced goOverPriAttrs). */
    bool batch_primitives = true;
};

/**
 * Streaming query evaluator.  Construct once per query, run on any
 * number of inputs (a run is stateless with respect to the streamer).
 */
class Streamer
{
  public:
    explicit Streamer(path::PathQuery query, StreamerOptions options = {})
        : query_(std::move(query)), options_(options)
    {}

    /** The compiled query. */
    const path::PathQuery& query() const { return query_; }

    /** Default refill granularity for chunked runs (64 KiB). */
    static constexpr size_t kDefaultChunkBytes = size_t{1} << 16;

    /**
     * Evaluate the query over one JSON record.  Every overload below
     * runs the same pass (DESIGN.md §16) and differs only in where the
     * record comes from.
     *
     * @param json  The record text.
     * @param sink  Optional match receiver (null = count only); it may
     *              throw StopStreaming to end the pass early.
     * @throws ParseError on malformed input along the traversed path.
     */
    StreamResult run(std::string_view json, MatchSink* sink = nullptr) const;

    /**
     * The record delivered incrementally by a ChunkSource, never
     * materialized: resident memory is bounded by @p chunk_bytes plus
     * the largest span still held for a sink (DESIGN.md §9).  Matches,
     * error positions and FastForwardStats are identical to run(json).
     */
    StreamResult run(intervals::ChunkSource& source,
                     MatchSink* sink = nullptr,
                     size_t chunk_bytes = kDefaultChunkBytes) const;

    /**
     * run(json) that the JSONSKI_TEST_CHUNK_BYTES test reroute never
     * streams chunked, for callers that keep zero-copy views of
     * @p json (the parallel splitter).
     */
    StreamResult runResident(std::string_view json,
                             MatchSink* sink = nullptr) const;

    /**
     * run(json) with a structural semi-index (DESIGN.md §14) answering
     * the G4/G5 and primitive-run skips; output is bit-identical to
     * run(json).  @p idx must have been built from exactly these bytes
     * (StructuralIndex::describes(); not re-checked here).  A
     * !usable() index streams plain; a wrong one surfaces as
     * ParseError(ErrorCode::IndexMismatch) unless a plain replay of the
     * resident bytes can still answer (nothing delivered yet).
     */
    StreamResult runIndexed(std::string_view json,
                            const index::StructuralIndex& idx,
                            MatchSink* sink = nullptr) const;

    /** runIndexed() over a ChunkSource, within the residency bounds of
     *  the chunked run().  A forward-only source cannot be replayed,
     *  so an IndexMismatch always propagates. */
    StreamResult runIndexed(intervals::ChunkSource& source,
                            const index::StructuralIndex& idx,
                            MatchSink* sink = nullptr,
                            size_t chunk_bytes = kDefaultChunkBytes) const;

  private:
    StreamResult pass(PassInput in, MatchSink* sink) const;

    path::PathQuery query_;
    StreamerOptions options_;
};

/**
 * One-call convenience API: evaluate @p path_text against @p json.
 *
 * @param collect  When true the matched values are copied out.
 */
struct QueryResult
{
    size_t count = 0;
    std::vector<std::string> values;
    FastForwardStats stats;
};

QueryResult query(std::string_view json, std::string_view path_text,
                  bool collect = false);

} // namespace jsonski::ski

#endif // JSONSKI_SKI_STREAMER_H
