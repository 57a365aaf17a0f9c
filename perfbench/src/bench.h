/**
 * @file
 * Shared pieces of the repository benchmark (see perfbench/NOTES.md):
 * command-line options, output digests, in-memory span tracing, sample
 * statistics, the result report, and the workload inputs every mode
 * derives from the seed.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "path/matches.h"
#include "ski/multi.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the first call in this process. */
uint64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(uint64_t a, uint64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

// --- Options ------------------------------------------------------------

struct Options
{
    std::string mode;      ///< "prepare" or "run"
    std::string workload;  ///< "scan" or "batch"
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dir;       ///< prepared inputs (documents + references)
    std::string trace_out; ///< span dump written at exit (traced runs)
};

// --- Output digests -----------------------------------------------------

/** Match count plus an order-sensitive hash of the matched bytes. */
struct Digest
{
    size_t count = 0;
    uint64_t hash = 0;

    void add(std::string_view value);

    bool
    operator==(const Digest& o) const
    {
        return count == o.count && hash == o.hash;
    }
};

/** Sink that digests every match; the benchmark's output gate. */
class HashSink : public jsonski::path::MatchSink
{
  public:
    void onMatch(std::string_view value) override { digest.add(value); }

    Digest digest;
};

/** Per-query digests of one MultiStreamer pass. */
class MultiHashSink : public jsonski::ski::MultiSink
{
  public:
    explicit MultiHashSink(size_t queries) : digests(queries) {}

    void
    onMatch(size_t query_index, std::string_view value) override
    {
        digests[query_index].add(value);
    }

    std::vector<Digest> digests;
};

// --- Tracing --------------------------------------------------------------

/** One recorded span; `parent` is 0 for a root span (ids start at 1). */
struct Span
{
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
    uint32_t op;
    uint64_t work; ///< bytes (or other unit) the span processed
};

/**
 * In-memory span recorder for one thread.  Spans nest through an
 * explicit stack; when tracing is off every call is a branch and
 * nothing is stored.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span as a child of the innermost open span. */
    uint32_t open(const char* name, uint32_t op, uint64_t work = 0);

    /** Close span @p id (must be the innermost open span). */
    void close(uint32_t id);

    /** Record an already-finished span under the innermost open one. */
    void record(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint32_t op, uint64_t work = 0);

    /** Sum of durations (ns) and work of closed spans named @p name. */
    std::pair<uint64_t, uint64_t> total(std::string_view name) const;

    /** Write one JSON object per span to @p path. */
    void write(const std::string& path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/** RAII span; inert when the tracer is off. */
class SpanScope
{
  public:
    SpanScope(Tracer& t, const char* name, uint32_t op, uint64_t work = 0)
        : t_(t), id_(t.on() ? t.open(name, op, work) : 0)
    {}

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    ~SpanScope()
    {
        if (id_ != 0)
            t_.close(id_);
    }

  private:
    Tracer& t_;
    uint32_t id_;
};

// --- Statistics -----------------------------------------------------------

/** Nearest-rank quantile of @p v (q in [0, 1]); 0 for an empty set. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process, MB. */
double peakRssMb();

// --- Result report ----------------------------------------------------------

/**
 * Collects metrics and op outcomes and prints them: one human-readable
 * line per metric, the environment record, and as the last line the
 * result object {"correct", "attempted", "failed", "metrics"}.
 */
class Report
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);

    void
    ops(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    /** Human-readable note printed before the metrics. */
    void note(const std::string& line) { notes_.push_back(line); }

    /** Print everything; returns the process exit code. */
    int finish(const Options& opt) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::string> notes_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Refuse untrustworthy builds; empty when this build may report. */
std::string buildGuard();

// --- Workload inputs ------------------------------------------------------

/** One query with its expected output on one document. */
struct Expect
{
    std::string query;
    Digest ref;
};

/** One prepared document: its bytes (when loaded) and references. */
struct Doc
{
    std::string name;
    jsonski::gen::DatasetId dataset{};
    std::string path;   ///< file holding the bytes
    std::string bytes;  ///< resident copy (empty until load())
    size_t size = 0;

    /** Table 5 queries of the dataset (scan ops, batch warm set). */
    std::vector<Expect> table5;
    /** 100-query shared-prefix set (batch ops). */
    std::vector<Expect> multi;
    /** Descendant queries (batch ops; the NFA path). */
    std::vector<Expect> desc;
    /** Filter queries, low and high selectivity (batch ops; may be
     *  empty). */
    std::vector<Expect> filter;
    /** The query a loopback request asks of this body (wire bodies
     *  only). */
    std::vector<Expect> wire;

    void load();
};

/** The query texts of @p list, in order. */
std::vector<std::string> queries(const std::vector<Expect>& list);

/** Sizes and shapes fixed by the benchmark definition. */
struct Shape
{
    static constexpr size_t kScanBytes = size_t{16} << 20;
    static constexpr size_t kBatchBytes = size_t{8} << 20;
    static constexpr size_t kWireBodies = 24;
    static constexpr size_t kWireMinBytes = size_t{16} << 10;
    static constexpr size_t kWireMaxBytes = size_t{256} << 10;
    static constexpr size_t kMultiQueries = 100;
};

/**
 * The documents of @p workload, with their queries; prepare() generates
 * their bytes from the seed (deterministic in workload and seed) and
 * fills the references, which loadDocs() reads back.
 */
std::vector<Doc> planDocs(const std::string& workload);

/**
 * The request bodies of the loopback rows for @p seed: kWireBodies
 * records of the six datasets, sized from the seed between
 * kWireMinBytes and kWireMaxBytes, each with one Table 5 query drawn
 * from the seed.  The same for every workload.
 */
std::vector<Doc> planBodies(uint64_t seed);

/** Generate documents, wire bodies and their references into opt.dir. */
int prepare(const Options& opt);

/** planDocs() plus the references and paths written by prepare(). */
std::vector<Doc> loadDocs(const Options& opt);

/** planBodies() plus the references and paths written by prepare(),
 *  with the bytes loaded. */
std::vector<Doc> loadBodies(const Options& opt);

// --- Workloads -------------------------------------------------------------

/**
 * A closed-loop workload on one thread: `jobs` kinds of op, cycled in
 * an order shuffled from the seed, the next op starting when the last
 * one returns.
 */
struct ClosedWorkload
{
    /** Compile queries and build what the ops need (timed as set-up;
     *  run several times, each replacing the previous state). */
    std::function<void()> setup;
    size_t jobs = 0;
    /** Run job @p job; adds the document bytes evaluated to @p bytes
     *  and returns whether every output matched its reference. */
    std::function<bool(size_t job, Tracer& tr, uint32_t op,
                       uint64_t& bytes)>
        op;
    /** Query lists whose compile cost path.compile_us reports. */
    std::vector<std::vector<std::string>> compile_lists;
};

/** Set up, warm, measure and report a closed-loop workload. */
int runClosed(const Options& opt, Report& rep, std::vector<Doc>& docs,
              ClosedWorkload& w);

int runScan(const Options& opt, Report& rep);
int runBatch(const Options& opt, Report& rep);

// --- Per-layer rows (traced runs) -------------------------------------------

/**
 * Stacked layer rows over @p docs (memcpy floor, ingest, classify per
 * kernel, pairing, streaming, emission, multi, NFA/filter, index), each pass
 * a span in @p tr; the derived per-layer metrics go to @p rep.  Every
 * pass's output is checked against the document's references and
 * counted in @p rep's ops.
 */
void layerRows(std::vector<Doc>& docs, Tracer& tr, Report& rep);

/**
 * path.compile_us: parse + QuerySet normalization of each list in
 * @p lists, repeated, as the mean microseconds per list.
 */
void compileRow(const std::vector<std::vector<std::string>>& lists,
                Tracer& tr, Report& rep);

/**
 * service.* rows: the seeded wire bodies of planBodies() through an
 * in-process jsqd (1 shard, 2 workers) over loopback, each request once
 * with match frames and once count-only, next to a direct Streamer::run
 * on the same body.
 */
void loopbackRows(const Options& opt, Tracer& tr, Report& rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
