/**
 * @file
 * Zero-overhead telemetry substrate: counters, log2-bucketed skip
 * histograms and a bounded trace ring of fast-forward decisions.
 *
 * The data structures (Registry, SkipHistogram, TraceRing) compile in
 * every build so exporters and tests always work.  The *hot-path
 * hooks* (count(), recordSkip()) are compile-time gated on
 * the JSONSKI_TELEMETRY CMake option (macro JSONSKI_TELEMETRY_ENABLED):
 * in the default OFF build every hook is an empty `if constexpr
 * (false)` body the optimizer removes entirely — no branch, no TLS
 * read, no code.  `bench_telemetry_guard` measures this contract.
 *
 * Recording is per-thread: a Scope installs a Registry into
 * thread-local storage and every hook on that thread writes into it.
 * Registries recorded apart (jsqd's per-request and per-shard ones)
 * combine with Registry::merge.
 *
 * DESIGN.md §8 is the counter glossary and overhead contract.
 */
#ifndef JSONSKI_TELEMETRY_TELEMETRY_H
#define JSONSKI_TELEMETRY_TELEMETRY_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef JSONSKI_TELEMETRY_ENABLED
#define JSONSKI_TELEMETRY_ENABLED 0
#endif

namespace jsonski::telemetry {

/** True when the hot-path hooks are compiled in. */
inline constexpr bool kEnabled = JSONSKI_TELEMETRY_ENABLED != 0;

/** Event counters beyond the five fast-forward groups. */
enum class Counter : uint8_t {
    BlocksClassified,      ///< 64-byte blocks string-classified by cursors
    StringMaskBuilds,      ///< CLMUL string-mask constructions (classifier)
    PairingProbeWords,     ///< words examined by counting-based pairing
    PairingFallbackParses, ///< scalar key recoveries after a batched scan
    CursorReseeks,         ///< backward setPos() within a block (overshoot)
    BytesScanned,          ///< bytes covered by string classification
    ChunkRefills,          ///< ChunkSource reads that delivered data
    ChunkSpillBytes,       ///< bytes memmoved by window compaction
    SeamStraddleTokens,    ///< compactions where a hold crossed the seam
    kCount,
};

inline constexpr size_t kCounterCount = static_cast<size_t>(Counter::kCount);

/** Stable snake_case identifier (JSON keys, Prometheus metric names). */
const char* counterName(Counter c);

/** Mirrors ski::Group G1..G5 without depending on the ski layer. */
inline constexpr size_t kSkipGroupCount = 5;

/**
 * Log2-bucketed length histogram: bucket b counts values whose
 * bit_width is b, i.e. bucket 0 holds length 0 and bucket b >= 1 holds
 * lengths in [2^(b-1), 2^b).
 */
struct SkipHistogram
{
    static constexpr size_t kBuckets = 65; // bit_width(uint64_t) in 0..64

    std::array<uint64_t, kBuckets> buckets{};

    void
    add(uint64_t len)
    {
        buckets[static_cast<size_t>(std::bit_width(len))] += 1;
    }

    uint64_t
    count() const
    {
        uint64_t n = 0;
        for (uint64_t b : buckets)
            n += b;
        return n;
    }

    void
    merge(const SkipHistogram& other)
    {
        for (size_t i = 0; i < kBuckets; ++i)
            buckets[i] += other.buckets[i];
    }
};

/** One fast-forward decision, the dynamic counterpart of explain(). */
struct TraceEntry
{
    uint64_t begin = 0; ///< first byte of the fast-forwarded span
    uint64_t end = 0;   ///< one past the last byte
    uint16_t state = 0; ///< automaton state (query step / trie node)
    uint8_t group = 0;  ///< 0..4 = G1..G5

    bool
    operator==(const TraceEntry&) const = default;
};

/**
 * Bounded ring buffer of TraceEntry: keeps the most recent `capacity`
 * decisions and counts how many older ones were dropped.
 */
class TraceRing
{
  public:
    static constexpr size_t kDefaultCapacity = 256;

    explicit TraceRing(size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {}

    void push(const TraceEntry& e);

    /** Entries currently retained (<= capacity). */
    size_t size() const;

    /** Total entries ever pushed (including dropped ones). */
    uint64_t total() const { return total_; }

    /** Entries overwritten by wraparound. */
    uint64_t dropped() const { return total_ - size(); }

    size_t capacity() const { return capacity_; }

    /** Retained entries, oldest first. */
    std::vector<TraceEntry> snapshot() const;

    /** Append the other ring's retained entries, oldest first. */
    void merge(const TraceRing& other);

    void clear();

  private:
    size_t capacity_;
    size_t head_ = 0; ///< next write slot once the ring is full
    uint64_t total_ = 0;
    std::vector<TraceEntry> ring_;
};

/** Everything one query run (or one worker task) records. */
struct Registry
{
    std::array<uint64_t, kCounterCount> counters{};

    /** Bytes fast-forwarded per group; mirrors ski::FastForwardStats. */
    std::array<uint64_t, kSkipGroupCount> skipped{};

    std::array<SkipHistogram, kSkipGroupCount> skip_hist{};

    TraceRing trace;

    uint64_t
    counter(Counter c) const
    {
        return counters[static_cast<size_t>(c)];
    }

    uint64_t
    skippedTotal() const
    {
        uint64_t t = 0;
        for (uint64_t v : skipped)
            t += v;
        return t;
    }

    /** Element-wise sum; traces concatenate in push order. */
    void merge(const Registry& other);

    void reset();
};

/**
 * Registry the current thread records into, or nullptr.  Always
 * functional (tests and jsq --profile install scopes in OFF builds
 * too); only the hooks below are gated out.
 */
Registry* current() noexcept;

/** RAII: install @p r as the current thread's registry. */
class Scope
{
  public:
    explicit Scope(Registry& r);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Registry* prev_;
};

// --- Hot-path hooks (compiled out when JSONSKI_TELEMETRY is OFF) ------

inline void
count(Counter c, uint64_t n = 1)
{
    if constexpr (kEnabled) {
        if (Registry* r = current())
            r->counters[static_cast<size_t>(c)] += n;
    } else {
        (void)c;
        (void)n;
    }
}

/**
 * Record one fast-forward decision: per-group byte accounting, the
 * skip-length histogram, and a trace-ring entry.
 * @param group 0..4 = G1..G5.  @pre end >= begin.
 */
inline void
recordSkip(uint8_t group, uint64_t begin, uint64_t end, uint16_t state)
{
    if constexpr (kEnabled) {
        if (Registry* r = current()) {
            uint64_t len = end - begin;
            r->skipped[group] += len;
            r->skip_hist[group].add(len);
            r->trace.push(TraceEntry{begin, end, state, group});
        }
    } else {
        (void)group;
        (void)begin;
        (void)end;
        (void)state;
    }
}

} // namespace jsonski::telemetry

#endif // JSONSKI_TELEMETRY_TELEMETRY_H
