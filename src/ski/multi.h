/**
 * @file
 * Multi-query streaming: evaluate several JSONPath expressions in one
 * pass over the data stream (DESIGN.md §15).
 *
 * The query set is normalized (canonical forms, duplicates collapsed —
 * path/queryset.h) and the plain-step prefixes are compiled into a
 * prefix trie.  Each trie node is compiled once more into a dispatch
 * record: a hashed key table (attribute name → key slot → next state),
 * the count of key slots wanting each value type, the array index
 * space cut into segments of constant coverage, and the acceptor and
 * suffix ids.  The driver walks the stream once with a *state* per
 * level — one trie node, or a set of nodes active together
 * (overlapping index ranges, a key named under two branches), whose
 * merged record is compiled on first use and memoized for the rest of
 * the pass.  It fast-forwards whatever no live query cares about:
 * G2/G4/G5 skips fire only when *no* live query can match below the
 * skipped region, G4 generalizes to "every key slot bound", the G1
 * attribute filter narrows to what the unbound slots still need, and
 * array elements nobody in the covering set can use are crossed with
 * the G1 typed element scan.
 *
 * Queries with a filter or descendant step share the trie up to their
 * first such step; the divergent suffix is compiled into a per-query
 * single-query Streamer and replayed over the (held-resident) value
 * span at the divergence point, so the full query surface — filters,
 * descendants at any position — batches into the one pass.
 *
 * This extends the paper's single-query framework the way JPStream's
 * multi-query support motivates; all fast-forward machinery is reused
 * unchanged.
 */
#ifndef JSONSKI_SKI_MULTI_H
#define JSONSKI_SKI_MULTI_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "path/ast.h"
#include "path/queryset.h"
#include "ski/pass.h"
#include "ski/stats.h"
#include "ski/streamer.h"

namespace jsonski::ski {

/** Receiver for matches of a multi-query run. */
class MultiSink
{
  public:
    virtual ~MultiSink() = default;

    /**
     * Called once per match.
     * @param query_index *distinct* query id (see
     *        MultiStreamer::querySet(): input positions map onto ids
     *        through QuerySet::id_of, so duplicate input queries share
     *        one match stream).
     * @param value       raw JSON text of the matched value; aliases
     *        the input buffer, valid only during the call.
     */
    virtual void onMatch(size_t query_index, std::string_view value) = 0;
};

/** Sink collecting matches per query. */
class MultiCollectSink : public MultiSink
{
  public:
    explicit MultiCollectSink(size_t queries) : values(queries) {}

    void
    onMatch(size_t query_index, std::string_view value) override
    {
        values[query_index].push_back(std::string(value));
    }

    std::vector<std::vector<std::string>> values;
};

/** See file comment. */
class MultiStreamer
{
  public:
    /**
     * Normalize @p queries (canonicalize, dedup) and compile the set
     * into one trie.  Duplicate inputs collapse: result/sink indices
     * are *distinct* ids (querySet().id_of maps input positions).
     */
    explicit MultiStreamer(std::vector<path::PathQuery> queries);

    /** Compile an already-normalized set. */
    explicit MultiStreamer(path::QuerySet set);

    /** Outcome of one pass. */
    struct Result
    {
        /** Match count per *distinct* query id. */
        std::vector<size_t> matches;

        /** Whole-pass totals (shared walk + every suffix replay). */
        FastForwardStats stats;

        /**
         * Fast-forward work attributable to one query alone: the
         * divergent-suffix replays of query id qi.  Zero for queries
         * answered entirely by the shared trie walk (their skips are
         * shared and live in `stats`).
         */
        std::vector<FastForwardStats> per_query;

        /** Bytes of the record ingested (== record size on success). */
        size_t input_bytes = 0;

        /** Chunked-ingestion accounting; zeros for whole-buffer runs. */
        intervals::StreamCursor::IngestStats ingest;

        /** Kernel whose scan loops ran the pass (kernels::Kernel::name). */
        const char* kernel = nullptr;
    };

    /** Default refill granularity for chunked runs (64 KiB). */
    static constexpr size_t kDefaultChunkBytes = size_t{1} << 16;

    /** Evaluate all queries over one record in a single pass. */
    Result run(std::string_view json, MultiSink* sink = nullptr) const;

    /**
     * run() over a record delivered by a ChunkSource; resident memory
     * is bounded by @p chunk_bytes plus the largest span still held —
     * for a query whose suffix diverges at depth d, the entire value
     * at its divergence point (DESIGN.md §15).
     */
    Result run(intervals::ChunkSource& source, MultiSink* sink = nullptr,
               size_t chunk_bytes = kDefaultChunkBytes) const;

    /** The normalized set (distinct queries, id map, canonical key). */
    const path::QuerySet& querySet() const { return set_; }

    /** The distinct compiled queries (first-occurrence order). */
    const std::vector<path::PathQuery>& queries() const
    {
        return set_.distinct;
    }

    /** Distinct query count (== result/sink index range). */
    size_t queryCount() const { return set_.size(); }

    /** Trie size; shared-prefix sets compile to fewer nodes. */
    size_t trieNodes() const { return trie_.size(); }

    /** Queries answered by divergent-suffix replay (see file cmt). */
    size_t suffixCount() const { return suffixes_.size(); }

  private:
    friend class MultiDriver;

    /** A query's divergent tail: replayed by a single-query engine. */
    struct Suffix
    {
        size_t qi;         ///< distinct query id it reports as
        Streamer streamer; ///< compiled `$<first filter/desc step>...`
        bool on_array;     ///< filter-first: only arrays can match
    };

    /**
     * What a state does with a value, by the value's type: report it
     * or search it with a descendant suffix (any type), step its
     * attributes, step its elements or filter them.  A query needs
     * exactly one of these at each trie node it passes.
     */
    enum Wants : uint8_t { kValue = 1, kObject = 2, kArray = 4 };

    /** One trie node; an edge per distinct next plain step. */
    struct Node
    {
        /** Child per distinct attribute name. */
        std::vector<std::pair<std::string, int>> key_children;

        /** Child per distinct array step (ranges may overlap). */
        std::vector<std::pair<path::PathStep, int>> array_children;

        /** Distinct query ids accepted at this node (value = match). */
        std::vector<size_t> accepts;

        /** Indices into suffixes_ replayed over this node's value. */
        std::vector<size_t> suffixes;

        /** Wants bits of the queries through this node. */
        uint8_t wants = 0;
    };

    /**
     * A driver state: trie node n (n >= 0), or the node set named ~n
     * (n < 0, see NodeSets); kNoState where no node is active.
     */
    using StateRef = int; ///< also a Segment's `next`
    static constexpr StateRef kNoState = Segment::kNone;

    /**
     * Sorted node lists of two or more nodes, named by dense ids.  The
     * plan's table holds the sets its own records point at; a pass
     * extends it privately (ids from `first` on) for the sets merged
     * records point at.
     */
    struct NodeSets
    {
        std::map<std::vector<int>, size_t> ids;
        std::vector<std::vector<int>> lists;
        size_t first = 0;
    };

    /** Attribute name → key slot: open addressing, one probe typical. */
    class KeyTable
    {
      public:
        /** Size the buckets for up to @p n names. */
        void reserve(size_t n);

        /** Slot of @p name, adding it as the next slot when new. */
        size_t insert(std::string_view name);

        /** Slot of @p name, or -1. */
        int find(std::string_view name) const;

        size_t size() const { return names_.size(); }

      private:
        static constexpr uint64_t kTag = ~uint64_t{0xffffffff};

        static uint64_t hash(std::string_view name);

        /** Bucket holding @p name (hash @p h), or the empty one. */
        size_t bucket(std::string_view name, uint64_t h) const;

        std::vector<std::string> names_;
        /** Hash high half (kTag bits) | slot + 1; 0 = empty bucket. */
        std::vector<uint64_t> buckets_;
    };

    /** Next state of a key slot and the Wants bits of its queries. */
    struct KeyEdge
    {
        StateRef next;
        uint8_t wants;
    };

    /** Dispatch record of one state, compiled once (DESIGN.md §15). */
    struct Record
    {
        KeyTable keys;
        std::vector<KeyEdge> key_edges; ///< per key slot
        /** Per Wants bit, in bit order: key slots whose queries want it. */
        std::array<uint32_t, 3> waiting{};
        std::vector<Segment> segments;  ///< empty: no array step
        std::vector<size_t> accepts;    ///< distinct ids, ascending
        std::vector<size_t> suffixes;   ///< indices into suffixes_
        bool value_suffixes = false;    ///< some suffix is not on_array
        bool array_suffixes = false;    ///< some suffix is on_array
        uint16_t trace = 0;             ///< representative trie node

        bool wantsObject() const { return keys.size() != 0; }
        bool wantsArray() const { return !segments.empty(); }
    };

    void build();
    Result pass(const PassInput& in, MultiSink* sink) const;

    /** Record of the state made of the sorted @p nodes. */
    Record compile(const std::vector<int>& nodes, NodeSets& sets) const;

    /** Name of the node set @p nodes (sorted), added to @p sets if new. */
    StateRef name(std::vector<int> nodes, NodeSets& sets) const;

    path::QuerySet set_;
    std::vector<Node> trie_;
    std::vector<Suffix> suffixes_;
    std::vector<Record> records_; ///< one per trie node
    NodeSets sets_;               ///< sets the records_ point at
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_MULTI_H
