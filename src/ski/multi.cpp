#include "ski/multi.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "ski/pass.h"
#include "ski/sinks.h"
#include "util/error.h"

namespace jsonski::ski {

using path::PathQuery;
using path::PathStep;

namespace {

/** Is @p kind compiled into the shared trie (vs a divergent suffix)? */
bool
isPlainStep(PathStep::Kind kind)
{
    return kind == PathStep::Kind::Key ||
           kind == PathStep::Kind::Index ||
           kind == PathStep::Kind::Slice ||
           kind == PathStep::Kind::Wildcard;
}

} // namespace

MultiStreamer::MultiStreamer(std::vector<PathQuery> queries)
    : set_(path::QuerySet::normalize(std::move(queries)))
{
    build();
}

MultiStreamer::MultiStreamer(path::QuerySet set) : set_(std::move(set))
{
    build();
}

void
MultiStreamer::build()
{
    trie_.emplace_back(); // root
    // (node, name) -> child while the trie grows; the key tables of the
    // records replace it once compiled.
    std::map<std::pair<int, std::string_view>, int> key_edge;
    for (size_t qi = 0; qi < set_.size(); ++qi) {
        const PathQuery& q = set_.distinct[qi];
        int node = 0;
        size_t k = 0;
        for (; k < q.steps.size(); ++k) {
            const PathStep& step = q.steps[k];
            if (!isPlainStep(step.kind))
                break; // filter/descendant: the suffix diverges here
            int next = -1;
            if (step.kind == PathStep::Kind::Key) {
                auto [it, added] = key_edge.try_emplace(
                    {node, step.key}, static_cast<int>(trie_.size()));
                next = it->second;
                if (added)
                    trie_[node].key_children.emplace_back(step.key, next);
            } else {
                for (auto& [s, child] : trie_[node].array_children) {
                    if (s == step) {
                        next = child;
                        break;
                    }
                }
                if (next < 0) {
                    next = static_cast<int>(trie_.size());
                    trie_[node].array_children.emplace_back(step, next);
                }
            }
            if (next == static_cast<int>(trie_.size()))
                trie_.emplace_back();
            node = next;
        }
        if (k < q.steps.size()) {
            // Divergent suffix: `$` + the remaining steps, compiled
            // into a single-query engine replayed over the value at
            // this node.  Filter-first suffixes see the array they
            // select from; descendant-first suffixes search the value.
            PathQuery suffix;
            suffix.steps.assign(q.steps.begin() +
                                    static_cast<std::ptrdiff_t>(k),
                                q.steps.end());
            bool on_array =
                suffix.steps.front().kind == PathStep::Kind::Filter;
            trie_[node].suffixes.push_back(suffixes_.size());
            trie_[node].wants |= on_array ? kArray : kValue;
            suffixes_.push_back(
                Suffix{qi, Streamer(std::move(suffix)), on_array});
        } else {
            trie_[node].accepts.push_back(qi);
            trie_[node].wants |= kValue;
        }
    }
    for (Node& n : trie_) {
        if (!n.key_children.empty())
            n.wants |= kObject;
        if (!n.array_children.empty())
            n.wants |= kArray;
    }

    records_.reserve(trie_.size());
    for (size_t n = 0; n < trie_.size(); ++n)
        records_.push_back(compile({static_cast<int>(n)}, sets_));
}

MultiStreamer::StateRef
MultiStreamer::name(std::vector<int> nodes, NodeSets& sets) const
{
    if (nodes.empty())
        return kNoState;
    if (nodes.size() == 1)
        return nodes[0];
    if (&sets != &sets_) {
        auto plan = sets_.ids.find(nodes);
        if (plan != sets_.ids.end())
            return ~static_cast<StateRef>(plan->second);
    }
    auto [it, added] =
        sets.ids.try_emplace(nodes, sets.first + sets.lists.size());
    if (added)
        sets.lists.push_back(std::move(nodes));
    return ~static_cast<StateRef>(it->second);
}

MultiStreamer::Record
MultiStreamer::compile(const std::vector<int>& nodes, NodeSets& sets) const
{
    auto wantsOf = [&](const std::vector<int>& set) {
        uint8_t wants = 0;
        for (int n : set)
            wants |= trie_[n].wants;
        return wants;
    };

    Record rec;
    rec.trace = static_cast<uint16_t>(nodes.front());

    // Keys: one slot per distinct name; its next state is every node
    // that name leads to from the set.
    size_t names = 0;
    for (int n : nodes)
        names += trie_[n].key_children.size();
    rec.keys.reserve(names);
    std::vector<std::vector<int>> key_next;
    for (int n : nodes) {
        for (const auto& [key, child] : trie_[n].key_children) {
            size_t slot = rec.keys.insert(key);
            if (slot == key_next.size())
                key_next.emplace_back();
            key_next[slot].push_back(child);
        }
    }
    for (std::vector<int>& next : key_next) {
        std::sort(next.begin(), next.end());
        uint8_t wants = wantsOf(next);
        for (size_t bit = 0; bit < rec.waiting.size(); ++bit)
            rec.waiting[bit] += (wants >> bit) & 1;
        rec.key_edges.push_back({name(std::move(next), sets), wants});
    }

    // Elements: cut the index space at every range bound; coverage is
    // constant between two consecutive cuts.
    std::vector<std::pair<const PathStep*, int>> steps;
    std::vector<size_t> cuts{0};
    for (int n : nodes) {
        for (const auto& [step, child] : trie_[n].array_children) {
            steps.emplace_back(&step, child);
            if (step.lo < step.hi) {
                cuts.push_back(step.lo);
                cuts.push_back(step.hi);
            }
        }
    }
    if (!steps.empty()) {
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        if (cuts.back() != SIZE_MAX)
            cuts.push_back(SIZE_MAX);
        for (size_t i = 0; i + 1 < cuts.size(); ++i) {
            std::vector<int> covering;
            for (const auto& [step, child] : steps) {
                if (step->coversIndex(cuts[i]))
                    covering.push_back(child);
            }
            std::sort(covering.begin(), covering.end());
            uint8_t wants = wantsOf(covering);
            using Kind = Skipper::ElemKind;
            Kind open = wants == kObject  ? Kind::Object
                        : wants == kArray ? Kind::Array
                                          : Kind::None;
            rec.segments.push_back(
                {cuts[i + 1], name(std::move(covering), sets), open});
        }
    }

    for (int n : nodes) {
        rec.accepts.insert(rec.accepts.end(), trie_[n].accepts.begin(),
                           trie_[n].accepts.end());
        for (size_t si : trie_[n].suffixes) {
            rec.suffixes.push_back(si);
            (suffixes_[si].on_array ? rec.array_suffixes
                                    : rec.value_suffixes) = true;
        }
    }
    std::sort(rec.accepts.begin(), rec.accepts.end());
    return rec;
}

void
MultiStreamer::KeyTable::reserve(size_t n)
{
    size_t buckets = 4;
    while (buckets < 2 * n)
        buckets *= 2;
    buckets_.assign(buckets, 0);
    names_.reserve(n);
}

uint64_t
MultiStreamer::KeyTable::hash(std::string_view name)
{
    // Eight bytes at a time; the length seeds the state so names that
    // differ only in length (`f1`, `f10`) spread too.
    uint64_t h = name.size() * 0x9e3779b97f4a7c15ull;
    size_t i = 0;
    for (; i + 8 <= name.size(); i += 8) {
        uint64_t w;
        std::memcpy(&w, name.data() + i, 8);
        h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
    }
    if (i < name.size()) {
        uint64_t w = 0;
        std::memcpy(&w, name.data() + i, name.size() - i);
        h = (h ^ w) * 0x94d049bb133111ebull;
    }
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 32);
}

size_t
MultiStreamer::KeyTable::bucket(std::string_view name, uint64_t h) const
{
    size_t mask = buckets_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
        uint64_t b = buckets_[i];
        if (b == 0 || ((b & kTag) == (h & kTag) &&
                       names_[(b & ~kTag) - 1] == name))
            return i;
    }
}

size_t
MultiStreamer::KeyTable::insert(std::string_view name)
{
    assert(2 * names_.size() < buckets_.size());
    uint64_t h = hash(name);
    uint64_t& b = buckets_[bucket(name, h)];
    if (b == 0) {
        names_.emplace_back(name);
        b = (h & kTag) | names_.size();
    }
    return (b & ~kTag) - 1;
}

int
MultiStreamer::KeyTable::find(std::string_view name) const
{
    uint64_t b = buckets_[bucket(name, hash(name))];
    return static_cast<int>(b & ~kTag) - 1;
}

namespace {

/**
 * MatchSink adapter for a divergent-suffix replay: forwards each match
 * to the multi sink under the suffix's distinct query id, and records
 * whether the outer sink asked the *whole pass* to stop (the nested
 * Streamer pass catches StopStreaming itself, so the driver must
 * re-throw it to abort the shared walk).
 */
class SuffixSink final : public path::MatchSink
{
  public:
    SuffixSink(MultiSink* sink, size_t qi) : sink_(sink), qi_(qi) {}

    void
    onMatch(std::string_view value) override
    {
        if (sink_ == nullptr)
            return;
        try {
            sink_->onMatch(qi_, value);
        } catch (const StopStreaming&) {
            stopped = true;
            throw;
        }
    }

    bool stopped = false;

  private:
    MultiSink* sink_;
    size_t qi_;
};

} // namespace

/** One multi-query pass over a single record. */
class MultiDriver : public PassShell
{
    using Record = MultiStreamer::Record;
    using StateRef = MultiStreamer::StateRef;

  public:
    MultiDriver(const MultiStreamer& ms, const PassInput& in,
                MultiSink* sink, MultiStreamer::Result& result)
        : PassShell(in, &result.stats),
          ms_(ms),
          sink_(sink),
          result_(result)
    {
        sets_.first = ms.sets_.lists.size();
    }

    void
    run()
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        runValue(ms_.records_[0], /*later=*/false, /*top=*/true);
    }

  private:
    /**
     * Record of state @p ref.  A node set's record is merged from its
     * nodes on first use and kept for the rest of the pass: the plan
     * stays read-only, so concurrent passes share it without a lock.
     */
    const Record&
    at(StateRef ref)
    {
        if (ref >= 0)
            return ms_.records_[static_cast<size_t>(ref)];
        size_t id = static_cast<size_t>(~ref);
        if (id >= merged_.size())
            merged_.resize(id + 1);
        if (!merged_[id]) {
            // A copy: compiling may add sets to sets_.lists.
            std::vector<int> nodes = id < sets_.first
                                         ? ms_.sets_.lists[id]
                                         : sets_.lists[id - sets_.first];
            merged_[id] =
                std::make_unique<Record>(ms_.compile(nodes, sets_));
        }
        return *merged_[id];
    }

    void
    emit(const Record& rec, size_t begin, size_t end)
    {
        telemetry::PhaseScope phase(telemetry::Phase::Emit);
        end = trimmedEnd(cur_, begin, end);
        // One frame per distinct query per value, ascending ids.
        for (size_t qi : rec.accepts) {
            ++result_.matches[qi];
            if (sink_)
                sink_->onMatch(qi, cur_.slice(begin, end));
        }
    }

    /**
     * Replay the divergent suffixes of the state that apply to the
     * value span [begin, end) — filter-first ones only over an array
     * (@p c is the value's first byte), descendant-first ones unless
     * @p later — each a full single-query engine running on the
     * held-resident bytes, reporting under its distinct query id.
     * Error positions translate by the span offset, so malformed input
     * surfaces at the same absolute byte a solo run of the full query
     * reports.
     */
    void
    replaySuffixes(const Record& rec, size_t begin, size_t end, char c,
                   bool later)
    {
        end = trimmedEnd(cur_, begin, end);
        for (size_t si : rec.suffixes) {
            const MultiStreamer::Suffix& suf = ms_.suffixes_[si];
            if (suf.on_array ? c != '[' : later)
                continue;
            SuffixSink fwd(sink_, suf.qi);
            StreamResult r;
            replayHeld(cur_, begin, end, "in multi-query suffix",
                       [&](std::string_view span) {
                           r = suf.streamer.runResident(span, &fwd);
                       });
            result_.matches[suf.qi] += r.matches;
            result_.stats.merge(r.stats);
            result_.per_query[suf.qi].merge(r.stats);
            if (fwd.stopped)
                throw StopStreaming{};
        }
    }

    /**
     * Process one value in state @p rec.  @p later marks a member
     * whose key slot an earlier member already bound for the kValue
     * queries: only the container-stepping queries still bind here.
     * @p top marks the root value: on a root type mismatch (no live
     * branch fits the container, nothing accepts and no suffix wants
     * the bytes) the pass stops without ingesting the value, exactly
     * like the single-query engine — the scan is a prefix read, not a
     * validator, so the batched pass never pulls more chunks than the
     * slowest solo pass would.
     */
    void
    runValue(const Record& rec, bool later = false, bool top = false)
    {
        skip_.setTraceState(rec.trace);
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::BadValue, "missing value", cur_.pos());
        bool emits = !later && !rec.accepts.empty();
        bool replays = (!later && rec.value_suffixes) ||
                       (c == '[' && rec.array_suffixes);
        size_t start = cur_.pos();
        // The value is reported whole (or replayed against the
        // divergent suffixes) once consumed: keep its span resident
        // across any chunk seams it straddles.
        HoldScope hold(cur_, emits || replays
                                 ? start
                                 : intervals::StreamCursor::kNoHold);
        if (c == '{' && rec.wantsObject()) {
            cur_.advance(1);
            runObject(rec);
        } else if (c == '[' && rec.wantsArray()) {
            cur_.advance(1);
            walkArray(rec.segments.data(), [&](const Segment& seg, size_t) {
                runValue(at(seg.next));
                skip_.setTraceState(rec.trace);
            });
        } else if (top && !emits && !replays) {
            return; // root type mismatch: no live query can match
        } else {
            // Nothing deeper in the trie can match: fast-forward the
            // whole value (still resident when a suffix replays it).
            skip_.overValue(emits || replays ? Group::G3 : Group::G2);
        }
        if (emits)
            emit(rec, start, cur_.pos());
        if (replays)
            replaySuffixes(rec, start, cur_.pos(), c, later);
    }

    /**
     * G1 filter for the key slots still waiting: Object (Array) when
     * every query not yet bound steps attributes (elements), else Any.
     */
    static Skipper::TypeFilter
    filterFor(const std::array<uint32_t, 3>& waiting)
    {
        if (waiting[0] != 0 || (waiting[1] != 0) == (waiting[2] != 0))
            return Skipper::TypeFilter::Any;
        return waiting[1] != 0 ? Skipper::TypeFilter::Object
                               : Skipper::TypeFilter::Array;
    }

    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    runObject(const Record& rec)
    {
        std::array<uint32_t, 3> waiting = rec.waiting;
        // Wants bits each key slot has bound so far, on bound_ from
        // `base`; exceptions end the pass, so only returns pop them.
        size_t base = bound_top_;
        bound_top_ += rec.keys.size();
        if (bound_.size() < bound_top_)
            bound_.resize(bound_top_);
        std::fill(bound_.begin() + static_cast<std::ptrdiff_t>(base),
                  bound_.begin() + static_cast<std::ptrdiff_t>(bound_top_),
                  0);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(filterFor(waiting), Group::G1);
            if (!attr.found) {
                bound_top_ = base;
                return;
            }
            int found =
                rec.keys.find(cur_.slice(attr.key_begin, attr.key_end));
            if (found < 0) {
                skip_.overValue(Group::G2);
                continue;
            }
            // First-occurrence binding (DESIGN.md §13), per query: a
            // query binds the first member with its name whose value
            // has the type its next step needs — what the solo
            // engine's G1 filter lets it see.  A member nobody binds
            // (a later duplicate) is G2.
            size_t slot = static_cast<size_t>(found);
            const MultiStreamer::KeyEdge& edge = rec.key_edges[slot];
            uint8_t bound = bound_[base + slot];
            char c = cur_.current();
            uint8_t fits = MultiStreamer::kValue |
                           (c == '{'   ? MultiStreamer::kObject
                            : c == '[' ? MultiStreamer::kArray
                                       : 0);
            uint8_t binds = edge.wants & fits & ~bound;
            if (binds == 0) {
                skip_.overValue(Group::G2);
                continue;
            }
            bound_[base + slot] = bound | binds;
            for (size_t bit = 0; bit < waiting.size(); ++bit)
                waiting[bit] -= (binds >> bit) & 1;
            runValue(at(edge.next),
                     /*later=*/(bound & MultiStreamer::kValue) != 0);
            skip_.setTraceState(rec.trace);
            // Generalized G4: abandon the object once every query of
            // every key slot is bound.  Until then the G1 filter
            // narrows to what the waiting queries still need.
            if (waiting == std::array<uint32_t, 3>{}) {
                skip_.toObjEnd(Group::G4);
                bound_top_ = base;
                return;
            }
        }
    }

    const MultiStreamer& ms_;
    MultiSink* sink_;
    MultiStreamer::Result& result_;
    MultiStreamer::NodeSets sets_; ///< node sets named during this pass
    std::vector<std::unique_ptr<Record>> merged_; ///< by set id
    std::vector<uint8_t> bound_; ///< key-slot Wants bits of open objects
    size_t bound_top_ = 0;
};

MultiStreamer::Result
MultiStreamer::run(std::string_view json, MultiSink* sink) const
{
    return pass({.bytes = json, .reroutable = true}, sink);
}

MultiStreamer::Result
MultiStreamer::run(intervals::ChunkSource& source, MultiSink* sink,
                   size_t chunk_bytes) const
{
    return pass({.source = &source, .chunk_bytes = chunk_bytes}, sink);
}

MultiStreamer::Result
MultiStreamer::pass(const PassInput& in, MultiSink* sink) const
{
    Result result;
    result.matches.assign(set_.size(), 0);
    result.per_query.assign(set_.size(), FastForwardStats{});
    MultiDriver driver(*this, in, sink, result);
    try {
        driver.run();
    } catch (const StopStreaming&) {
        // Early termination requested by the sink; partial result.
    }
    driver.finish(result);
    return result;
}

} // namespace jsonski::ski
