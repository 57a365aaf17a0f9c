#include "ski/streamer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "index/structural_index.h"
#include "intervals/cursor.h"
#include "path/filter.h"
#include "path/parser.h"
#include "ski/pass.h"
#include "ski/sinks.h"
#include "util/error.h"

namespace jsonski::ski {
namespace {

using path::PathQuery;
using path::PathStep;

/** One streaming pass over a single record. */
class Driver : public PassShell
{
  public:
    Driver(const PathQuery& query, const StreamerOptions& options,
           const PassInput& in, MatchSink* sink, StreamResult& result)
        : PassShell(in, &result.stats, options.batch_primitives),
          q_(query),
          options_(options),
          sink_(sink),
          result_(result),
          emit_(cur_, sink, &result.matches)
    {}

    void
    run()
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        if (q_.empty()) {
            // `$` selects the whole record.
            emitValue();
            return;
        }
        if (q_[0].kind == PathStep::Kind::Descendant) {
            if (c == '{' || c == '[')
                descend();
        } else if (q_[0].isArrayStep()) {
            if (c != '[')
                return; // root type mismatch: no match possible
            cur_.advance(1);
            runArray(0);
        } else {
            if (c != '{')
                return;
            cur_.advance(1);
            runObject(0);
        }
        emit_.drain();
    }

  private:
    /** ACCEPT: fast-forward over the value and report it (G3). */
    void
    emitValue()
    {
        telemetry::PhaseScope phase(telemetry::Phase::Emit);
        size_t start = cur_.pos();
        // The whole value span must stay resident until it is handed
        // to the sink, however many chunk seams it crosses.
        HoldScope hold(cur_, start);
        skip_.overValue(Group::G3);
        emit_.deliver(cur_.slice(start, trimmedEnd(cur_, start, cur_.pos())));
    }

    /**
     * Process an object whose attributes are matched against step
     * @p state.  Entry: position just past '{'.  Exit: position just
     * past the matching '}'.
     */
    void
    runObject(size_t state)
    {
        DepthScope depth(*this);
        skip_.setTraceState(static_cast<uint16_t>(state));
        const PathStep& st = q_[state];
        bool accept_child = (state + 1 == q_.size());
        bool desc_child =
            !accept_child &&
            q_[state + 1].kind == PathStep::Kind::Descendant;
        Skipper::TypeFilter filter =
            accept_child || desc_child || !options_.type_filter
                ? Skipper::TypeFilter::Any
            : q_[state + 1].isArrayStep() ? Skipper::TypeFilter::Array
                                          : Skipper::TypeFilter::Object;
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                return; // object consumed; includes G4-less exhaustion
            if (cur_.slice(attr.key_begin, attr.key_end) != st.key) {
                // G2: unmatched attribute — skip its value wholesale.
                skip_.overValue(Group::G2);
                continue;
            }
            if (accept_child) {
                emitValue(); // G3
            } else if (desc_child) {
                descend();
            } else {
                char want = q_[state + 1].isArrayStep() ? '[' : '{';
                if (cur_.current() != want) {
                    // Type mismatch at runtime (only reachable with the
                    // G1 filter disabled): the subtree cannot match.
                    skip_.overValue(Group::G2);
                    skip_.toObjEnd(Group::G4);
                    return;
                }
                cur_.advance(1); // consume '{' or '['
                if (want == '{')
                    runObject(state + 1);
                else
                    runArray(state + 1);
                skip_.setTraceState(static_cast<uint16_t>(state));
            }
            // G4: attribute names are unique per object — nothing else
            // in this object can match; fast-forward past its '}'.
            skip_.toObjEnd(Group::G4);
            return;
        }
    }

    /**
     * Process an array whose elements are matched against step
     * @p state: an index range or a filter (DESIGN.md §13: only object
     * elements can carry the predicate field, so the rest are G1
     * type-skips).  Entry: position just past '['.  Exit: just past
     * ']'.
     */
    void
    runArray(size_t state)
    {
        DepthScope depth(*this);
        skip_.setTraceState(static_cast<uint16_t>(state));
        const PathStep& st = q_[state];
        using Kind = Skipper::ElemKind;
        Segment segs[3];
        if (st.kind == PathStep::Kind::Filter) {
            walkArray(rangeSegments(segs, 0, SIZE_MAX, 0, Kind::Object),
                      [&](const Segment&, size_t) { keepCandidate(state); });
            return;
        }
        bool accept_child = (state + 1 == q_.size());
        bool desc_child =
            !accept_child &&
            q_[state + 1].kind == PathStep::Kind::Descendant;
        char want = !accept_child && q_[state + 1].isArrayStep() ? '[' : '{';
        // G1: only elements of the expected container type can extend
        // the match.
        Kind open = accept_child || desc_child || !options_.type_filter
                        ? Kind::None
                    : want == '[' ? Kind::Array
                                  : Kind::Object;
        walkArray(
            rangeSegments(segs, st.lo, st.hi, 0, open),
            [&](const Segment&, size_t) {
                if (accept_child) {
                    emitValue(); // G3: every in-range element is a match
                } else if (desc_child) {
                    descend();
                } else if (cur_.current() != want) {
                    // Type mismatch, only reachable with the G1 filter
                    // disabled: the element cannot match.
                    skip_.overValue(Group::G2);
                } else {
                    cur_.advance(1); // consume '{' or '['
                    if (want == '{')
                        runObject(state + 1);
                    else
                        runArray(state + 1);
                    skip_.setTraceState(static_cast<uint16_t>(state));
                }
            });
    }

    /**
     * One object element of a filter array at step @p state.  The probe
     * finds the predicate field (the first member with its name wins,
     * the duplicate-key contract); everything after the verdict is
     * fast-forwarded to the '}' in one go — G3 when the candidate is
     * kept, G2 when it is dropped.  A kept candidate is emitted, or the
     * suffix query is replayed over it.
     *
     * Entry: position at the element's '{'.  Exit: just past its '}'.
     */
    void
    keepCandidate(size_t state)
    {
        size_t start = cur_.pos();
        // The candidate must stay resident through the verdict and any
        // suffix replay, whatever chunk seams it crosses.
        HoldScope hold(cur_, start);
        cur_.advance(1);
        DepthScope depth(*this);
        FieldProbe probe{q_[state].key};
        bool closed = probeFields({&probe, 1});
        bool kept = verdict(q_[state], probe);
        if (!closed)
            skip_.toObjEnd(kept ? Group::G3 : Group::G2);
        if (!kept)
            return;
        size_t end = cur_.pos();
        if (state + 1 == q_.size()) {
            telemetry::PhaseScope phase(telemetry::Phase::Emit);
            emit_.deliver(cur_.slice(start, end));
        } else {
            runContinuation(state + 1, start, end);
            skip_.setTraceState(static_cast<uint16_t>(state));
        }
    }

    /**
     * A kept filter candidate with steps after it: replay the suffix
     * query over the (held, resident) candidate span with a nested
     * driver sharing this pass's result, so matches and stats
     * accumulate in document order.  Suffix queries are cached per
     * step; nesting is bounded by the query length because each
     * suffix is strictly shorter.
     */
    void
    runContinuation(size_t state, size_t start, size_t end)
    {
        if (cont_.empty())
            cont_.resize(q_.size());
        if (!cont_[state]) {
            auto sub = std::make_unique<PathQuery>();
            sub->steps.assign(q_.steps.begin() +
                                  static_cast<std::ptrdiff_t>(state),
                              q_.steps.end());
            cont_[state] = std::move(sub);
        }
        replayHeld(cur_, start, end, "in filter candidate",
                   [&](std::string_view span) {
                       Driver(*cont_[state], options_,
                              {.bytes = span}, sink_, result_)
                           .run();
                   });
    }

    /**
     * A value searched by the terminal `..name` step (an extension
     * over the paper): a container gets the shell's fused key search,
     * a primitive cannot hold a match (G2).
     */
    void
    descend()
    {
        char c = cur_.current();
        if (c != '{' && c != '[') {
            skip_.overValue(Group::G2);
            return;
        }
        // Descendant traversal belongs to the terminal `..name` step.
        skip_.setTraceState(static_cast<uint16_t>(q_.size() - 1));
        cur_.advance(1);
        searchKey(q_.steps.back().key, c, emit_);
    }

    const PathQuery& q_;
    const StreamerOptions& options_;
    MatchSink* sink_;
    StreamResult& result_;
    SlotEmitter emit_; ///< terminal-descendant matches, pre-order
    /** Cached suffix queries for filter continuations, by start step. */
    std::vector<std::unique_ptr<PathQuery>> cont_;
};

/**
 * Sink that turns a nested driver's slice-relative matches back into
 * absolute slots of the enclosing NfaDriver's emitter.  The slots are
 * already complete (both ends known), so appending preserves the
 * outer pre-order.
 */
class TranslatingSink : public MatchSink
{
  public:
    TranslatingSink(SlotEmitter& outer, const char* base, size_t offset)
        : outer_(outer), base_(base), offset_(offset)
    {}

    void
    onMatch(std::string_view value) override
    {
        size_t start =
            offset_ + static_cast<size_t>(value.data() - base_);
        outer_.add(start, start + value.size());
    }

  private:
    SlotEmitter& outer_;
    const char* base_;
    size_t offset_;
};

/**
 * Streaming pass for the nondeterministic query surface — interior
 * descendant steps, alone or combined with filters (DESIGN.md §13).
 * Carries a multiset of NFA states (path::NfaSet) down the recursion
 * instead of the linear driver's single step index: a descendant step
 * keeps its search state co-resident with every continuation it
 * spawns, so `$..a[2].b` and `$..a[?(@.b)]..c` traverse the document
 * once.  Values are emitted once per accepting path, pre-order, via
 * the same pending-slot protocol the linear driver uses for terminal
 * descendants.  Fast-forwarding degrades gracefully: G4/G5 apply only
 * when no descendant state is live at the container, G1/G2 still
 * apply everywhere, and filter candidates keep the G3-or-G2 verdict
 * protocol of the linear driver.
 */
class NfaDriver : public PassShell
{
  public:
    NfaDriver(const PathQuery& query, const StreamerOptions& options,
              const PassInput& in, MatchSink* sink, StreamResult& result)
        : PassShell(in, &result.stats, options.batch_primitives),
          q_(query),
          options_(options),
          result_(result),
          emit_(cur_, sink, &result.matches)
    {}

    void
    run()
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        path::NfaSet start;
        start.add(0, 1);
        value(start);
        emit_.drain();
    }

  private:
    /**
     * Nested entry point for filter-candidate interiors: evaluate the
     * candidate (this driver's whole input) against state set
     * @p initial.  Counting is left to the enclosing driver — the
     * nested pass only forwards spans through its TranslatingSink.
     */
    void
    runFrom(const path::NfaSet& initial, int depth_base)
    {
        depth_ = depth_base;
        emit_.countInto(nullptr);
        value(initial);
        emit_.drain();
    }

    /**
     * Process one value against state set @p a.  Entry: position at
     * the value's first byte (whitespace allowed before it).  Exit:
     * position just past the value.
     */
    void
    value(const path::NfaSet& a)
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "unexpected end of input", cur_.pos());
        uint64_t acc = a.acceptCount(q_);
        size_t start = cur_.pos();
        size_t first = acc > 0 ? emit_.open(start, acc) : 0;
        if (c == '{' && path::nfaWantsObject(q_, a)) {
            cur_.advance(1);
            object(a);
        } else if (c == '[' && path::nfaWantsArray(q_, a)) {
            cur_.advance(1);
            array(a);
        } else {
            // No state can advance into this value: G3 when it is
            // itself accepted, G2 otherwise.
            skip_.overValue(acc > 0 ? Group::G3 : Group::G2);
        }
        if (acc > 0)
            emit_.close(first, trimmedEnd(cur_, start, cur_.pos()), acc);
    }

    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    object(const path::NfaSet& a)
    {
        DepthScope depth(*this);
        bool has_desc = path::nfaHasDescendant(q_, a);
        // Key states bind to the first member with their name whose
        // value fits the next step (duplicate-key contract, the linear
        // driver's G1 filter and G4).
        std::vector<char> consumed(a.states.size(), 0);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return;
            path::NfaSet b = path::nfaOnKey(
                q_, a, cur_.slice(attr.key_begin, attr.key_end),
                &consumed, cur_.current());
            if (b.empty())
                skip_.overValue(Group::G2);
            else
                value(b);
            if (!has_desc) {
                // G4: once every Key state has bound, nothing else in
                // this object can match.
                bool live = false;
                for (size_t i = 0; i < a.states.size(); ++i) {
                    auto [s, c] = a.states[i];
                    (void)c;
                    if (s < q_.size() &&
                        q_[s].kind == PathStep::Kind::Key &&
                        !consumed[i]) {
                        live = true;
                        break;
                    }
                }
                if (!live) {
                    skip_.toObjEnd(Group::G4);
                    return;
                }
            }
        }
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    array(const path::NfaSet& a)
    {
        DepthScope depth(*this);
        bool has_desc = path::nfaHasDescendant(q_, a);
        bool has_filter = false;
        size_t lo_min = std::numeric_limits<size_t>::max();
        size_t hi_max = 0;
        for (const auto& [s, c] : a.states) {
            (void)c;
            if (s >= q_.size())
                continue;
            const PathStep& st = q_[s];
            if (st.kind == PathStep::Kind::Filter)
                has_filter = true;
            else if (st.isArrayStep()) {
                lo_min = std::min(lo_min, st.lo);
                hi_max = std::max(hi_max, st.hi);
            }
        }
        // G5 range skipping is sound only when every live state is a
        // plain index/slice step.
        bool bounded = !has_desc && !has_filter &&
                       lo_min != std::numeric_limits<size_t>::max();
        Segment segs[3];
        std::vector<std::pair<size_t, uint64_t>> fs;
        walkArray(rangeSegments(segs, bounded ? lo_min : 0,
                                bounded ? hi_max : SIZE_MAX, 0,
                                Skipper::ElemKind::None),
                  [&](const Segment&, size_t idx) {
                      fs.clear();
                      path::NfaSet b = path::nfaOnElement(q_, a, idx, &fs);
                      if (!fs.empty() && cur_.current() == '{') {
                          elementWithFilters(b, fs);
                      } else if (b.empty()) {
                          // Gap element: outside every index range (G5),
                          // or wanted only by filters and not an object
                          // (G1).
                          skip_.overValue(fs.empty() ? Group::G5
                                                     : Group::G1);
                      } else {
                          value(b);
                      }
                  });
    }

    /**
     * An object element wanted by at least one filter state: probe for
     * every distinct predicate field in a single scan, add each passing
     * state's advance to @p b, then fast-forward the remainder — G3 when
     * any state survives into the candidate, G2 when none does.
     * Survivor states replay the held candidate span through a nested
     * NfaDriver whose matches are translated back into this driver's
     * pending queue.
     *
     * Entry: position at the element's '{'.  Exit: just past its '}'.
     */
    void
    elementWithFilters(path::NfaSet b,
                       std::vector<std::pair<size_t, uint64_t>>& fs)
    {
        size_t start = cur_.pos();
        size_t saved_pin = emit_.pin(start); // hold from the candidate on
        cur_.advance(1);
        {
            // The probe runs inside the candidate object; the depth
            // counter must say so for the skipper's index level to match.
            DepthScope depth(*this);
            probes_.clear();
            for (const auto& [s, c] : fs) {
                (void)c;
                std::string_view f = q_[s].key;
                if (std::none_of(
                        probes_.begin(), probes_.end(),
                        [&](const FieldProbe& p) { return p.field == f; }))
                    probes_.push_back({f});
            }
            bool closed = probeFields(probes_);
            for (const auto& [s, c] : fs) {
                const PathStep& st = q_[s];
                auto p = std::find_if(
                    probes_.begin(), probes_.end(),
                    [&](const FieldProbe& pr) { return pr.field == st.key; });
                if (verdict(st, *p))
                    b.add(s + 1, c);
            }
            if (!closed)
                skip_.toObjEnd(b.empty() ? Group::G2 : Group::G3);
        }
        size_t end = cur_.pos();
        uint64_t acc = b.acceptCount(q_);
        if (acc > 0)
            emit_.add(start, end, acc); // pre-order: value first
        path::NfaSet rest = b.withoutAccept(q_);
        if (!rest.empty())
            runInterior(rest, start, end);
        emit_.unpin(saved_pin);
    }

    /**
     * Replay a kept candidate's interior against surviving state set
     * @p set with a nested NfaDriver over the resident span.  Stats
     * accumulate into the shared FastForwardStats (the candidate's
     * bytes are charged once by the probe scan and again by the
     * replay — deterministic, and an honest account of the extra
     * pass); matches flow through the TranslatingSink so only this
     * driver counts and delivers them.
     */
    void
    runInterior(const path::NfaSet& set, size_t start, size_t end)
    {
        replayHeld(cur_, start, end, "in filter candidate",
                   [&](std::string_view span) {
                       TranslatingSink tsink(emit_, span.data(), start);
                       NfaDriver(q_, options_, {.bytes = span},
                                 &tsink, result_)
                           .runFrom(set, depth_);
                   });
    }

    const PathQuery& q_;
    const StreamerOptions& options_;
    StreamResult& result_;
    SlotEmitter emit_; ///< every match, pre-order
    /** Distinct predicate fields of the candidate being probed. */
    std::vector<FieldProbe> probes_;
};

} // namespace

StreamResult
Streamer::run(std::string_view json, MatchSink* sink) const
{
    return pass({.bytes = json, .reroutable = true}, sink);
}

StreamResult
Streamer::runResident(std::string_view json, MatchSink* sink) const
{
    return pass({.bytes = json}, sink);
}

StreamResult
Streamer::run(intervals::ChunkSource& source, MatchSink* sink,
              size_t chunk_bytes) const
{
    return pass({.source = &source, .chunk_bytes = chunk_bytes}, sink);
}

StreamResult
Streamer::runIndexed(std::string_view json,
                     const index::StructuralIndex& idx,
                     MatchSink* sink) const
{
    return pass({.bytes = json, .index = &idx, .reroutable = true}, sink);
}

StreamResult
Streamer::runIndexed(intervals::ChunkSource& source,
                     const index::StructuralIndex& idx, MatchSink* sink,
                     size_t chunk_bytes) const
{
    return pass(
        {.source = &source, .chunk_bytes = chunk_bytes, .index = &idx},
        sink);
}

StreamResult
Streamer::pass(PassInput in, MatchSink* sink) const
{
    if (in.index && (!in.index->usable() || in.index->levels() == 0))
        in.index = nullptr; // unclean document: stream
    StreamResult result;
    auto drive = [&](auto&& driver) {
        try {
            driver.run();
        } catch (const StopStreaming&) {
            // A sink requested early termination; the partial result
            // (matches delivered so far) is valid.
        }
        driver.finish(result);
    };
    try {
        // Interior descendants need the multiset driver (DESIGN.md
        // §13); everything else keeps the linear driver's exact
        // traversal, byte charges, and emissions.
        if (query_.hasInteriorDescendant())
            drive(NfaDriver(query_, options_, in, sink, result));
        else
            drive(Driver(query_, options_, in, sink, result));
    } catch (const ParseError& e) {
        // A self-built index only contradicts the driver on
        // grammatically invalid (though structurally clean) documents,
        // where the driver's lenient skip rules desynchronize its
        // depth from the classifier's — e.g. a backslash spliced in
        // front of a string's closing quote.  When the caller passed
        // the bytes resident and nothing reached the sink yet (every
        // match is counted just before delivery), replay plain: warm
        // output stays identical to streaming even on junk.  Otherwise
        // the typed mismatch propagates (fail closed, never wrong
        // output): a forward-only source is already consumed, and
        // after an emission a replay would duplicate matches.
        if (!in.index || !in.resident() ||
            e.code() != ErrorCode::IndexMismatch ||
            (sink && result.matches != 0))
            throw;
        in.index = nullptr;
        return pass(in, sink);
    }
    return result;
}

QueryResult
query(std::string_view json, std::string_view path_text, bool collect)
{
    Streamer streamer(path::parse(path_text));
    QueryResult out;
    if (collect) {
        CollectSink sink;
        StreamResult r = streamer.run(json, &sink);
        out.count = r.matches;
        out.stats = r.stats;
        out.values = std::move(sink.values);
    } else {
        StreamResult r = streamer.run(json);
        out.count = r.matches;
        out.stats = r.stats;
    }
    return out;
}

} // namespace jsonski::ski
