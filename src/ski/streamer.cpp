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
            if (c == '{') {
                cur_.advance(1);
                runDescObject();
            } else if (c == '[') {
                cur_.advance(1);
                runDescArray();
            }
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
                char c = cur_.current();
                if (c == '{') {
                    cur_.advance(1);
                    runDescObject();
                } else if (c == '[') {
                    cur_.advance(1);
                    runDescArray();
                } else {
                    skip_.overValue(Group::G2); // primitives: no match
                }
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
     * @p state.  Entry: position just past '['.  Exit: just past ']'.
     */
    void
    runArray(size_t state)
    {
        if (q_[state].kind == PathStep::Kind::Filter) {
            runFilterArray(state);
            return;
        }
        DepthScope depth(*this);
        skip_.setTraceState(static_cast<uint16_t>(state));
        const PathStep& st = q_[state];
        bool accept_child = (state + 1 == q_.size());
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            return;
        }
        // G5: skip the prefix below the range start without matching.
        if (st.lo > 0 &&
            skip_.overElems(st.lo, idx, Group::G5) == Skipper::ElemStop::End)
            return;
        for (;;) {
            if (idx >= st.hi) {
                // G5: the range is exhausted; nothing further can match.
                skip_.toAryEnd(Group::G5);
                return;
            }
            c = cur_.skipWhitespace();
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            if (accept_child) {
                emitValue(); // G3: every in-range element is a match
            } else if (q_[state + 1].kind == PathStep::Kind::Descendant) {
                if (c == '{') {
                    cur_.advance(1);
                    runDescObject();
                } else if (c == '[') {
                    cur_.advance(1);
                    runDescArray();
                } else {
                    skip_.overValue(Group::G2);
                }
            } else {
                char want = q_[state + 1].isArrayStep() ? '[' : '{';
                if (options_.type_filter) {
                    // G1: only elements of the expected container type
                    // can extend the match.
                    Skipper::ElemStop stop =
                        skip_.toTypedElem(want, idx, st.hi, Group::G1);
                    if (stop == Skipper::ElemStop::End)
                        return;
                    if (idx >= st.hi)
                        continue; // budget reached; loop skips out
                } else if (cur_.current() != want) {
                    skip_.overValue(Group::G2);
                    c = cur_.skipWhitespace();
                    if (c == ',') {
                        cur_.advance(1);
                        ++idx;
                        continue;
                    }
                    if (c == ']') {
                        cur_.advance(1);
                        return;
                    }
                    throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
                }
                cur_.advance(1); // consume '{' or '['
                if (want == '{')
                    runObject(state + 1);
                else
                    runArray(state + 1);
                skip_.setTraceState(static_cast<uint16_t>(state));
            }
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                ++idx;
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
    }

    /**
     * Process an array whose elements are screened by filter step
     * @p state (DESIGN.md §13).  Only object elements can carry the
     * predicate field, so non-objects are G1 type-skips.  For each
     * candidate a probe scan locates the predicate field lazily; the
     * verdict then decides whether the rest of the candidate is kept
     * (G3: emitted, or replayed against the suffix query) or skipped
     * wholesale (G2) — the filter counterpart of the paper's
     * skip-what-cannot-match discipline.
     *
     * Entry: position just past '['.  Exit: just past ']'.
     */
    void
    runFilterArray(size_t state)
    {
        DepthScope depth(*this);
        skip_.setTraceState(static_cast<uint16_t>(state));
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            return;
        }
        for (;;) {
            // G1: only an object element can satisfy `@.field`.
            if (skip_.toTypedElem('{', idx,
                                  std::numeric_limits<size_t>::max(),
                                  Group::G1) == Skipper::ElemStop::End)
                return;
            keepCandidate(state);
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                ++idx;
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
    }

    /**
     * One object element of a filter array at step @p state: decide
     * its verdict and, when kept, emit it or replay the suffix query
     * over it.  Entry: position at the element's '{'.  Exit: just past
     * its '}'.
     */
    void
    keepCandidate(size_t state)
    {
        size_t start = cur_.pos();
        // The candidate must stay resident through the verdict and any
        // suffix replay, whatever chunk seams it crosses.
        HoldScope hold(cur_, start);
        cur_.advance(1);
        if (!filterVerdict(q_[state]))
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
     * Probe one candidate object for @p st's predicate field and
     * decide the verdict.  The first member with the field's name wins
     * (duplicate-key contract); members before it are G2-skipped, the
     * field's own scalar lexeme is scan work (G1), and everything
     * after the verdict is fast-forwarded to the '}' in one go —
     * charged G3 when the candidate is kept, G2 when it is dropped.
     *
     * Entry: position just past '{'.  Exit: just past the '}'.
     */
    bool
    filterVerdict(const PathStep& st)
    {
        // The caller has consumed the candidate's '{'.
        DepthScope depth(*this);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return path::evalPredicate(st, false, {});
            if (cur_.slice(attr.key_begin, attr.key_end) != st.key) {
                skip_.overValue(Group::G2);
                continue;
            }
            char c = cur_.current();
            size_t vs = cur_.pos();
            bool verdict;
            if (c == '{' || c == '[') {
                // Containers never satisfy a comparison; the operator
                // dispatch needs only the first byte.
                verdict =
                    path::evalPredicate(st, true, cur_.slice(vs, vs + 1));
                skip_.overValue(Group::G2);
            } else {
                skip_.overPrimitive(Group::G1);
                size_t ve = trimmedEnd(cur_, vs, cur_.pos());
                verdict =
                    path::evalPredicate(st, true, cur_.slice(vs, ve));
            }
            skip_.toObjEnd(verdict ? Group::G3 : Group::G2);
            return verdict;
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
     * Descendant traversal (terminal `..name` step, an extension over
     * the paper): every attribute at any depth whose name matches is
     * a result.  Matches may nest, so they go through the pre-order
     * slots of the SlotEmitter, which bounds chunked-mode retention by
     * the deepest *nested-match* chain, not by the document.  Only
     * primitive runs can still be fast-forwarded — the type-inference
     * limitation the paper predicts for `..`.
     *
     * Entry: position just past '{'.  Exit: just past the '}'.
     */
    void
    runDescObject()
    {
        DepthScope depth(*this);
        // Descendant traversal belongs to the terminal `..name` step.
        skip_.setTraceState(static_cast<uint16_t>(q_.size() - 1));
        const std::string& k = q_.steps.back().key;
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return;
            bool matched =
                cur_.slice(attr.key_begin, attr.key_end) == k;
            char c = cur_.current();
            size_t start = cur_.pos();
            size_t slot = matched ? emit_.open(start) : 0;
            if (c == '{' || c == '[') {
                cur_.advance(1);
                if (c == '{')
                    runDescObject();
                else
                    runDescArray();
            } else {
                skip_.overPrimitive(matched ? Group::G3 : Group::G2);
            }
            if (matched)
                emit_.close(slot, trimmedEnd(cur_, start, cur_.pos()));
        }
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    runDescArray()
    {
        DepthScope depth(*this);
        for (;;) {
            // Primitive elements cannot match a name: batch-skip them.
            if (skip_.toContainerElem(Group::G1) == Skipper::ElemStop::End)
                return;
            char c = cur_.current();
            cur_.advance(1);
            if (c == '{')
                runDescObject();
            else
                runDescArray();
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
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
        // Key states bind to the first member with their name only
        // (duplicate-key contract, mirrors the linear driver's G4).
        std::vector<char> consumed(a.states.size(), 0);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return;
            path::NfaSet b = path::nfaOnKey(
                q_, a, cur_.slice(attr.key_begin, attr.key_end),
                &consumed);
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
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            return;
        }
        if (bounded && lo_min > 0 &&
            skip_.overElems(lo_min, idx, Group::G5) ==
                Skipper::ElemStop::End)
            return;
        std::vector<std::pair<size_t, uint64_t>> fs;
        for (;;) {
            if (bounded && idx >= hi_max) {
                skip_.toAryEnd(Group::G5);
                return;
            }
            c = cur_.skipWhitespace();
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            fs.clear();
            path::NfaSet b = path::nfaOnElement(q_, a, idx, &fs);
            if (!fs.empty() && c == '{') {
                elementWithFilters(b, fs);
            } else if (b.empty()) {
                // Gap element: outside every index range (G5), or
                // wanted only by filters and not an object (G1).
                skip_.overValue(fs.empty() ? Group::G5 : Group::G1);
            } else {
                value(b);
            }
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                ++idx;
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
    }

    /**
     * An object element wanted by at least one filter state: probe for
     * every distinct predicate field in a single scan, resolve the
     * verdicts, then fast-forward the remainder — G3 when any state
     * survives into the candidate, G2 when none does.  Survivor states
     * (filter advances merged into @p b) replay the held candidate
     * span through a nested NfaDriver whose matches are translated
     * back into this driver's pending queue.
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
        filterVerdicts(b, fs);
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
     * Probe the candidate for every filter state's predicate field and
     * add each passing state's advance to @p b.  Entry: position just
     * past the candidate's '{'.  Exit: just past its '}'.
     */
    void
    filterVerdicts(path::NfaSet& b,
                   const std::vector<std::pair<size_t, uint64_t>>& fs)
    {
        // The probe scan runs inside the candidate object; the depth
        // counter must say so for the skipper's index level to match.
        DepthScope depth(*this);
        struct Probe
        {
            const std::string* field;
            bool present = false;
            size_t vs = 0, ve = 0;
        };
        std::vector<Probe> probes;
        for (const auto& [s, c] : fs) {
            (void)c;
            const std::string& f = q_[s].key;
            bool dup = false;
            for (const auto& p : probes) {
                if (*p.field == f) {
                    dup = true;
                    break;
                }
            }
            if (!dup)
                probes.push_back({&f, false, 0, 0});
        }
        size_t remaining = probes.size();
        bool consumed_whole = false;
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                consumed_whole = true;
                break;
            }
            std::string_view key =
                cur_.slice(attr.key_begin, attr.key_end);
            Probe* hit = nullptr;
            for (auto& p : probes) {
                if (!p.present && *p.field == key) {
                    hit = &p;
                    break;
                }
            }
            if (hit == nullptr) {
                skip_.overValue(Group::G2);
                continue;
            }
            hit->present = true;
            hit->vs = cur_.pos();
            char vc = cur_.current();
            if (vc == '{' || vc == '[') {
                hit->ve = hit->vs + 1; // operator dispatch needs 1 byte
                skip_.overValue(Group::G2);
            } else {
                skip_.overPrimitive(Group::G1);
                hit->ve = trimmedEnd(cur_, hit->vs, cur_.pos());
            }
            if (--remaining == 0)
                break;
        }
        for (const auto& [s, c] : fs) {
            const PathStep& st = q_[s];
            const Probe* p = nullptr;
            for (const auto& pr : probes) {
                if (*pr.field == st.key) {
                    p = &pr;
                    break;
                }
            }
            bool verdict =
                p->present
                    ? path::evalPredicate(st, true,
                                          cur_.slice(p->vs, p->ve))
                    : path::evalPredicate(st, false, {});
            if (verdict)
                b.add(s + 1, c);
        }
        if (!consumed_whole)
            skip_.toObjEnd(b.empty() ? Group::G2 : Group::G3);
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
