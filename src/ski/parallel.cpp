#include "ski/parallel.h"

#include <exception>
#include <optional>

#include "ski/pass.h"
#include "ski/streamer.h"
#include "telemetry/telemetry.h"
#include "util/error.h"

namespace jsonski::ski {

using path::PathQuery;
using path::PathStep;

namespace {

/** Collects match spans (views into the shared input). */
class SpanSink : public path::MatchSink
{
  public:
    void
    onMatch(std::string_view value) override
    {
        values.push_back(value);
    }

    std::vector<std::string_view> values;
};

/**
 * Index of the array step to fan out over, or npos when the query has
 * no usable split: the serial phase-0 walk handles only a plain key
 * prefix, and the span splitter enumerates elements by *index* — so a
 * descendant step before the split or a filter step at it sends the
 * query down the serial fallback instead.
 */
size_t
firstArrayStep(const PathQuery& q)
{
    for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].kind == PathStep::Kind::Filter)
            return std::string_view::npos;
        if (q[i].isArrayStep())
            return i;
        if (q[i].kind != PathStep::Kind::Key)
            return std::string_view::npos;
    }
    return std::string_view::npos;
}

/**
 * Phases 0 and 1 over the resident record: walk the key prefix to the
 * split array binding members as the serial driver does, G4 past the
 * rest, then record the span of every element of the split array the
 * serial walk hands to its next step.  Both serial drivers bind the
 * first member of each name whose value type the next step needs; the
 * linear Driver crosses elements with the G1 typed scan, NfaDriver
 * (interior descendants) examines every member and stops at every
 * element.  Errors raised here surface only after the workers ran (see
 * ParallelStreamer::run()).
 */
class Splitter : public PassShell
{
  public:
    Splitter(const PathQuery& q, size_t split, std::string_view json)
        : PassShell({.bytes = json}, nullptr),
          q_(q),
          split_(split),
          typed_(!q.hasInteriorDescendant())
    {}

    void
    run()
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        if (c != (split_ == 0 ? '[' : '{')) {
            // Root type mismatch: no match possible.  NfaDriver still
            // reads the value.
            if (!typed_)
                skip_.overValue(Group::G2);
            return;
        }
        cur_.advance(1);
        if (split_ == 0)
            array();
        else
            object(0);
    }

    /**
     * Run @p body over the span of element @p i, rethrowing its
     * ParseErrors at record positions.  Safe from any thread.
     */
    template <class Body>
    void
    replay(size_t i, Body&& body) const
    {
        replayHeld(cur_, spans[i].first, spans[i].second,
                   "in split array element", body);
    }

    /** Element spans; the last one runs to the end of input when its
     *  skip failed, so a worker reproduces the serial error inside it. */
    std::vector<std::pair<size_t, size_t>> spans;

  private:
    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    object(size_t s)
    {
        char want = s + 1 == split_ ? '[' : '{';
        Skipper::TypeFilter filter = !typed_ ? Skipper::TypeFilter::Any
                                     : want == '['
                                         ? Skipper::TypeFilter::Array
                                         : Skipper::TypeFilter::Object;
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                return;
            if (cur_.slice(attr.key_begin, attr.key_end) != q_[s].key) {
                skip_.overValue(Group::G2);
                continue;
            }
            if (cur_.current() != want) {
                // Untyped: the member does not fit, so it binds nothing.
                skip_.overValue(Group::G2);
                continue;
            }
            cur_.advance(1);
            if (s + 1 == split_)
                array();
            else
                object(s + 1);
            skip_.toObjEnd(Group::G4);
            return;
        }
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    array()
    {
        const PathStep& st = q_[split_];
        bool last = split_ + 1 == q_.size();
        Skipper::ElemKind open =
            !typed_ || last ||
                    q_[split_ + 1].kind == PathStep::Kind::Descendant
                ? Skipper::ElemKind::None
            : q_[split_ + 1].isArrayStep() ? Skipper::ElemKind::Array
                                           : Skipper::ElemKind::Object;
        Segment segs[3];
        walkArray(rangeSegments(segs, st.lo, st.hi, 0, open),
                  [&](const Segment&, size_t) {
                      size_t begin = cur_.pos();
                      spans.emplace_back(begin, cur_.size());
                      skip_.overValue(Group::G1);
                      spans.back().second =
                          trimmedEnd(cur_, begin, cur_.pos());
                  });
    }

    const PathQuery& q_;
    size_t split_;
    bool typed_; ///< the serial pass runs the linear Driver
};

} // namespace

bool
ParallelStreamer::parallelizable() const
{
    return firstArrayStep(query_) != std::string_view::npos;
}

size_t
ParallelStreamer::run(std::string_view json, ThreadPool& pool,
                      path::MatchSink* sink) const
{
    size_t split = firstArrayStep(query_);
    if (split == std::string_view::npos) {
        // No usable split (key-only query, descendant prefix, or a
        // filter at the split): evaluate serially.
        Streamer serial(query_);
        // runResident: the parallel entry point requires random access
        // to the (already materialized) buffer, so the chunked test
        // override must not apply to its internal passes.
        return serial.runResident(json, sink).matches;
    }

    // --- Phases 0 and 1 (serial, bit-parallel): split element spans.
    // A failure here is reported after the workers ran: an element
    // before it may fail first, as it would in the serial pass. ---
    Splitter splitter(query_, split, json);
    std::exception_ptr late;
    try {
        splitter.run();
    } catch (const ParseError&) {
        late = std::current_exception();
    }
    const auto& spans = splitter.spans;
    PathQuery remaining;
    remaining.steps.assign(query_.steps.begin() +
                               static_cast<long>(split) + 1,
                           query_.steps.end());

    // --- Phase 2 (parallel): evaluate the tail query per element. ---
    std::vector<std::vector<std::string_view>> results(spans.size());
    if (remaining.empty()) {
        // The elements themselves are the matches; no work to fan out.
        for (size_t i = 0; i < spans.size(); ++i) {
            results[i].push_back(
                json.substr(spans[i].first,
                            spans[i].second - spans[i].first));
        }
    } else {
        // Cross-thread telemetry: each span records into its own
        // registry (worker threads do not inherit the caller's TLS
        // scope), merged below in span order so the result is
        // deterministic under the pool's dynamic scheduling.
        telemetry::Registry* parent = telemetry::current();
        std::vector<telemetry::Registry> span_regs(
            parent != nullptr ? spans.size() : 0);
        Streamer tail(remaining);
        // Rethrows the failure of the lowest failing element, which is
        // the one the serial pass would have reached first.
        pool.parallelFor(spans.size(), [&](size_t i) {
            std::optional<telemetry::Scope> scope;
            if (parent != nullptr)
                scope.emplace(span_regs[i]);
            splitter.replay(i, [&](std::string_view elem) {
                // Primitive elements cannot satisfy further steps.
                if (elem.front() != '{' && elem.front() != '[')
                    return;
                SpanSink local;
                // runResident: SpanSink keeps views of `json` until the
                // document-order merge below.
                tail.runResident(elem, &local);
                results[i] = std::move(local.values);
            });
        });
        for (const telemetry::Registry& r : span_regs)
            parent->merge(r);
    }
    if (late)
        std::rethrow_exception(late);

    // --- Merge in document order. ---
    size_t matches = 0;
    for (const auto& r : results) {
        matches += r.size();
        if (sink) {
            for (std::string_view v : r)
                sink->onMatch(v);
        }
    }
    return matches;
}

} // namespace jsonski::ski
