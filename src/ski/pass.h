/**
 * @file
 * The pass shell shared by the three streaming drivers — Driver,
 * NfaDriver and MultiDriver (DESIGN.md §16): where the record comes
 * from, the cursor/skipper pair over it, container depth, the array
 * walk, the filter probe, consumer holds, pre-order match slots and
 * nested replays over held spans.  Object traversal stays in the
 * drivers.
 */
#ifndef JSONSKI_SKI_PASS_H
#define JSONSKI_SKI_PASS_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "json/text.h"
#include "path/filter.h"
#include "path/matches.h"
#include "ski/skipper.h"
#include "util/error.h"

namespace jsonski::ski {

/**
 * Where a pass reads its record from — the caller's resident bytes or
 * a forward-only ChunkSource — plus an optional structural semi-index
 * built from exactly that record.  Resident bytes are open to the
 * chunk-seam test reroute only when the caller lets views of them go
 * (not the parallel splitter, not nested replays over held spans).
 */
struct PassInput
{
    std::string_view bytes = {};              ///< the record, if resident
    intervals::ChunkSource* source = nullptr; ///< else its source
    size_t chunk_bytes = 0;                   ///< refill size for source
    const index::StructuralIndex* index = nullptr; ///< usable(), or null
    bool reroutable = false;

    /** The caller holds the bytes, so a failed pass can be replayed. */
    bool resident() const { return source == nullptr; }
};

/** Chunk size from JSONSKI_TEST_CHUNK_BYTES, or 0 when unset. */
inline size_t
testChunkBytesOverride()
{
    static const size_t v = [] {
        const char* e = std::getenv("JSONSKI_TEST_CHUNK_BYTES");
        return e ? static_cast<size_t>(std::strtoull(e, nullptr, 10)) : 0;
    }();
    return v;
}

/** @p end pulled back over whitespace a primitive skip crossed. */
inline size_t
trimmedEnd(const intervals::StreamCursor& cur, size_t start, size_t end)
{
    while (end > start && json::isWhitespace(cur.at(end - 1)))
        --end;
    return end;
}

/**
 * Array positions from the previous segment's `hi` (0 for the first)
 * up to `hi`, all covered by the same driver state `next`.  The last
 * segment ends at SIZE_MAX; kNone there means the ranges are
 * exhausted, elsewhere a gap below or between them.  `open` is the one
 * element kind the covering state can use (G1 element batching).
 */
struct Segment
{
    static constexpr int kNone = INT32_MIN;

    size_t hi;
    int next;
    Skipper::ElemKind open;
};

/**
 * The segments of one range [lo, hi) covered by state @p next: the gap
 * below it, the range, its exhaustion.  @p out holds at least three.
 */
inline const Segment*
rangeSegments(Segment* out, size_t lo, size_t hi, int next,
              Skipper::ElemKind open)
{
    Segment* s = out;
    if (lo > 0)
        *s++ = {lo, Segment::kNone, Skipper::ElemKind::None};
    *s++ = {hi, next, open};
    if (hi != SIZE_MAX)
        *s = {SIZE_MAX, Segment::kNone, Skipper::ElemKind::None};
    return out;
}

class SlotEmitter;

/** A filter predicate's field and the value the probe found for it. */
struct FieldProbe
{
    std::string_view field;
    bool present = false;
    size_t vs = 0, ve = 0; ///< the value; a container's first byte only
};

/**
 * Cursor, skipper and container depth of one pass, with the traversal
 * the drivers share; the drivers derive from it.  Nothing here is
 * virtual.
 */
class PassShell
{
  public:
    /** Record ingestion totals once the pass is over. */
    template <class Result>
    void
    finish(Result& r) const
    {
        r.input_bytes = cur_.size();
        r.ingest = cur_.ingestStats();
        r.kernel = cur_.scans().kernel;
    }

  protected:
    PassShell(const PassInput& in, FastForwardStats* stats,
              bool batch_primitives = true)
        : rerouted_(in.bytes), cur_(open(in, rerouted_)), skip_(cur_, stats)
    {
        skip_.setBatchPrimitives(batch_primitives);
        if (in.index)
            skip_.bindIndex(in.index, &depth_);
    }

    /**
     * One unclosed opener consumed.  The skipper derives the index
     * level from depth_, so the count must be exact at every skipper
     * call.  Traversals that recurse with the data (descendants) stop
     * at kMaxDepth.
     */
    class DepthScope
    {
      public:
        explicit DepthScope(PassShell& p) : depth_(p.depth_)
        {
            if (++depth_ > kMaxDepth)
                throw ParseError(ErrorCode::DepthExceeded,
                                 "nesting too deep for descendant traversal",
                                 p.cur_.pos());
        }
        ~DepthScope() { --depth_; }
        DepthScope(const DepthScope&) = delete;
        DepthScope& operator=(const DepthScope&) = delete;

      private:
        int& depth_;
    };

    static constexpr int kMaxDepth = 20000;

    /**
     * The array walk over index segments (Table 1's G1/G5 element
     * functions).  @p body(segment, index) consumes each element that
     * reaches it, from its first byte; the walk owns the separators.
     * Entry: position just past '['.  Exit: just past the ']'.
     */
    template <class Body>
    void
    walkArray(const Segment* seg, Body&& body)
    {
        for (size_t idx = 0;;) {
            while (idx >= seg->hi)
                ++seg;
            if (seg->next == Segment::kNone) {
                if (seg->hi == SIZE_MAX) {
                    // G5: every range is exhausted.
                    skip_.toAryEnd(Group::G5);
                    return;
                }
                // G5: a gap below or between ranges.
                if (skip_.toElem(Skipper::ElemKind::None, idx, seg->hi,
                                 Group::G5) == Skipper::ElemStop::End)
                    return;
                continue;
            }
            if (seg->open != Skipper::ElemKind::None) {
                // G1: only elements of the open kind can be used; the
                // budget stops at the segment's end, where coverage
                // changes.
                if (skip_.toElem(seg->open, idx, seg->hi, Group::G1) ==
                    Skipper::ElemStop::End)
                    return;
                if (idx >= seg->hi)
                    continue;
            } else if (char c = cur_.skipWhitespace(); c == ']') {
                cur_.advance(1);
                return;
            } else if (c == '\0') {
                throw ParseError(ErrorCode::UnexpectedEnd,
                                 "unexpected end of input", cur_.pos());
            }
            body(*seg, idx);
            char c = cur_.skipWhitespace();
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
     * The filter probe (DESIGN.md §13): scan a candidate's members once
     * for the distinct fields of @p probes.  The first member with each
     * name wins and every other value is G2-skipped; a scalar field's
     * lexeme is scan work (G1), a container field keeps its first byte
     * (all the operator dispatch needs) and is G2-skipped.  Entry: just
     * past '{'.  @return true when the scan reached and consumed the
     * '}' before finding every field.
     */
    bool
    probeFields(std::span<FieldProbe> probes)
    {
        size_t remaining = probes.size();
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return true;
            std::string_view key = cur_.slice(attr.key_begin, attr.key_end);
            auto hit = std::find_if(
                probes.begin(), probes.end(), [&](const FieldProbe& p) {
                    return !p.present && p.field == key;
                });
            if (hit == probes.end()) {
                skip_.overValue(Group::G2);
                continue;
            }
            hit->present = true;
            hit->vs = cur_.pos();
            char c = cur_.current();
            if (c == '{' || c == '[') {
                hit->ve = hit->vs + 1;
                skip_.overValue(Group::G2);
            } else {
                skip_.overPrimitive(Group::G1);
                hit->ve = trimmedEnd(cur_, hit->vs, cur_.pos());
            }
            if (--remaining == 0)
                return false;
        }
    }

    /**
     * The terminal `..key` search (DESIGN.md §13) of the container
     * opened by @p open_ch: one fused key-or-close scan (G1) per
     * container, stopping only at candidate keys.  A candidate is a
     * member of that name when its raw bytes equal @p key and a ':'
     * follows; its value opens a pre-order slot of @p emit and is
     * searched in turn (a container) or skipped as output (G3).
     * Member syntax between candidates is not checked (paper §3.3).
     * Entry: position just past the opener.  Exit: just past its closer.
     */
    void searchKey(std::string_view key, char open_ch, SlotEmitter& emit);

    /** Filter step @p st's verdict on what the probe @p p found. */
    bool
    verdict(const path::PathStep& st, const FieldProbe& p) const
    {
        return p.present
                   ? path::evalPredicate(st, true, cur_.slice(p.vs, p.ve))
                   : path::evalPredicate(st, false, {});
    }

    intervals::ViewSource rerouted_; ///< feeds a rerouted cursor only
    intervals::StreamCursor cur_;
    Skipper skip_;
    int depth_ = 0; ///< containers entered and not yet closed

  private:
    /**
     * JSONSKI_TEST_CHUNK_BYTES=N streams every reroutable input through
     * chunked ingestion with N-byte chunks, so the whole test suite
     * doubles as a chunk-seam test.
     */
    static intervals::StreamCursor
    open(const PassInput& in, intervals::ViewSource& rerouted)
    {
        if (in.source)
            return intervals::StreamCursor(*in.source, in.chunk_bytes);
        if (size_t chunk = in.reroutable ? testChunkBytesOverride() : 0)
            return intervals::StreamCursor(rerouted, chunk);
        return intervals::StreamCursor(in.bytes);
    }
};

/**
 * Keeps the bytes from @p start resident (the consumer hold) until the
 * scope ends, whatever chunk seams the cursor crosses meanwhile; kNoHold
 * leaves the hold as it is.
 */
class HoldScope
{
  public:
    HoldScope(intervals::StreamCursor& cur, size_t start)
        : cur_(cur), saved_(cur.hold())
    {
        cur_.setHold(std::min(saved_, start));
    }
    ~HoldScope() { cur_.setHold(saved_); }
    HoldScope(const HoldScope&) = delete;
    HoldScope& operator=(const HoldScope&) = delete;

  private:
    intervals::StreamCursor& cur_;
    size_t saved_;
};

/**
 * Pre-order match slots for matches that may nest (DESIGN.md §9): a
 * value whose end is unknown gets an in-flight slot when it starts,
 * and a completed slot reaches the sink as soon as no earlier slot is
 * still open.  The emitter owns the consumer hold and keeps it at the
 * earliest undelivered slot or the pin, so chunked retention is bounded
 * by the deepest nested-match chain, not by the document.
 */
class SlotEmitter
{
  public:
    SlotEmitter(intervals::StreamCursor& cur, path::MatchSink* sink,
                size_t* matches)
        : cur_(cur), sink_(sink), matches_(matches)
    {}

    /** Count into @p matches instead (null: someone else counts). */
    void countInto(size_t* matches) { matches_ = matches; }

    /** Count and deliver one complete match now. */
    void
    deliver(std::string_view value)
    {
        if (matches_)
            ++*matches_;
        if (sink_)
            sink_->onMatch(value);
    }

    /** Open @p n in-flight slots at @p start; returns the first. */
    size_t
    open(size_t start, size_t n = 1)
    {
        size_t first = pending_.size();
        pending_.insert(pending_.end(), n, {start, kInFlight});
        flush(); // pins the span before any refill
        return first;
    }

    /** The @p n slots from @p first end at @p end. */
    void
    close(size_t first, size_t end, size_t n = 1)
    {
        for (size_t i = first; i < first + n; ++i)
            pending_[i].second = end;
        flush();
    }

    /** Append @p n complete slots [start, end). */
    void
    add(size_t start, size_t end, size_t n = 1)
    {
        pending_.insert(pending_.end(), n, {start, end});
        flush();
    }

    /** Also hold everything from @p start; returns the pin to restore. */
    size_t
    pin(size_t start)
    {
        size_t saved = std::exchange(pin_, std::min(pin_, start));
        flush();
        return saved;
    }

    void
    unpin(size_t saved)
    {
        pin_ = saved;
        flush();
    }

    /** End of pass: every slot must have closed. */
    void
    drain()
    {
        flush();
        assert(pending_.empty() && "match slot left in flight");
    }

  private:
    static constexpr size_t kInFlight = SIZE_MAX;

    /**
     * Deliver every completed slot not blocked by an earlier in-flight
     * one, then move the consumer hold to the earliest undelivered slot
     * or the pin, whichever is lower.
     */
    void
    flush()
    {
        while (flushed_ < pending_.size() &&
               pending_[flushed_].second != kInFlight) {
            auto [start, end] = pending_[flushed_++];
            deliver(cur_.slice(start, end));
        }
        size_t hold = pin_;
        if (flushed_ == pending_.size()) {
            // Slot indices live on the stack only while in flight, so
            // resetting a drained list is safe.
            pending_.clear();
            flushed_ = 0;
        } else {
            hold = std::min(hold, pending_[flushed_].first);
        }
        cur_.setHold(hold);
    }

    intervals::StreamCursor& cur_;
    path::MatchSink* sink_;
    size_t* matches_;
    std::vector<std::pair<size_t, size_t>> pending_;
    size_t flushed_ = 0; ///< slots already delivered
    size_t pin_ = intervals::StreamCursor::kNoHold;
};

inline void
PassShell::searchKey(std::string_view key, char open_ch, SlotEmitter& emit)
{
    DepthScope depth(*this); // recursion is per nested match only
    char k0 = key.empty() ? '"' : key[0];
    char k1 = key.empty() ? '\0' : key.size() == 1 ? '"' : key[1];
    uint64_t open = 1;
    while (skip_.toKeyOrClose(open_ch == '{', open, k0, k1, Group::G1)) {
        size_t quote = cur_.pos();
        // Pin the candidate's bytes until the compare has read them.
        cur_.setScanHold(quote);
        size_t end = skip_.stringEnd(quote);
        bool named = cur_.slice(quote + 1, end - 1) == key;
        cur_.clearScanHold();
        cur_.setPos(end);
        if (!named || cur_.skipWhitespace() != ':')
            continue; // another key, or a string value: resume after it
        cur_.advance(1);
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "missing attribute value", cur_.pos());
        size_t start = cur_.pos();
        size_t slot = emit.open(start);
        if (c == '{' || c == '[') {
            cur_.advance(1);
            searchKey(key, c, emit);
        } else {
            skip_.overPrimitive(Group::G3);
        }
        emit.close(slot, trimmedEnd(cur_, start, cur_.pos()));
    }
}

/**
 * Run a nested pass (@p body) over the held span [start, end) of the
 * record, translating the span-relative positions of its ParseErrors
 * back to the record.  Nested passes bind no index: the record's
 * index cannot serve span-relative positions.
 */
template <class Body>
void
replayHeld(const intervals::StreamCursor& cur, size_t start, size_t end,
           const char* where, Body&& body)
{
    try {
        body(cur.slice(start, end));
    } catch (const ParseError& e) {
        throw ParseError(e.code(), where, start + e.position());
    }
}

} // namespace jsonski::ski

#endif // JSONSKI_SKI_PASS_H
