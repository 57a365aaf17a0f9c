/**
 * @file
 * The pass shell shared by the three streaming drivers — Driver,
 * NfaDriver and MultiDriver (DESIGN.md §16): where the record comes
 * from, the cursor/skipper pair over it, container depth, consumer
 * holds, pre-order match slots and nested replays over held spans.
 * None of the traversal lives here.
 */
#ifndef JSONSKI_SKI_PASS_H
#define JSONSKI_SKI_PASS_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "json/text.h"
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

/**
 * Cursor, skipper and container depth of one pass; the drivers derive
 * from it.  Nothing here is virtual.
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

/** @p end pulled back over whitespace a primitive skip crossed. */
inline size_t
trimmedEnd(const intervals::StreamCursor& cur, size_t start, size_t end)
{
    while (end > start && json::isWhitespace(cur.at(end - 1)))
        --end;
    return end;
}

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
