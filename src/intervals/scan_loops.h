/**
 * @file
 * The streaming hot loops, written once over a kernel policy
 * (kernels/policy.h) and instantiated once per kernel by
 * scans_<kernel>.cpp, each compiled with that kernel's pinned flags
 * (src/CMakeLists.txt).  See intervals/scans.h for what each loop does
 * and DESIGN.md §11 for why they are compiled this way.
 *
 * Per block, a loop loads the 64 bytes once (P::load), threads the
 * string layer from the same load when the block is new, and derives
 * every bitmap it needs with inlined policy compares; the pairing
 * counts use popcount and P::select.  Chunked refills and the padded
 * tail stay out-of-line cursor calls (StreamCursor::refillTo,
 * prepareTail), so the loops are identical in both ingestion modes.
 *
 * Include only from a scans_<kernel>.cpp: the loops touch the cursor's
 * fields directly instead of calling its inline accessors, and use
 * only policy functions and the `static inline` helpers of util/bits.h
 * and intervals/classifier.h, so nothing they inline is shared with
 * differently flagged TUs (kernels/policy.h, "Flag discipline";
 * scripts/check_hot_codegen.sh checks the result).
 */
#ifndef JSONSKI_INTERVALS_SCAN_LOOPS_H
#define JSONSKI_INTERVALS_SCAN_LOOPS_H

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "intervals/classifier.h"
#include "intervals/cursor.h"
#include "intervals/scans.h"
#include "telemetry/telemetry.h"
#include "util/bits.h"

namespace jsonski::intervals {

template <class P>
struct ScanLoops
{
    using Block = typename P::Block;

    // --- string layer -------------------------------------------------

    /** Bytes of block @p idx, which must already be classified. */
    static const char*
    blockBytes(const StreamCursor& c, size_t idx)
    {
        size_t base = idx * kBlockSize;
        return base + kBlockSize <= c.len_ ? c.data_ + (base - c.base_)
                                           : c.tail_;
    }

    /** Bytes of the next block to classify, refilling (or padding the
     *  final partial block) first. */
    static const char*
    nextBytes(StreamCursor& c)
    {
        size_t start = c.classified_blocks_ * kBlockSize;
        if (start + kBlockSize > c.len_) { // overflow-free form of the
            if (!c.eof_)                   // partial-tail test
                c.refillTo(start + kBlockSize);
            if (start + kBlockSize > c.len_) {
                c.prepareTail(start);
                return c.tail_;
            }
        }
        return c.data_ + (start - c.base_);
    }

    /** Thread the string layer through the next block, loaded in @p b. */
    static void
    classify(StreamCursor& c, const Block& b)
    {
        c.strings_ = stringLayer(P::eq(b, '\\'), P::eq(b, '"'), c.carry_,
                                 P::prefixXor);
        ++c.classified_blocks_;
        telemetry::count(telemetry::Counter::BlocksClassified);
        telemetry::count(telemetry::Counter::BytesScanned, kBlockSize);
        telemetry::count(telemetry::Counter::StringMaskBuilds);
    }

    /** String layer of block @p idx (see StreamCursor::stringsAt). */
    static const StringBits&
    strings(StreamCursor& c, size_t idx)
    {
        assert(idx + 1 >= c.classified_blocks_ &&
               "cursor cannot rewind to an earlier block");
        while (c.classified_blocks_ <= idx)
            classify(c, P::load(nextBytes(c)));
        return c.strings_;
    }

    /** String layer of the position's block, whose bytes are loaded
     *  once into @p b for the caller's compares.  @pre !atEnd(c) */
    static const StringBits&
    load(StreamCursor& c, Block& b)
    {
        size_t idx = c.pos_ / kBlockSize;
        assert(idx + 1 >= c.classified_blocks_ &&
               "cursor cannot rewind to an earlier block");
        if (idx + 1 == c.classified_blocks_) {
            b = P::load(blockBytes(c, idx));
            return c.strings_;
        }
        while (c.classified_blocks_ < idx)
            classify(c, P::load(nextBytes(c)));
        b = P::load(nextBytes(c));
        classify(c, b);
        return c.strings_;
    }

    /** Bits of the position's block at or after the position. */
    static uint64_t
    fromPos(const StreamCursor& c)
    {
        return ~uint64_t{0} << (c.pos_ % kBlockSize);
    }

    static bool
    atEnd(StreamCursor& c)
    {
        return c.pos_ >= c.len_ && (c.eof_ || c.atEndSlow());
    }

    // --- the table's entries -------------------------------------------

    static void
    classifyThrough(StreamCursor& c, size_t idx)
    {
        (void)strings(c, idx);
    }

    static char
    skipWhitespace(StreamCursor& c)
    {
        while (!atEnd(c)) {
            Block b;
            (void)load(c, b); // keep the sequential string layer in step
            uint64_t candidates = ~P::whitespace(b) & fromPos(c);
            size_t base = c.pos_ - c.pos_ % kBlockSize;
            if (candidates != 0) {
                size_t p = base + static_cast<size_t>(
                                      bits::trailingZeros(candidates));
                if (p >= c.len_) { // padding past the final byte
                    c.pos_ = c.len_;
                    return '\0';
                }
                c.pos_ = p;
                return c.data_[p - c.base_];
            }
            c.pos_ = base + kBlockSize;
        }
        c.pos_ = c.len_;
        return '\0';
    }

    /**
     * Counting-based pairing (Lemma 4.2 / Theorem 4.3) over one word:
     * walk it interval by interval (Algorithm 4) — every opener bounds
     * a structural interval, and the closers inside it are counted
     * against the unpaired-opener total @p depth, the terminating
     * closer being selected straight from the bitmap.  Returns that
     * closer's offset, or -1 with @p depth carried past the word.  The
     * count is 64-bit: an all-opener input grows it by at most 64 per
     * block, so it is bounded by size() and cannot overflow.
     */
    [[gnu::always_inline]] static int
    pairWord(uint64_t opens, uint64_t closes, uint64_t& depth)
    {
        for (;;) {
            // Closers before the next opener, or in the rest of the
            // word when no opener follows.
            uint64_t below = bits::maskBelowLowest(opens);
            uint64_t closes_before = closes & below;
            auto n = static_cast<uint64_t>(bits::popcount(closes_before));
            if (n >= depth)
                return P::select(closes_before, static_cast<int>(depth));
            if (opens == 0) {
                depth -= n;
                return -1; // the interval continues into the next word
            }
            // The interval-ending opener is unpaired.
            depth = depth - n + 1;
            closes &= ~below;
            opens = bits::clearLowest(opens);
        }
    }

    /** Pair word by word from the position to the container's end. */
    static bool
    closeContainer(StreamCursor& c, char open_ch, char close_ch,
                   uint64_t depth)
    {
        while (!atEnd(c)) {
            telemetry::count(telemetry::Counter::PairingProbeWords);
            Block b;
            uint64_t live = ~load(c, b).in_string & fromPos(c);
            size_t base = c.pos_ - c.pos_ % kBlockSize;
            int off = pairWord(P::eq(b, open_ch) & live,
                               P::eq(b, close_ch) & live, depth);
            if (off >= 0) {
                c.pos_ = base + static_cast<size_t>(off) + 1;
                return true;
            }
            c.pos_ = base + kBlockSize;
        }
        c.pos_ = c.len_; // never leave the position past the input
        return false;
    }

    /**
     * closeContainer's pairing, cut short at the first candidate key:
     * an opening quote (quote & in_string) whose next two bytes are
     * @p k0 and @p k1, or whose look-ahead runs past the block.  Only
     * openers and closers before the candidate are counted, so @p depth
     * is exact for a resume after it.
     */
    static KeyStop
    keyOrClose(StreamCursor& c, char open_ch, char close_ch, uint64_t& depth,
               char k0, char k1)
    {
        constexpr uint64_t kTop1 = uint64_t{1} << 63;
        constexpr uint64_t kTop2 = uint64_t{3} << 62;
        while (!atEnd(c)) {
            telemetry::count(telemetry::Counter::PairingProbeWords);
            Block b;
            const StringBits& s = load(c, b);
            uint64_t from = fromPos(c);
            uint64_t cands = s.quote & s.in_string & from &
                             ((P::eq(b, k0) >> 1) | kTop1);
            if (k1 != '\0')
                cands &= (P::eq(b, k1) >> 2) | kTop2;
            uint64_t live =
                ~s.in_string & from & bits::maskBelowLowest(cands);
            size_t base = c.pos_ - c.pos_ % kBlockSize;
            int off = pairWord(P::eq(b, open_ch) & live,
                               P::eq(b, close_ch) & live, depth);
            if (off >= 0) {
                c.pos_ = base + static_cast<size_t>(off) + 1;
                depth = 0;
                return KeyStop::Closer;
            }
            if (cands != 0) {
                c.pos_ = base +
                         static_cast<size_t>(bits::trailingZeros(cands));
                return KeyStop::Candidate;
            }
            c.pos_ = base + kBlockSize;
        }
        c.pos_ = c.len_;
        return KeyStop::End;
    }

    /** Comma structural intervals (Algorithm 4/5), a word at a time. */
    static RunStop
    primitiveRun(StreamCursor& c, char closer, size_t budget, size_t& seps)
    {
        assert(budget >= 1);
        while (!atEnd(c)) {
            Block b;
            uint64_t live = ~load(c, b).in_string & fromPos(c);
            uint64_t stops =
                (P::eq(b, '{') | P::eq(b, '[') | P::eq(b, closer)) & live;
            uint64_t commas_before =
                P::eq(b, ',') & live & bits::maskBelowLowest(stops);
            size_t base = c.pos_ - c.pos_ % kBlockSize;
            auto n = static_cast<size_t>(bits::popcount(commas_before));
            if (n >= budget) {
                int off = P::select(commas_before, static_cast<int>(budget));
                seps += budget;
                c.pos_ = base + static_cast<size_t>(off) + 1;
                return RunStop::SepBudget;
            }
            seps += n;
            budget -= n;
            if (n != 0) {
                // Release attribute names already scanned past: retain
                // only from after the last consumed separator, so the
                // skipper's keyBefore forward reparse (object mode)
                // always reads resident bytes while retention stays
                // bounded by one key, not by the length of the run.
                int last = 63 - bits::leadingZeros(commas_before);
                c.scan_hold_ = base + static_cast<size_t>(last) + 1;
            }
            if (stops != 0) {
                c.pos_ = base +
                         static_cast<size_t>(bits::trailingZeros(stops));
                char ch = c.data_[c.pos_ - c.base_];
                return ch == '{'   ? RunStop::OpenBrace
                       : ch == '[' ? RunStop::OpenBracket
                                   : RunStop::Closer;
            }
            c.pos_ = base + kBlockSize;
        }
        c.pos_ = c.len_;
        return RunStop::End;
    }

    static void
    primitiveEnd(StreamCursor& c)
    {
        while (!atEnd(c)) {
            Block b;
            uint64_t live = ~load(c, b).in_string & fromPos(c);
            uint64_t stops =
                (P::eq(b, ',') | P::eq(b, '}') | P::eq(b, ']')) & live;
            size_t base = c.pos_ - c.pos_ % kBlockSize;
            if (stops != 0) {
                c.pos_ = base +
                         static_cast<size_t>(bits::trailingZeros(stops));
                return;
            }
            c.pos_ = base + kBlockSize;
        }
        c.pos_ = c.len_; // a bare root-level primitive runs to the end
    }

    static size_t
    stringEnd(StreamCursor& c, size_t open_pos)
    {
        size_t block = open_pos / kBlockSize;
        // Quotes strictly after the opening one.
        uint64_t q = strings(c, block).quote &
                     (~uint64_t{1} << (open_pos % kBlockSize));
        while (q == 0) {
            ++block;
            // Refill from the chunk source when the string runs past
            // the ingestion frontier; only an exhausted source (the
            // input truly ends inside the string) is a failure.
            size_t start = block * kBlockSize;
            if (start >= c.len_ && (c.eof_ || !c.refillTo(start + 1)))
                return kUnterminated;
            q = strings(c, block).quote;
        }
        return block * kBlockSize +
               static_cast<size_t>(bits::trailingZeros(q)) + 1;
    }
};

/** The table of policy @p P's loops. */
template <class P>
constexpr Scans
makeScans()
{
    using L = ScanLoops<P>;
    return {P::kName,        L::classifyThrough, L::skipWhitespace,
            L::closeContainer, L::primitiveRun,  L::primitiveEnd,
            L::stringEnd,    L::keyOrClose};
}

} // namespace jsonski::intervals

#endif // JSONSKI_INTERVALS_SCAN_LOOPS_H
