/**
 * @file
 * Word-at-a-time block classifier.
 *
 * Converts 64 input bytes into the BlockBits bitmaps.  The raw
 * equality bitmaps come from the runtime-dispatched SIMD kernel
 * (src/kernels/: AVX2, Westmere/SSE, or portable scalar — selected by
 * cpuid at first use, overridable with JSONSKI_KERNEL).  The
 * string-interior mask uses the standard odd-backslash-sequence
 * algorithm plus a prefix-XOR over unescaped quotes, with carries
 * threaded between blocks so classification can run strictly left to
 * right — exactly the streaming discipline the paper's interval
 * construction assumes.
 */
#ifndef JSONSKI_INTERVALS_CLASSIFIER_H
#define JSONSKI_INTERVALS_CLASSIFIER_H

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "intervals/block.h"

namespace jsonski::intervals {

/**
 * Classify one full 64-byte block.
 *
 * @param data   Pointer to 64 readable bytes.
 * @param carry  In/out cross-block state (escape and in-string carries).
 * @return       Bitmaps for this block.
 */
BlockBits classifyBlock(const char* data, ClassifierCarry& carry);

/**
 * Classify a final partial block of @p len < 64 bytes.  Bytes past the
 * end are treated as padding whitespace (they produce no structural
 * bits).
 */
BlockBits classifyPartialBlock(const char* data, size_t len,
                               ClassifierCarry& carry);

/**
 * Reference scalar implementation used by tests to validate the SIMD
 * path.  Semantically identical to classifyBlock but processes one
 * character at a time with an explicit state machine.
 */
BlockBits classifyBlockReference(const char* data, size_t len,
                                 ClassifierCarry& carry);

/** True when the active runtime kernel is a SIMD one (not "scalar").
 *  See kernels::activeName() for the exact kernel. */
bool classifierUsesSimd();

/**
 * String-layer bitmaps only — the part of the classification that
 * *must* run sequentially (its escape and in-string carries thread
 * through every block).  Metacharacter bitmaps, by contrast, are pure
 * per-block functions and are built lazily per fast-forward case (the
 * paper's "relevant interval bitmaps").
 */
struct StringBits
{
    uint64_t in_string = 0; ///< see BlockBits::in_string
    uint64_t quote = 0;     ///< unescaped quotes
};

/**
 * Mark characters escaped by a backslash, handling runs of backslashes
 * that straddle block boundaries (odd-length run => next char escaped).
 * This is the classic odd/even backslash-sequence computation used by
 * simdjson and Pison.  Pure word arithmetic — identical for every
 * kernel.
 *
 * @param backslash     Bitmap of '\\' bytes in this block.
 * @param prev_escaped  In/out carry: 1 if bit 0 of this block is escaped.
 * @return Bitmap of escaped characters in this block.
 */
static inline uint64_t
findEscaped(uint64_t backslash, uint64_t& prev_escaped)
{
    if (backslash == 0) {
        uint64_t escaped = prev_escaped;
        prev_escaped = 0;
        return escaped;
    }
    backslash &= ~prev_escaped;
    uint64_t follows_escape = (backslash << 1) | prev_escaped;
    constexpr uint64_t even_bits = 0x5555555555555555ULL;
    uint64_t odd_starts = backslash & ~even_bits & ~follows_escape;
    uint64_t even_carries;
    prev_escaped =
        __builtin_add_overflow(odd_starts, backslash, &even_carries) ? 1 : 0;
    uint64_t invert_mask = even_carries << 1;
    return (even_bits ^ invert_mask) & follows_escape;
}

/**
 * One block of the string layer from its raw backslash and quote
 * bitmaps, threading @p carry: unescaped quotes, then the in-string
 * mask by prefix XOR.  Shared by the dispatched classifier and the
 * compiled scan loops; `static` so every kernel's translation unit
 * keeps its own copy (kernels/policy.h, "Flag discipline").
 */
template <class PrefixXor>
static inline StringBits
stringLayer(uint64_t backslash, uint64_t quote, ClassifierCarry& carry,
            PrefixXor prefix_xor)
{
    StringBits out;
    out.quote = quote & ~findEscaped(backslash, carry.prev_escaped);
    out.in_string = prefix_xor(out.quote) ^ carry.prev_in_string;
    // Carry: all-ones if the block ends inside a string.
    carry.prev_in_string =
        static_cast<uint64_t>(static_cast<int64_t>(out.in_string) >> 63);
    return out;
}

/** String-layer classification of one full block. */
StringBits classifyStringsBlock(const char* data, ClassifierCarry& carry);

/** Raw equality bitmap of @p c over 64 bytes (no string masking). */
uint64_t rawEqBits(const char* data, char c);

/** Bitmap of bytes <= 0x20 over 64 bytes (JSON whitespace superset). */
uint64_t rawWhitespaceBits(const char* data);

} // namespace jsonski::intervals

#endif // JSONSKI_INTERVALS_CLASSIFIER_H
