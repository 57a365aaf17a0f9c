/**
 * @file
 * Word-level bit-manipulation primitives used by the bit-parallel
 * fast-forward algorithms (Algorithm 3 of the JSONSki paper).
 *
 * All bitmaps in this codebase follow the "mirrored" convention of
 * simdjson / Mison / Pison (paper footnote 2): bit i of a word
 * corresponds to byte i of the 64-byte block, so the *lowest* set bit is
 * the *earliest* character.  Consequently "next" scans use
 * count-trailing-zeros and interval ends are found at the lowest bit.
 *
 * Everything here is strictly portable: the ISA-accelerated variants of
 * selectBit (PDEP) and prefixXor (CLMUL) live in the kernel policies
 * (src/kernels/), and these functions double as the scalar policy's
 * implementation and the differential-test reference.
 *
 * Every function is `static inline` (internal linkage): the scan loops
 * are compiled once per SIMD kernel with that kernel's -m flags, and
 * each translation unit must keep its own copy — popcount is one
 * `popcnt` instruction under the kernel flags and a libgcc call under
 * the baseline ones (kernels/policy.h, "Flag discipline").
 */
#ifndef JSONSKI_UTIL_BITS_H
#define JSONSKI_UTIL_BITS_H

#include <cstdint>
#include <cstddef>

namespace jsonski::bits {

/** Number of set bits in @p x. */
static inline int
popcount(uint64_t x)
{
    return __builtin_popcountll(x);
}

/** Index (0-based) of the lowest set bit; undefined when x == 0. */
static inline int
trailingZeros(uint64_t x)
{
    return __builtin_ctzll(x);
}

/** Index of the highest set bit; undefined when x == 0. */
static inline int
leadingZeros(uint64_t x)
{
    return __builtin_clzll(x);
}

/** Isolate the lowest set bit (x & -x); 0 stays 0. */
static inline uint64_t
lowestBit(uint64_t x)
{
    return x & (0 - x);
}

/** Clear the lowest set bit (x & (x - 1)); 0 stays 0. */
static inline uint64_t
clearLowest(uint64_t x)
{
    return x & (x - 1);
}

/** Mask of all bits strictly below the lowest set bit of @p x.
 *  For x == 0 the result is all ones. */
static inline uint64_t
maskBelowLowest(uint64_t x)
{
    return lowestBit(x) - 1;
}

/** Mask with bits [0, i) set. i must be in [0, 64]. */
static inline uint64_t
maskBelow(int i)
{
    return i >= 64 ? ~uint64_t{0} : ((uint64_t{1} << i) - 1);
}

/**
 * Position of the k-th (1-based) set bit of @p x.
 *
 * Used by the counting-based pairing strategy (Theorem 4.3): once we
 * know the object ends at the depth-th "}" inside an interval, select
 * finds that close brace.  This is the portable clear-lowest loop; the
 * AVX2 kernel replaces it with one PDEP.
 *
 * @pre 1 <= k <= popcount(x)
 */
static inline int
selectBit(uint64_t x, int k)
{
    for (int i = 1; i < k; ++i)
        x = clearLowest(x);
    return trailingZeros(x);
}

/**
 * Prefix XOR: bit i of the result is the XOR of bits [0, i] of @p x.
 *
 * This turns an (unescaped) quote bitmap into an in-string mask: bits
 * between an opening quote (inclusive) and the matching closing quote
 * (exclusive) read 1.  This is the portable log-step shift cascade;
 * the SIMD kernels replace it with one carry-less multiplication by
 * all-ones.
 */
static inline uint64_t
prefixXor(uint64_t x)
{
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    return x;
}

/** Broadcast one byte across a 64-bit word (for SWAR fallbacks). */
static inline uint64_t
broadcastByte(uint8_t b)
{
    return uint64_t{0x0101010101010101ULL} * b;
}

} // namespace jsonski::bits

#endif // JSONSKI_UTIL_BITS_H
