/**
 * @file
 * Portable scalar policy (kernels/policy.h): plain loops and SWAR over
 * uint64_t only, no intrinsics.  Runnable on every host; the reference
 * every other policy is differentially tested against.
 */
#ifndef JSONSKI_KERNELS_SCALAR_H
#define JSONSKI_KERNELS_SCALAR_H

#include <cstddef>
#include <cstdint>

#include "util/bits.h"

namespace jsonski::kernels {

struct Scalar
{
    static constexpr const char* kName = "scalar";

    /** The block is read in place. */
    using Block = const char*;

    // 64 bytes per block (== intervals::kBlockSize; kernels sit below
    // the intervals layer, so the constant is not imported from there).
    static constexpr size_t kBytes = 64;

    static Block load(const char* data) { return data; }

    static uint64_t
    eq(Block b, char c)
    {
        uint64_t needle = kLows * static_cast<unsigned char>(c);
        return gather([needle](uint64_t w) {
            // High bit of each byte: set iff the byte is nonzero.
            uint64_t x = w ^ needle;
            return ~(((x & ~kHighs) + ~kHighs) | x) & kHighs;
        }, b);
    }

    static uint64_t
    whitespace(Block b)
    {
        return gather([](uint64_t w) {
            // High bit of each byte: set iff the byte is > 0x20.
            uint64_t gt = ((w & ~kHighs) + kLows * (0x7F - 0x20)) | w;
            return ~gt & kHighs;
        }, b);
    }

    static bool
    ascii(Block b)
    {
        uint64_t acc = 0;
        for (size_t i = 0; i < kBytes / 8; ++i) {
            uint64_t w;
            __builtin_memcpy(&w, b + i * 8, 8);
            acc |= w;
        }
        return (acc & 0x8080808080808080ULL) == 0;
    }

    /** Log-step shift cascade (util/bits.h). */
    static uint64_t prefixXor(uint64_t x) { return bits::prefixXor(x); }

    /** Clear-lowest loop (util/bits.h). */
    static int select(uint64_t x, int k) { return bits::selectBit(x, k); }

  private:
    static constexpr uint64_t kLows = 0x0101010101010101ULL;
    static constexpr uint64_t kHighs = 0x8080808080808080ULL;

    /**
     * SWAR bitmap over the block: @p flag maps each 8-byte word to the
     * high bit of every byte that matches, and a multiply packs those
     * eight bits into one byte of the result.
     */
    template <class Flag>
    static uint64_t
    gather(Flag flag, Block b)
    {
        uint64_t out = 0;
        for (size_t i = 0; i < kBytes / 8; ++i) {
            uint64_t w;
            __builtin_memcpy(&w, b + i * 8, 8);
            if constexpr (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
                w = __builtin_bswap64(w); // byte i of the word -> bits 8i..
            uint64_t packed = (flag(w) * 0x0002040810204081ULL) >> 56;
            out |= packed << (i * 8);
        }
        return out;
    }
};

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_SCALAR_H
