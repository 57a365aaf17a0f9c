/**
 * @file
 * Westmere-class policy (kernels/policy.h): 16-byte SSE compares for
 * the equality bitmaps and carry-less multiplication (PCLMUL) for the
 * prefix XOR — the 2010 ISA baseline simdjson calls "westmere".  No
 * BMI2, so bit selection is the clear-lowest loop.
 */
#ifndef JSONSKI_KERNELS_WESTMERE_H
#define JSONSKI_KERNELS_WESTMERE_H

#if !defined(__SSE4_2__) || !defined(__PCLMUL__) || !defined(__POPCNT__)
#error "kernels/westmere.h needs the westmere kernel's flags"
#endif

#include <immintrin.h>

#include <cstdint>

namespace jsonski::kernels {

struct Westmere
{
    static constexpr const char* kName = "westmere";

    struct Block
    {
        __m128i v[4];
    };

    static Block
    load(const char* data)
    {
        Block b;
        for (int i = 0; i < 4; ++i)
            b.v[i] = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + i * 16));
        return b;
    }

    static uint64_t
    eq(const Block& b, char c)
    {
        __m128i needle = _mm_set1_epi8(c);
        uint64_t out = 0;
        for (int i = 0; i < 4; ++i) {
            uint64_t m = static_cast<uint32_t>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(b.v[i], needle)));
            out |= m << (i * 16);
        }
        return out;
    }

    /** Bytes <= 0x20  <=>  max(byte, 0x20) == 0x20 (unsigned). */
    static uint64_t
    whitespace(const Block& b)
    {
        __m128i limit = _mm_set1_epi8(0x20);
        uint64_t out = 0;
        for (int i = 0; i < 4; ++i) {
            uint64_t m = static_cast<uint32_t>(_mm_movemask_epi8(
                _mm_cmpeq_epi8(_mm_max_epu8(b.v[i], limit), limit)));
            out |= m << (i * 16);
        }
        return out;
    }

    static bool
    ascii(const Block& b)
    {
        int acc = 0;
        for (int i = 0; i < 4; ++i)
            acc |= _mm_movemask_epi8(b.v[i]);
        return acc == 0;
    }

    static uint64_t
    prefixXor(uint64_t x)
    {
        __m128i v = _mm_set_epi64x(0, static_cast<int64_t>(x));
        __m128i ones = _mm_set1_epi8(static_cast<char>(0xFF));
        return static_cast<uint64_t>(
            _mm_cvtsi128_si64(_mm_clmulepi64_si128(v, ones, 0)));
    }

    static int
    select(uint64_t x, int k)
    {
        for (int i = 1; i < k; ++i)
            x &= x - 1;
        return __builtin_ctzll(x);
    }
};

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_WESTMERE_H
