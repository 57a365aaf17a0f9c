/**
 * @file
 * AVX2 policy (kernels/policy.h): 32-byte vector compares for the
 * equality bitmaps, carry-less multiplication (PCLMUL) for the prefix
 * XOR, and PDEP (BMI2) for O(1) bit selection — the configuration the
 * paper's Algorithm 3 measurements assume (Haswell and newer).
 */
#ifndef JSONSKI_KERNELS_AVX2_H
#define JSONSKI_KERNELS_AVX2_H

#if !defined(__AVX2__) || !defined(__BMI2__) || !defined(__PCLMUL__) || \
    !defined(__POPCNT__)
#error "kernels/avx2.h needs the avx2 kernel's flags (src/CMakeLists.txt)"
#endif

#include <immintrin.h>

#include <cstdint>

namespace jsonski::kernels {

struct Avx2
{
    static constexpr const char* kName = "avx2";

    struct Block
    {
        __m256i lo, hi;
    };

    static Block
    load(const char* data)
    {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(data)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(data + 32))};
    }

    static uint64_t
    eq(const Block& b, char c)
    {
        __m256i needle = _mm256_set1_epi8(c);
        return join(_mm256_cmpeq_epi8(b.lo, needle),
                    _mm256_cmpeq_epi8(b.hi, needle));
    }

    /** Bytes <= 0x20  <=>  max(byte, 0x20) == 0x20 (unsigned). */
    static uint64_t
    whitespace(const Block& b)
    {
        __m256i limit = _mm256_set1_epi8(0x20);
        return join(
            _mm256_cmpeq_epi8(_mm256_max_epu8(b.lo, limit), limit),
            _mm256_cmpeq_epi8(_mm256_max_epu8(b.hi, limit), limit));
    }

    static bool
    ascii(const Block& b)
    {
        return (_mm256_movemask_epi8(b.lo) | _mm256_movemask_epi8(b.hi)) ==
               0;
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
        return __builtin_ctzll(_pdep_u64(uint64_t{1} << (k - 1), x));
    }

  private:
    static uint64_t
    join(__m256i lo, __m256i hi)
    {
        uint32_t m_lo = static_cast<uint32_t>(_mm256_movemask_epi8(lo));
        uint32_t m_hi = static_cast<uint32_t>(_mm256_movemask_epi8(hi));
        return (static_cast<uint64_t>(m_hi) << 32) | m_lo;
    }
};

} // namespace jsonski::kernels

#endif // JSONSKI_KERNELS_AVX2_H
