// 4x16 AVX2 u8 x s8 -> s32 micro-kernel: vpmaddubsw + vpmaddwd + vpaddd
// idiom. Exact when A values fit [0, 127], which the int8 A packer
// enforces (see kernel_int8.hpp range note). Its edge entry is
// kernel/simd_edge.hpp's body on the same idiom, with the s32 C tile
// masked by vpmaskmovd.
#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "kernel/microkernel.hpp"
#include "kernel/simd_edge.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 16;

/// simd_edge traits: one ymm of 8 s32 columns; a step is one k-quad.
struct YmmS32 {
    using A = std::uint8_t;
    using B = std::int8_t;
    using C = std::int32_t;
    using Reg = __m256i;
    using Mask = __m256i;
    static constexpr index_t mr = kMr, lanes = 8, k_step = 4;
    static Reg zero() { return _mm256_setzero_si256(); }
    static Reg load(const std::int8_t* p)
    {
        return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
    }
    static Reg bcast(const std::uint8_t* p)
    {
        std::int32_t word;
        std::memcpy(&word, p, sizeof word);
        return _mm256_set1_epi32(word);
    }
    static Reg fma(Reg x, Reg y, Reg z)
    {
        return _mm256_add_epi32(
            z, _mm256_madd_epi16(_mm256_maddubs_epi16(x, y),
                                 _mm256_set1_epi16(1)));
    }
    static Reg add(Reg x, Reg y) { return _mm256_add_epi32(x, y); }
    static Reg loadu(const std::int32_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void storeu(std::int32_t* p, Reg v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static Mask mask(index_t n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Reg load_mask(Mask m, const std::int32_t* p)
    {
        return _mm256_maskload_epi32(p, m);
    }
    static void store_mask(std::int32_t* p, Mask m, Reg v)
    {
        _mm256_maskstore_epi32(p, m, v);
    }
};

void avx2_int8_ukr(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                   std::int32_t* c, index_t ldc, bool accumulate)
{
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc[kMr][2];
    for (auto& row : acc) {
        row[0] = _mm256_setzero_si256();
        row[1] = _mm256_setzero_si256();
    }

    for (index_t q = 0; q < kq; ++q) {
        // Two ymm of B: 8 columns each, 4 reduction bytes per 32-bit lane.
        const __m256i b0 = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(b + q * kNr * 4));
        const __m256i b1 = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(b + q * kNr * 4 + 32));
        const std::uint8_t* aq = a + q * kMr * 4;
        for (index_t i = 0; i < kMr; ++i) {
            std::int32_t word;
            std::memcpy(&word, aq + i * 4, sizeof word);
            const __m256i ai = _mm256_set1_epi32(word);
            const __m256i p0 = _mm256_madd_epi16(
                _mm256_maddubs_epi16(ai, b0), ones);
            const __m256i p1 = _mm256_madd_epi16(
                _mm256_maddubs_epi16(ai, b1), ones);
            acc[i][0] = _mm256_add_epi32(acc[i][0], p0);
            acc[i][1] = _mm256_add_epi32(acc[i][1], p1);
        }
    }

    for (index_t i = 0; i < kMr; ++i) {
        std::int32_t* ci = c + i * ldc;
        if (accumulate) {
            acc[i][0] = _mm256_add_epi32(
                acc[i][0],
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ci)));
            acc[i][1] = _mm256_add_epi32(
                acc[i][1],
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(ci + 8)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci), acc[i][0]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + 8), acc[i][1]);
    }
}

}  // namespace

MicroKernelT<U8S8S32> avx2_int8_microkernel()
{
    return {"avx2_int8_4x16", Isa::kAvx2, kMr, kNr, &avx2_int8_ukr,
            &simd_edge::kernel<YmmS32>, &gather_quads_scalar,
            &copy_quads_scalar, /*k_granule=*/4};
}

}  // namespace cake
