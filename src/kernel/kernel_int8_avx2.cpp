// 4x16 AVX2 u8 x s8 -> s32 micro-kernel: vpmaddubsw + vpmaddwd idiom.
// Exact when A values fit [0, 127] (see kernel_int8.hpp range note).
#include <immintrin.h>

#include <cstdint>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 16;

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
            const __m256i ai = _mm256_set1_epi32(
                *reinterpret_cast<const std::int32_t*>(aq + i * 4));
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
    return {"avx2_int8_4x16", Isa::kAvx2, kMr, kNr, &avx2_int8_ukr};
}

}  // namespace cake
