// AVX2+FMA micro-kernels: 6x16 float and 6x8 double. Both use 12 ymm
// accumulators, 2 ymm B loads per k-step, and broadcasts of A elements.
// Compiled with -mavx2 -mfma; only executed after runtime dispatch
// confirms support. Both pack with the scalar default sliver packers.
#include <immintrin.h>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 6;

void avx2_ukr_6x16(index_t kc, const float* a, const float* b, float* c,
                   index_t ldc, bool accumulate)
{
    constexpr index_t kNr = 16;
    __m256 acc[kMr][2];
    for (auto& row : acc) {
        row[0] = _mm256_setzero_ps();
        row[1] = _mm256_setzero_ps();
    }

    for (index_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_load_ps(b + p * kNr);
        const __m256 b1 = _mm256_load_ps(b + p * kNr + 8);
        const float* ap = a + p * kMr;
        for (index_t i = 0; i < kMr; ++i) {
            const __m256 ai = _mm256_broadcast_ss(ap + i);
            acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
        }
    }

    for (index_t i = 0; i < kMr; ++i) {
        float* ci = c + i * ldc;
        if (accumulate) {
            acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_loadu_ps(ci));
            acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_loadu_ps(ci + 8));
        }
        _mm256_storeu_ps(ci, acc[i][0]);
        _mm256_storeu_ps(ci + 8, acc[i][1]);
    }
}

void avx2_ukr_6x8_f64(index_t kc, const double* a, const double* b, double* c,
                      index_t ldc, bool accumulate)
{
    constexpr index_t kNr = 8;
    __m256d acc[kMr][2];
    for (auto& row : acc) {
        row[0] = _mm256_setzero_pd();
        row[1] = _mm256_setzero_pd();
    }

    for (index_t p = 0; p < kc; ++p) {
        const __m256d b0 = _mm256_load_pd(b + p * kNr);
        const __m256d b1 = _mm256_load_pd(b + p * kNr + 4);
        const double* ap = a + p * kMr;
        for (index_t i = 0; i < kMr; ++i) {
            const __m256d ai = _mm256_broadcast_sd(ap + i);
            acc[i][0] = _mm256_fmadd_pd(ai, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_pd(ai, b1, acc[i][1]);
        }
    }

    for (index_t i = 0; i < kMr; ++i) {
        double* ci = c + i * ldc;
        if (accumulate) {
            acc[i][0] = _mm256_add_pd(acc[i][0], _mm256_loadu_pd(ci));
            acc[i][1] = _mm256_add_pd(acc[i][1], _mm256_loadu_pd(ci + 4));
        }
        _mm256_storeu_pd(ci, acc[i][0]);
        _mm256_storeu_pd(ci + 4, acc[i][1]);
    }
}

}  // namespace

MicroKernel avx2_microkernel()
{
    return {"avx2_6x16", Isa::kAvx2, kMr, 16, &avx2_ukr_6x16,
            &gather_sliver_scalar<float>, &copy_sliver_scalar<float>};
}

MicroKernelD avx2_microkernel_f64()
{
    return {"avx2_6x8_f64", Isa::kAvx2, kMr, 8, &avx2_ukr_6x8_f64,
            &gather_sliver_scalar<double>, &copy_sliver_scalar<double>};
}

}  // namespace cake
