// AVX2+FMA micro-kernels: 6x16 float and 6x8 double. Both use 12 ymm
// accumulators, 2 ymm B loads per k-step, and broadcasts of A elements.
// Their edge entries are kernel/simd_edge.hpp's body on ymm, with C
// masked by vmaskmov. Compiled with -mavx2 -mfma; only executed after
// runtime dispatch confirms support. Both pack with the scalar default
// sliver packers.
#include <immintrin.h>

#include "kernel/microkernel.hpp"
#include "kernel/simd_edge.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 6;

/// simd_edge traits of one ymm of float (8 lanes) or double (4 lanes).
/// The C mask sets the sign bit of the lowest n lanes.
struct YmmF32 {
    using A = float;
    using B = float;
    using C = float;
    using Reg = __m256;
    using Mask = __m256i;
    static constexpr index_t mr = kMr, lanes = 8, k_step = 1;
    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg load(const float* p) { return _mm256_load_ps(p); }
    static Reg bcast(const float* p) { return _mm256_broadcast_ss(p); }
    static Reg fma(Reg x, Reg y, Reg z) { return _mm256_fmadd_ps(x, y, z); }
    static Reg add(Reg x, Reg y) { return _mm256_add_ps(x, y); }
    static Reg loadu(const float* p) { return _mm256_loadu_ps(p); }
    static void storeu(float* p, Reg v) { _mm256_storeu_ps(p, v); }
    static Mask mask(index_t n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Reg load_mask(Mask m, const float* p)
    {
        return _mm256_maskload_ps(p, m);
    }
    static void store_mask(float* p, Mask m, Reg v)
    {
        _mm256_maskstore_ps(p, m, v);
    }
};

struct YmmF64 {
    using A = double;
    using B = double;
    using C = double;
    using Reg = __m256d;
    using Mask = __m256i;
    static constexpr index_t mr = kMr, lanes = 4, k_step = 1;
    static Reg zero() { return _mm256_setzero_pd(); }
    static Reg load(const double* p) { return _mm256_load_pd(p); }
    static Reg bcast(const double* p) { return _mm256_broadcast_sd(p); }
    static Reg fma(Reg x, Reg y, Reg z) { return _mm256_fmadd_pd(x, y, z); }
    static Reg add(Reg x, Reg y) { return _mm256_add_pd(x, y); }
    static Reg loadu(const double* p) { return _mm256_loadu_pd(p); }
    static void storeu(double* p, Reg v) { _mm256_storeu_pd(p, v); }
    static Mask mask(index_t n)
    {
        return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                                  _mm256_setr_epi64x(0, 1, 2, 3));
    }
    static Reg load_mask(Mask m, const double* p)
    {
        return _mm256_maskload_pd(p, m);
    }
    static void store_mask(double* p, Mask m, Reg v)
    {
        _mm256_maskstore_pd(p, m, v);
    }
};

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
            &simd_edge::kernel<YmmF32>, &gather_sliver_scalar<float>,
            &copy_sliver_scalar<float>};
}

MicroKernelD avx2_microkernel_f64()
{
    return {"avx2_6x8_f64", Isa::kAvx2, kMr, 8, &avx2_ukr_6x8_f64,
            &simd_edge::kernel<YmmF64>, &gather_sliver_scalar<double>,
            &copy_sliver_scalar<double>};
}

}  // namespace cake
