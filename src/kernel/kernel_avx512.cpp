// AVX-512F micro-kernels: 14x32 float and 14x16 double. Both use 28 zmm
// accumulators + 2 zmm B loads + 1 broadcast register = 31 of 32
// architectural registers. The float entry also owns two SIMD sliver
// packers: a 16x16 register transpose for strided lanes (A, B^T) and a
// masked zmm row copy for contiguous ones (B, A^T). The double entry packs
// with the scalar defaults. Compiled with -mavx512f; only executed after
// runtime dispatch confirms support.
#include <immintrin.h>

#include <cstdint>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 14;

/// The lowest n lanes of a 16-lane mask (n clamped to [0, 16]).
__mmask16 lanes_mask(index_t n)
{
    if (n >= 16) return static_cast<__mmask16>(0xFFFF);
    if (n <= 0) return 0;
    return static_cast<__mmask16>((1u << n) - 1u);
}

/// permutex2var indices exchanging bit B of the row with bit B of the lane
/// across the register pair (x, y) = (r[i], r[i + B]), i without bit B:
/// the first index makes the new r[i], the second the new r[i + B].
/// Applied for B = 8, 4, 2, 1 this transposes 16 registers of 16 lanes.
template <int B>
__m512i swap_index(bool second)
{
    alignas(64) std::int32_t idx[16];
    for (int j = 0; j < 16; ++j) {
        const bool bit = (j & B) != 0;
        idx[j] = second ? (bit ? 16 + j : j + B) : (bit ? 16 + j - B : j);
    }
    return _mm512_load_si512(idx);
}

template <int B>
void swap_stage(__m512 (&r)[16], __m512i first, __m512i second)
{
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
        if ((i & B) != 0) continue;
        const __m512 x = r[i];
        const __m512 y = r[i + B];
        r[i] = _mm512_permutex2var_ps(x, first, y);
        r[i + B] = _mm512_permutex2var_ps(x, second, y);
    }
}

/// gather_sliver for float: out[p*width + i] = src[i*ld + p]. Each pass
/// takes 16 lanes (source rows) and each chunk 16 depth columns: the rows
/// are loaded (masked to the k tail; rows at or past `live` are zero),
/// transposed in registers, and column p is stored masked to the pass's
/// share of `width`.
void avx512_gather_sliver(const float* src, index_t ld, index_t live,
                          index_t k, index_t width, float* out)
{
    const __m512i i8a = swap_index<8>(false), i8b = swap_index<8>(true);
    const __m512i i4a = swap_index<4>(false), i4b = swap_index<4>(true);
    const __m512i i2a = swap_index<2>(false), i2b = swap_index<2>(true);
    const __m512i i1a = swap_index<1>(false), i1b = swap_index<1>(true);
    for (index_t lane0 = 0; lane0 < width; lane0 += 16) {
        const __mmask16 store = lanes_mask(width - lane0);
        const index_t rows = live - lane0 < 16 ? live - lane0 : 16;
        float* dst = out + lane0;
        if (rows <= 0) {  // a dead pass, e.g. lanes 16-31 of a narrow B^T
            for (index_t p = 0; p < k; ++p)
                _mm512_mask_storeu_ps(dst + p * width, store,
                                      _mm512_setzero_ps());
            continue;
        }
        const float* base = src + lane0 * ld;
        for (index_t p0 = 0; p0 < k; p0 += 16) {
            const index_t cols = k - p0 < 16 ? k - p0 : 16;
            const __mmask16 load = lanes_mask(cols);
            __m512 r[16];
#pragma GCC unroll 16
            for (int i = 0; i < 16; ++i) {
                r[i] = i < rows
                    ? _mm512_maskz_loadu_ps(load, base + i * ld + p0)
                    : _mm512_setzero_ps();
            }
            swap_stage<8>(r, i8a, i8b);
            swap_stage<4>(r, i4a, i4b);
            swap_stage<2>(r, i2a, i2b);
            swap_stage<1>(r, i1a, i1b);
#pragma GCC unroll 16
            for (int j = 0; j < 16; ++j) {
                if (j < cols)
                    _mm512_mask_storeu_ps(dst + (p0 + j) * width, store, r[j]);
            }
        }
    }
}

/// copy_sliver for float: out[p*width + i] = src[p*ld + i]. A full 32-wide
/// sliver is two zmm loads and stores per row; any other shape is the
/// same copy with loads masked to `live` and stores to `width`.
void avx512_copy_sliver(const float* src, index_t ld, index_t live,
                        index_t k, index_t width, float* out)
{
    if (live == 32 && width == 32) {
        for (index_t p = 0; p < k; ++p) {
            const float* row = src + p * ld;
            _mm512_storeu_ps(out + p * 32, _mm512_loadu_ps(row));
            _mm512_storeu_ps(out + p * 32 + 16, _mm512_loadu_ps(row + 16));
        }
        return;
    }
    for (index_t p = 0; p < k; ++p) {
        for (index_t j = 0; j < width; j += 16) {
            const __m512 v = j < live
                ? _mm512_maskz_loadu_ps(lanes_mask(live - j), src + p * ld + j)
                : _mm512_setzero_ps();
            _mm512_mask_storeu_ps(out + p * width + j, lanes_mask(width - j),
                                  v);
        }
    }
}

void avx512_ukr_14x32(index_t kc, const float* a, const float* b, float* c,
                      index_t ldc, bool accumulate)
{
    constexpr index_t kNr = 32;
    __m512 acc[kMr][2];
    for (auto& row : acc) {
        row[0] = _mm512_setzero_ps();
        row[1] = _mm512_setzero_ps();
    }

    for (index_t p = 0; p < kc; ++p) {
        const __m512 b0 = _mm512_load_ps(b + p * kNr);
        const __m512 b1 = _mm512_load_ps(b + p * kNr + 16);
        const float* ap = a + p * kMr;
        for (index_t i = 0; i < kMr; ++i) {
            const __m512 ai = _mm512_set1_ps(ap[i]);
            acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
            acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
        }
    }

    for (index_t i = 0; i < kMr; ++i) {
        float* ci = c + i * ldc;
        if (accumulate) {
            acc[i][0] = _mm512_add_ps(acc[i][0], _mm512_loadu_ps(ci));
            acc[i][1] = _mm512_add_ps(acc[i][1], _mm512_loadu_ps(ci + 16));
        }
        _mm512_storeu_ps(ci, acc[i][0]);
        _mm512_storeu_ps(ci + 16, acc[i][1]);
    }
}

void avx512_ukr_14x16_f64(index_t kc, const double* a, const double* b,
                          double* c, index_t ldc, bool accumulate)
{
    constexpr index_t kNr = 16;
    __m512d acc[kMr][2];
    for (auto& row : acc) {
        row[0] = _mm512_setzero_pd();
        row[1] = _mm512_setzero_pd();
    }

    for (index_t p = 0; p < kc; ++p) {
        const __m512d b0 = _mm512_load_pd(b + p * kNr);
        const __m512d b1 = _mm512_load_pd(b + p * kNr + 8);
        const double* ap = a + p * kMr;
        for (index_t i = 0; i < kMr; ++i) {
            const __m512d ai = _mm512_set1_pd(ap[i]);
            acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
            acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
        }
    }

    for (index_t i = 0; i < kMr; ++i) {
        double* ci = c + i * ldc;
        if (accumulate) {
            acc[i][0] = _mm512_add_pd(acc[i][0], _mm512_loadu_pd(ci));
            acc[i][1] = _mm512_add_pd(acc[i][1], _mm512_loadu_pd(ci + 8));
        }
        _mm512_storeu_pd(ci, acc[i][0]);
        _mm512_storeu_pd(ci + 8, acc[i][1]);
    }
}

}  // namespace

MicroKernel avx512_microkernel()
{
    return {"avx512_14x32", Isa::kAvx512, kMr, 32, &avx512_ukr_14x32,
            &avx512_gather_sliver, &avx512_copy_sliver};
}

MicroKernelD avx512_microkernel_f64()
{
    return {"avx512_14x16_f64", Isa::kAvx512, kMr, 16, &avx512_ukr_14x16_f64,
            &gather_sliver_scalar<double>, &copy_sliver_scalar<double>};
}

}  // namespace cake
