// Portable scalar micro-kernels and sliver packers. Serve as the
// correctness oracles for the SIMD variants and as the fallback on CPUs
// without AVX2.
#include <algorithm>
#include <cstring>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

/// The edge entry: the full tile is computed, and only its live m x n
/// corner is stored.
template <typename T, index_t kMr, index_t kNr>
void scalar_edge(index_t kc, const T* a, const T* b, T* c, index_t ldc,
                 index_t m, index_t n, bool accumulate)
{
    // Local accumulator tile; compilers vectorise this reliably.
    T acc[kMr][kNr] = {};
    for (index_t p = 0; p < kc; ++p) {
        const T* ap = a + p * kMr;
        const T* bp = b + p * kNr;
        for (index_t i = 0; i < kMr; ++i) {
            const T ai = ap[i];
            for (index_t j = 0; j < kNr; ++j) acc[i][j] += ai * bp[j];
        }
    }
    if (accumulate) {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j) c[i * ldc + j] += acc[i][j];
    } else {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j) c[i * ldc + j] = acc[i][j];
    }
}

template <typename T, index_t kMr, index_t kNr>
void scalar_ukr(index_t kc, const T* a, const T* b, T* c, index_t ldc,
                bool accumulate)
{
    scalar_edge<T, kMr, kNr>(kc, a, b, c, ldc, kMr, kNr, accumulate);
}

}  // namespace

template <typename T>
void gather_sliver_scalar(const T* src, index_t ld, index_t live, index_t k,
                          index_t width, T* out)
{
    for (index_t p = 0; p < k; ++p) {
        T* col = out + p * width;
        index_t i = 0;
        for (; i < live; ++i) col[i] = src[i * ld + p];
        for (; i < width; ++i) col[i] = T(0);
    }
}

template <typename T>
void copy_sliver_scalar(const T* src, index_t ld, index_t live, index_t k,
                        index_t width, T* out)
{
    for (index_t p = 0; p < k; ++p) {
        T* row = out + p * width;
        std::memcpy(row, src + p * ld,
                    static_cast<std::size_t>(live) * sizeof(T));
        std::fill(row + live, row + width, T(0));
    }
}

template void gather_sliver_scalar<float>(const float*, index_t, index_t,
                                          index_t, index_t, float*);
template void gather_sliver_scalar<double>(const double*, index_t, index_t,
                                           index_t, index_t, double*);
template void copy_sliver_scalar<float>(const float*, index_t, index_t,
                                        index_t, index_t, float*);
template void copy_sliver_scalar<double>(const double*, index_t, index_t,
                                         index_t, index_t, double*);

MicroKernel scalar_microkernel()
{
    return {"scalar_8x8", Isa::kScalar, 8, 8, &scalar_ukr<float, 8, 8>,
            &scalar_edge<float, 8, 8>, &gather_sliver_scalar<float>,
            &copy_sliver_scalar<float>};
}

MicroKernelD scalar_microkernel_f64()
{
    return {"scalar_8x8_f64", Isa::kScalar, 8, 8, &scalar_ukr<double, 8, 8>,
            &scalar_edge<double, 8, 8>, &gather_sliver_scalar<double>,
            &copy_sliver_scalar<double>};
}

}  // namespace cake
