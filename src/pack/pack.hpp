// Panel packing: copies operand sub-matrices into contiguous, zero-padded,
// sliver-ordered buffers so the micro-kernel streams unit-stride data and
// cache self-interference is avoided (paper §5.2.1).
//
// Packed-A layout ("mr slivers"): the m x k block is cut into ceil(m/mr)
// horizontal slivers of mr rows. Sliver s occupies a contiguous region of
// mr*k elements ordered k-major: out[s*mr*k + p*mr + i] = A(s*mr + i, p).
// Rows past m are zero.
//
// Packed-B layout ("nr slivers"): the k x n block is cut into ceil(n/nr)
// vertical slivers of nr columns. Sliver t occupies nr*k elements:
// out[t*nr*k + p*nr + j] = B(p, t*nr + j). Columns past n are zero.
//
// Every routine is templated over the element type (float for sgemm,
// double for dgemm) with explicit instantiations in pack.cpp. This module
// owns the panel walk and its checks; the sliver layout loops are the
// dispatched micro-kernel's own gather_sliver / copy_sliver
// (kernel/microkernel.hpp), so the SIMD packers live beside the kernels
// and one mr / nr never has two packing paths. The layout is the same
// whichever entry packs, so any mr / nr may be passed here.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace cake {

/// Ceiling division for non-negative operands.
constexpr index_t ceil_div(index_t a, index_t b)
{
    return (a + b - 1) / b;
}

/// Round `a` up to the next multiple of `b`.
constexpr index_t round_up(index_t a, index_t b)
{
    return ceil_div(a, b) * b;
}

/// Elements required to pack an m x k block of A with register rows mr.
constexpr index_t packed_a_size(index_t m, index_t k, index_t mr)
{
    return round_up(m, mr) * k;
}

/// Elements required to pack a k x n block of B with register cols nr.
constexpr index_t packed_b_size(index_t k, index_t n, index_t nr)
{
    return k * round_up(n, nr);
}

/// Pack the m x k sub-matrix at `a` (row-major, leading dimension lda >= k)
/// into mr-sliver format at `out` (capacity >= packed_a_size(m, k, mr)).
template <typename T>
void pack_a_panel(const T* a, index_t lda, index_t m, index_t k, index_t mr,
                  T* out);

/// As pack_a_panel, but `a` addresses the TRANSPOSE: the packed block's
/// element (i, p) is read from a[p * lda + i] (i.e. op(A) = A^T with A
/// stored k x m, leading dimension lda >= m).
template <typename T>
void pack_a_panel_transposed(const T* a, index_t lda, index_t m, index_t k,
                             index_t mr, T* out);

/// Pack the k x n sub-matrix at `b` (row-major, leading dimension ldb >= n)
/// into nr-sliver format at `out` (capacity >= packed_b_size(k, n, nr)).
template <typename T>
void pack_b_panel(const T* b, index_t ldb, index_t k, index_t n, index_t nr,
                  T* out);

/// As pack_b_panel, but `b` addresses the TRANSPOSE: the packed block's
/// element (p, j) is read from b[j * ldb + p] (op(B) = B^T with B stored
/// n x k, leading dimension ldb >= k).
template <typename T>
void pack_b_panel_transposed(const T* b, index_t ldb, index_t k, index_t n,
                             index_t nr, T* out);

/// Copy (accumulate=false) or add (accumulate=true) an m x n row-major
/// block buffer `cbuf` (leading dimension n) into user matrix `c` with
/// leading dimension ldc.
template <typename T>
void unpack_c_block(const T* cbuf, index_t m, index_t n, T* c, index_t ldc,
                    bool accumulate);


/// Inverse of pack_a_panel for testing: reconstructs A(i, p) from a packed
/// panel. Returns 0 for zero-padded positions.
template <typename T>
T packed_a_at(const T* packed, index_t m, index_t k, index_t mr, index_t i,
              index_t p);

/// Inverse of pack_b_panel for testing.
template <typename T>
T packed_b_at(const T* packed, index_t k, index_t n, index_t nr, index_t p,
              index_t j);

// Explicit instantiations live in pack.cpp.
extern template void pack_a_panel<float>(const float*, index_t, index_t,
                                         index_t, index_t, float*);
extern template void pack_a_panel<double>(const double*, index_t, index_t,
                                          index_t, index_t, double*);
extern template void pack_a_panel_transposed<float>(const float*, index_t,
                                                    index_t, index_t, index_t,
                                                    float*);
extern template void pack_a_panel_transposed<double>(const double*, index_t,
                                                     index_t, index_t,
                                                     index_t, double*);
extern template void pack_b_panel<float>(const float*, index_t, index_t,
                                         index_t, index_t, float*);
extern template void pack_b_panel<double>(const double*, index_t, index_t,
                                          index_t, index_t, double*);
extern template void pack_b_panel_transposed<float>(const float*, index_t,
                                                    index_t, index_t, index_t,
                                                    float*);
extern template void pack_b_panel_transposed<double>(const double*, index_t,
                                                     index_t, index_t,
                                                     index_t, double*);
extern template void unpack_c_block<float>(const float*, index_t, index_t,
                                           float*, index_t, bool);
extern template void unpack_c_block<std::int32_t>(const std::int32_t*,
                                                  index_t, index_t,
                                                  std::int32_t*, index_t,
                                                  bool);
extern template void unpack_c_block<double>(const double*, index_t, index_t,
                                            double*, index_t, bool);
extern template float packed_a_at<float>(const float*, index_t, index_t,
                                         index_t, index_t, index_t);
extern template double packed_a_at<double>(const double*, index_t, index_t,
                                           index_t, index_t, index_t);
extern template float packed_b_at<float>(const float*, index_t, index_t,
                                         index_t, index_t, index_t);
extern template double packed_b_at<double>(const double*, index_t, index_t,
                                           index_t, index_t, index_t);

}  // namespace cake
