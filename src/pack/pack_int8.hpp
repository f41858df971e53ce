// Packing for the quantized (u8 x s8 -> s32) path: the reduction
// dimension is grouped into quads of 4 to match the kernels' dot-product
// idiom (see kernel_int8.hpp for the exact layouts).
#pragma once

#include <cstdint>

#include "pack/pack.hpp"

namespace cake {

/// k-quads covering a reduction depth of k.
constexpr index_t int8_kq(index_t k)
{
    return ceil_div(k, 4);
}

/// Bytes required to pack an m x k block of u8 A with register rows mr.
constexpr index_t packed_a_int8_size(index_t m, index_t k, index_t mr)
{
    return round_up(m, mr) * int8_kq(k) * 4;
}

/// Bytes required to pack a k x n block of s8 B with register cols nr.
constexpr index_t packed_b_int8_size(index_t k, index_t n, index_t nr)
{
    return int8_kq(k) * round_up(n, nr) * 4;
}

/// Pack an m x k u8 sub-matrix (row-major, lda >= k) into mr-sliver
/// k-quad format: out[s*mr*kq*4 + q*mr*4 + i*4 + j] = A(s*mr+i, 4q+j),
/// zero-padded in both m and k. Throws a coded [I8_A_RANGE] Error if any
/// A value exceeds 127 (the int8 A contract, kernel_int8.hpp); `out` is
/// then unspecified.
void pack_a_panel_int8(const std::uint8_t* a, index_t lda, index_t m,
                       index_t k, index_t mr, std::uint8_t* out);

/// Pack a k x n s8 sub-matrix (row-major, ldb >= n) into nr-sliver k-quad
/// format: out[t*nr*kq*4 + q*nr*4 + jj*4 + j] = B(4q+j, t*nr+jj),
/// zero-padded in both n and k.
void pack_b_panel_int8(const std::int8_t* b, index_t ldb, index_t k,
                       index_t n, index_t nr, std::int8_t* out);

}  // namespace cake
