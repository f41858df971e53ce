// Quantized (u8 x s8 -> s32) micro-kernels for DNN inference — the
// deployment format of the CNN workloads the paper's introduction
// motivates. The kernels are the MicroKernelT<U8S8S32> entries of the one
// registry (kernel/registry.hpp). They follow the x86 integer dot-product
// idiom (vpmaddubsw / vpmaddwd): the reduction dimension is processed in
// groups of four, the family's k_step.
//
// Packed layouts (kq = round_up(kc, 4) / 4 k-quads):
//   A (uint8): a[q*mr*4 + i*4 + j] = A(i, 4q + j), zero-padded in k and m.
//   B (int8):  b[q*nr*4 + jj*4 + j] = B(4q + j, jj), zero-padded.
// C is int32, row-major with leading dimension ldc.
//
// Range note: the AVX2/AVX-512 kernels use vpmaddubsw, whose int16 pair
// sums saturate. Results are exact whenever every A value is <= 127
// (guaranteed by cake::quantize_unsigned, which maps into [0,127]); the
// scalar kernel is exact over the full u8 range.
#pragma once

#include <cstdint>

#include "kernel/microkernel.hpp"
#include "kernel/registry.hpp"

namespace cake {

// Ledger-only names. bench/ledger/layers.cpp still spells the int8 kernel
// with these, and the benchmark changes only in a change of its own, so
// they stay until then. No other caller may use them (lint rule 10):
// everything else uses MicroKernelT<U8S8S32>,
// best_microkernel_of<U8S8S32>() and run_microkernel_tile.
using Int8MicroKernel = MicroKernelT<U8S8S32>;

inline const Int8MicroKernel& best_int8_microkernel()
{
    return best_microkernel_of<U8S8S32>();
}

inline void run_int8_tile(const Int8MicroKernel& k, index_t kq,
                          const std::uint8_t* a, const std::int8_t* b,
                          std::int32_t* c, index_t ldc, index_t m, index_t n,
                          bool accumulate, std::int32_t* scratch)
{
    run_microkernel_tile(k, kq, a, b, c, ldc, m, n, accumulate, scratch);
}

}  // namespace cake
