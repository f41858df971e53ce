// Quantized CAKE GEMM: C_s32 (+)= A_u8 * B_s8 with the same CB-block
// partitioning, schedule, pipelined team and in-local-memory partial
// accumulation as the float driver — it IS the float driver's executor,
// instantiated over the U8S8S32 kernel family (kernel/kernel_family.hpp).
// int8 arithmetic quadruples the block's arithmetic intensity per byte,
// which is exactly the lever §3's analysis pulls (elem_bytes enters the
// solver).
//
// Differences from CakeGemm: the micro-kernel and its packed layout are
// an int8 registry entry's (kernel/kernel_int8.hpp);
// transposed operands are refused at construction; there is no
// multiply_scaled (C = A*B, or C += A*B with options.accumulate); and a
// multiply whose K exceeds int8_safe_k() (core/fperror.hpp), where the
// i32 accumulator could overflow, throws a coded [I8_ACC_RANGE] Error
// before any work.
//
// The A contract: every A value lies in [0, 127] (quantize_unsigned maps
// into that range). A multiply that meets a larger A value throws a coded
// [I8_A_RANGE] Error from the A pack walk, under every kernel; C is then
// unspecified, and the context stays usable.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "core/cake_gemm.hpp"
#include "core/quant.hpp"

namespace cake {

/// Reusable quantized GEMM context: C (+)= A * B with A u8 (m x k, lda),
/// B s8 (k x n, ldb), C s32 (m x n, ldc). Exact integer arithmetic; A
/// values must be <= 127 (which quantize_unsigned guarantees), else the
/// multiply throws [I8_A_RANGE].
using CakeGemmInt8 = CakeGemmT<U8S8S32>;

/// s8 weights packed once into per-CB-block k-quad panels (the int8
/// analogue of PackedB); tied to the packing context's geometry.
using PackedBInt8 = PackedB<U8S8S32>;

/// One-shot raw-pointer wrapper (BLAS-style gemm_s8u8s32).
void cake_gemm_s8u8s32(const std::uint8_t* a, const std::int8_t* b,
                       std::int32_t* c, index_t m, index_t n, index_t k,
                       ThreadPool& pool, const CakeOptions& options = {},
                       CakeStats* stats = nullptr);

/// End-to-end quantized multiply of float matrices: quantize A (unsigned
/// affine) and B (signed symmetric), run the integer GEMM, dequantize with
/// the zero-point correction. Returns the approximate float product; the
/// error vs the exact product is bounded by the quantization steps.
Matrix cake_qgemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                  const CakeOptions& options = {});

}  // namespace cake
