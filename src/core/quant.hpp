// Quantization helpers for the u8 x s8 -> s32 GEMM path: affine (asymmetric)
// quantization for activations (A side, unsigned) and symmetric
// quantization for weights (B side, signed, zero-point 0) — the standard
// DNN inference recipe, which keeps the zero-point correction to a single
// per-column term.
//
//   real = scale * (q - zero_point)
//   C_real[i][j] ~= sa*sb * ( C_q[i][j] - za * colsum_b[j] )
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace cake {

/// Affine quantization parameters.
struct QuantParams {
    float scale = 1.0f;
    std::int32_t zero_point = 0;
};

/// Quantize `n` floats into u8 in [0, 127] (the int8 A contract every
/// kernel shares; see kernel_int8.hpp). Returns the params mapping q back
/// to real values.
QuantParams quantize_unsigned(const float* src, index_t n, std::uint8_t* dst);

/// Symmetric signed quantization into [-127, 127] with zero_point = 0.
QuantParams quantize_signed(const float* src, index_t n, std::int8_t* dst);

/// Column sums of a k x n s8 matrix (needed for the za correction).
void int8_column_sums(const std::int8_t* b, index_t ldb, index_t k,
                      index_t n, std::int64_t* colsums);

/// Dequantize a raw s32 GEMM result into floats with the zero-point
/// correction applied: out[i][j] = sa*sb * (acc[i][j] - za*colsum[j]).
void dequantize_gemm(const std::int32_t* acc, index_t ldacc, index_t m,
                     index_t n, const QuantParams& a_params,
                     const QuantParams& b_params,
                     const std::int64_t* b_colsums, float* out,
                     index_t ldout);

}  // namespace cake
