// Kernel families: the element types one instantiation of the CAKE
// executor (CakeGemmT, core/cake_gemm.hpp) runs on. The CB-block schedule
// is the same for every family — only the operand widths, the
// micro-kernel and its pack layout differ — so one block loop, templated
// over the family, serves f32, f64 and the quantized u8 x s8 -> s32 path.
#pragma once

#include <cstdint>

#include "kernel/kernel_int8.hpp"
#include "kernel/microkernel.hpp"

namespace cake {

/// Family tag of the quantized path: A u8, B s8, C s32 (CakeGemmInt8).
struct U8S8S32 {};

/// Operand element types and micro-kernel type of family `T`. float and
/// double store A, B and C in their own type.
template <typename T>
struct KernelFamily {
    using A = T;
    using B = T;
    using C = T;
    using Kernel = MicroKernelT<T>;
};

template <>
struct KernelFamily<U8S8S32> {
    using A = std::uint8_t;
    using B = std::int8_t;
    using C = std::int32_t;
    using Kernel = Int8MicroKernel;
};

}  // namespace cake
