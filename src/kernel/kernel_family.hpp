// Kernel families: the element types one micro-kernel registry entry
// (MicroKernelT<F>, kernel/microkernel.hpp) and one instantiation of the
// CAKE executor (CakeGemmT, core/cake_gemm.hpp) run on. The CB-block
// schedule asks of the kernel only one tile update per unit time whatever
// the element type, so one registry and one block loop, templated over the
// family, serve f32, f64 and the quantized u8 x s8 -> s32 path. Each
// family's element types, k-step, dtype name and ISA-support rule are
// declared here and nowhere else.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "kernel/cpu_features.hpp"

namespace cake {

/// Family tag of the quantized path: A u8, B s8, C s32 (CakeGemmInt8).
struct U8S8S32 {};

/// Family traits. float and double store A, B and C in their own type and
/// step the kernel one K element at a time.
template <typename F>
struct KernelFamily {
    using A = F;
    using B = F;
    using C = F;
    /// K elements one kernel depth step folds: a kernel's depth argument
    /// counts steps, so its packed slivers are k_step-padded in K.
    static constexpr index_t k_step = 1;
    /// Dtype name shared by KernelIr, DtypeDesc and the tuning cache.
    static constexpr const char* name = sizeof(F) == 4 ? "f32" : "f64";
    /// True if this family's kernel of `isa` can run on this CPU.
    static bool isa_ok(Isa isa) { return isa_supported(isa); }
};

template <>
struct KernelFamily<U8S8S32> {
    using A = std::uint8_t;
    using B = std::int8_t;
    using C = std::int32_t;
    /// k-quads: vpdpbusd (and the AVX2 vpmaddubsw/vpmaddwd idiom) folds
    /// 4 K elements per step.
    static constexpr index_t k_step = 4;
    static constexpr const char* name = "i8";
    /// Stricter than isa_supported for AVX-512: the 8x32 kernel is
    /// vpdpbusd on zmm, so it needs AVX-512BW and AVX-512 VNNI, not just
    /// the F foundation. An AVX-512BW host without VNNI (Skylake-SP/X)
    /// runs int8 on the AVX2 kernel.
    static bool isa_ok(Isa isa)
    {
        return isa == Isa::kAvx512
            ? cpu_features().avx512bw && cpu_features().avx512vnni
            : isa_supported(isa);
    }
};

/// Kernel depth steps covering k reduction elements of family F.
template <typename F>
constexpr index_t kernel_steps(index_t k)
{
    return (k + KernelFamily<F>::k_step - 1) / KernelFamily<F>::k_step;
}

}  // namespace cake
