// Micro-kernel contract: the register-tiled rank-k update at the bottom of
// both the CAKE and GOTO schedulers (paper Figs 5e / 6e), for every kernel
// family (kernel/kernel_family.hpp).
//
// A micro-kernel computes C(mr x nr) (+)= A_panel * B_panel over `steps`
// depth steps of the family's s = k_step K elements each (1 for float and
// double, 4 for the int8 k-quads):
//   * A_panel is packed column-major by step:
//       a[q*mr*s + i*s + d] = A(i, q*s + d)
//   * B_panel is packed row-major by step:
//       b[q*nr*s + j*s + d] = B(q*s + d, j)
//   * C is an mr x nr tile inside a row-major matrix with leading dim ldc.
// For s = 1 these are a[p*mr + i] = A(i, p) and b[p*nr + j] = B(p, j).
//
// Full tiles hit the SIMD kernels; partial edge tiles are computed into an
// aligned scratch tile and copied out (see run_microkernel_tile). Kernels
// exist for every family at every ISA level.
#pragma once

#include "common/checked.hpp"
#include "common/types.hpp"
#include "kernel/cpu_features.hpp"
#include "kernel/kernel_family.hpp"

namespace cake {

/// Function signature shared by all micro-kernels of family F.
/// `accumulate == false` overwrites C; `true` adds into C.
template <typename F>
using MicroKernelFnT = void (*)(index_t steps,
                                const typename KernelFamily<F>::A* a,
                                const typename KernelFamily<F>::B* b,
                                typename KernelFamily<F>::C* c, index_t ldc,
                                bool accumulate);

/// A registered micro-kernel variant with its register-tile dimensions.
template <typename F>
struct MicroKernelT {
    using Family = F;
    const char* name = "";
    Isa isa = Isa::kScalar;
    index_t mr = 0;  ///< register-tile rows (paper's m_r)
    index_t nr = 0;  ///< register-tile cols (paper's n_r)
    MicroKernelFnT<F> fn = nullptr;
};

using MicroKernel = MicroKernelT<float>;
using MicroKernelD = MicroKernelT<double>;

/// Scalar reference kernels (always available). The int8 one is exact
/// over the full u8 x s8 input range.
MicroKernel scalar_microkernel();
MicroKernelD scalar_microkernel_f64();
MicroKernelT<U8S8S32> scalar_int8_microkernel();

#if defined(CAKE_HAVE_AVX2_KERNEL)
/// 6x16 (float) and 6x8 (double) AVX2+FMA kernels; 4x16 AVX2 int8.
MicroKernel avx2_microkernel();
MicroKernelD avx2_microkernel_f64();
MicroKernelT<U8S8S32> avx2_int8_microkernel();
#endif

#if defined(CAKE_HAVE_AVX512_KERNEL)
/// 14x32 (float) and 14x16 (double) AVX-512F kernels; 4x32 AVX-512BW int8.
MicroKernel avx512_microkernel();
MicroKernelD avx512_microkernel_f64();
MicroKernelT<U8S8S32> avx512_int8_microkernel();
#endif

/// Run a (possibly partial) m x n tile, m <= mr, n <= nr, `steps` deep:
/// full tiles call the kernel directly; edges go through a scratch tile.
/// `scratch` must hold at least mr*nr elements, 64-byte aligned.
template <typename F>
void run_microkernel_tile(const MicroKernelT<F>& k, index_t steps,
                          const typename KernelFamily<F>::A* a,
                          const typename KernelFamily<F>::B* b,
                          typename KernelFamily<F>::C* c, index_t ldc,
                          index_t m, index_t n, bool accumulate,
                          typename KernelFamily<F>::C* scratch)
{
#if CAKE_CHECKED_ENABLED
    // Kernel dispatch boundary: validate the operand contract the SIMD
    // kernels silently rely on before handing them raw pointers. The
    // packed a/b slivers only guarantee element alignment (slivers start
    // at mr*kc / nr*kc element offsets); the scratch tile must carry full
    // vector-store alignment because edge tiles are computed there with
    // aligned stores.
    using Fam = KernelFamily<F>;
    if (m > 0 && n > 0) {
        if (a == nullptr || b == nullptr) {
            checked::fail("null-operand", "micro-kernel a/b panel is null");
        }
        require_aligned(a, alignof(typename Fam::A),
                        "micro-kernel packed-A sliver");
        require_aligned(b, alignof(typename Fam::B),
                        "micro-kernel packed-B sliver");
        require_aligned(scratch, kPanelAlignment,
                        "micro-kernel scratch tile");
        // The C tile is an m x n window of a row-major buffer with leading
        // dimension ldc; TileView traps on inconsistent geometry
        // (ld < cols, null base, misaligned base).
        (void)TileView<typename Fam::C>(c, m, n, ldc,
                                        alignof(typename Fam::C),
                                        "micro-kernel C tile");
        if (steps <= 0) {
            checked::fail("bad-tile", "micro-kernel depth must be positive");
        }
    }
#endif
    if (m == k.mr && n == k.nr) {
        k.fn(steps, a, b, c, ldc, accumulate);
        return;
    }
    // Edge tile: compute the full mr x nr tile into scratch (packed panels
    // are zero-padded, so the extra rows/cols are zero), then copy the live
    // m x n region.
    k.fn(steps, a, b, scratch, k.nr, /*accumulate=*/false);
    if (accumulate) {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j)
                c[i * ldc + j] += scratch[i * k.nr + j];
    } else {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j)
                c[i * ldc + j] = scratch[i * k.nr + j];
    }
}

}  // namespace cake
