// Micro-kernel contract: the register-tiled rank-k update at the bottom of
// both the CAKE and GOTO schedulers (paper Figs 5e / 6e), for every kernel
// family (kernel/kernel_family.hpp).
//
// A micro-kernel computes C(mr x nr) (+)= A_panel * B_panel over `steps`
// depth steps of the family's s = k_step K elements each (1 for float and
// double, 4 for the int8 k-quads). The packed layout belongs to the
// registry entry: with its K granule g (k_granule, a multiple of s) a
// k-deep sliver pair is D = round_up(k, g) deep, zero past k, and
//   * A_panel holds g K elements of a row contiguously:
//       a[(p/g)*mr*g + i*g + p%g] = A(i, p)
//   * B_panel holds s K elements of a column contiguously:
//       b[(p/s)*nr*s + j*s + p%s] = B(p, j)
//   * C is an mr x nr tile inside a row-major matrix with leading dim ldc.
// For g = s = 1 these are a[p*mr + i] = A(i, p) and b[p*nr + j] = B(p, j).
// g is 1 for the float entries, 4 for the int8 k-quad entries and 64 for
// the AMX entry, whose A tile rows are 64 contiguous K bytes; a kernel
// may read the whole D-deep sliver, so the zero padding is part of the
// contract (MicroKernelT::a_offset / b_offset / packed_depth).
//
// Every entry also owns the packing of those slivers (BLIS's
// packm-per-kernel design): src/pack walks a panel sliver by sliver and
// hands each one to the dispatched entry's gather_sliver or copy_sliver,
// so SIMD packers live next to the kernels they feed. Both write one
// sliver of `width` lanes over `k` K elements in the entry's layout above
// (mr or nr replaced by width), D deep and zero for live <= i < width.
// gather_sliver reads lane i from the strided source row src[i*ld + p]
// (op(A) = A, and for float op(B) = B^T); copy_sliver reads it from the
// contiguous row src[p*ld + i] (op(B) = B, and for float op(A) = A^T).
// The int8 family packs no transposed operand, so its gather_sliver packs
// u8 A and its copy_sliver s8 B.
//
// Every entry has two compute entry points on the same packed slivers:
// `fn` updates the full mr x nr tile, and `edge` only its live m x n
// corner (1 <= m <= mr, 1 <= n <= nr), reading and writing no C element
// outside it. The SIMD edge entries are the kernel's body with M = m
// accumulator rows fixed at compile time (a table indexed by m - 1) and
// C loads and stores masked to n columns, so an edge tile runs at the
// kernel's rate instead of as a full tile plus a copy. run_microkernel_tile
// picks one of the two. Kernels exist for every family at every ISA level
// but kAmx, which only the int8 family has.
#pragma once

#include <cstdint>

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

/// Signature shared by the edge entries of family F: the same update as
/// MicroKernelFnT on the live m x n corner of the tile only.
template <typename F>
using EdgeKernelFnT = void (*)(index_t steps,
                               const typename KernelFamily<F>::A* a,
                               const typename KernelFamily<F>::B* b,
                               typename KernelFamily<F>::C* c, index_t ldc,
                               index_t m, index_t n, bool accumulate);

/// Signature shared by the sliver packers (see the header comment):
/// pack `live` source lanes (lane step `ld` for gather_sliver, depth step
/// `ld` for copy_sliver) over `k` K elements into `out`, zero-padded to
/// `width` lanes and to the entry's packed depth D. `out` holds width*D
/// elements.
template <typename T>
using SliverFnT = void (*)(const T* src, index_t ld, index_t live, index_t k,
                           index_t width, T* out);

/// A registered micro-kernel variant with its register-tile dimensions.
template <typename F>
struct MicroKernelT {
    using Family = F;
    const char* name = "";
    Isa isa = Isa::kScalar;
    index_t mr = 0;  ///< register-tile rows (paper's m_r)
    index_t nr = 0;  ///< register-tile cols (paper's n_r)
    MicroKernelFnT<F> fn = nullptr;
    /// Partial tiles: C is read and written only in the live m x n corner.
    EdgeKernelFnT<F> edge = nullptr;
    /// Sliver packers: lanes strided (A; float B^T) / contiguous (B;
    /// float A^T) in the source.
    SliverFnT<typename KernelFamily<F>::A> gather_sliver = nullptr;
    SliverFnT<typename KernelFamily<F>::B> copy_sliver = nullptr;
    /// K padding granule g of the packed slivers, a multiple of the
    /// family's k_step; also the K elements of one A row stored
    /// contiguously (see the header comment).
    index_t k_granule = 1;

    /// Packed depth D of a k-deep sliver: k padded to the granule.
    [[nodiscard]] index_t packed_depth(index_t k) const
    {
        return (k + k_granule - 1) / k_granule * k_granule;
    }
    /// Offset of A(i, p) in a packed A sliver `width` rows wide.
    [[nodiscard]] index_t a_offset(index_t width, index_t i, index_t p) const
    {
        return p / k_granule * width * k_granule + i * k_granule
            + p % k_granule;
    }
    /// Offset of B(p, j) in a packed B sliver `width` columns wide.
    [[nodiscard]] index_t b_offset(index_t width, index_t j, index_t p) const
    {
        constexpr index_t s = KernelFamily<F>::k_step;
        return p / s * width * s + j * s + p % s;
    }
};

/// The portable sliver packers: the defaults every float and double entry
/// names unless its ISA has its own. Defined for float and double.
template <typename T>
void gather_sliver_scalar(const T* src, index_t ld, index_t live, index_t k,
                          index_t width, T* out);
template <typename T>
void copy_sliver_scalar(const T* src, index_t ld, index_t live, index_t k,
                        index_t width, T* out);

/// The portable int8 k-quad sliver packers (granule 4), which the VNNI,
/// AVX2 and scalar int8 entries name: u8 A rows and s8 B rows.
void gather_quads_scalar(const std::uint8_t* src, index_t ld, index_t live,
                         index_t k, index_t width, std::uint8_t* out);
void copy_quads_scalar(const std::int8_t* src, index_t ld, index_t live,
                       index_t k, index_t width, std::int8_t* out);

using MicroKernel = MicroKernelT<float>;
using MicroKernelD = MicroKernelT<double>;

/// Upper bound on mr * nr over every kernel of every family (the AMX int8
/// kernel's 32 x 32), so a caller can hold one C tile on the stack.
inline constexpr index_t kMaxTileElems = 32 * 32;

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
/// 14x32 (float) and 14x16 (double) AVX-512F kernels; 8x32 AVX-512 VNNI
/// int8.
MicroKernel avx512_microkernel();
MicroKernelD avx512_microkernel_f64();
MicroKernelT<U8S8S32> avx512_int8_microkernel();
#endif

#if defined(CAKE_HAVE_AMX_KERNEL)
/// 32x32 AMX int8 kernel: a 2 x 2 grid of 16 x 16 i32 tiles (tdpbusd).
MicroKernelT<U8S8S32> amx_int8_microkernel();
#endif

/// Run a (possibly partial) m x n tile, m <= mr, n <= nr, `steps` deep:
/// full tiles call the kernel's `fn`, partial ones its `edge`. `scratch`
/// is unused; it stays in the signature for bench/ledger, which still
/// passes one. CAKE_CHECKED builds check its alignment when it is given.
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
    // at mr*kc / nr*kc element offsets); a caller's scratch tile must
    // carry full vector-store alignment.
    using Fam = KernelFamily<F>;
    if (m > 0 && n > 0) {
        if (a == nullptr || b == nullptr) {
            checked::fail("null-operand", "micro-kernel a/b panel is null");
        }
        require_aligned(a, alignof(typename Fam::A),
                        "micro-kernel packed-A sliver");
        require_aligned(b, alignof(typename Fam::B),
                        "micro-kernel packed-B sliver");
        if (scratch != nullptr) {
            require_aligned(scratch, kPanelAlignment,
                            "micro-kernel scratch tile");
        }
        // The C tile is an m x n window of a row-major buffer with leading
        // dimension ldc; TileView traps on inconsistent geometry
        // (ld < cols, null base, misaligned base).
        (void)TileView<typename Fam::C>(c, m, n, ldc,
                                        alignof(typename Fam::C),
                                        "micro-kernel C tile");
        if (steps <= 0) {
            checked::fail("bad-tile", "micro-kernel depth must be positive");
        }
        if (m > k.mr || n > k.nr) {
            checked::fail("bad-tile", "micro-kernel tile exceeds mr x nr");
        }
    }
#else
    (void)scratch;
#endif
    if (m == k.mr && n == k.nr) {
        k.fn(steps, a, b, c, ldc, accumulate);
    } else if (m > 0 && n > 0) {
        k.edge(steps, a, b, c, ldc, m, n, accumulate);
    }
}

}  // namespace cake
