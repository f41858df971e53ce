#include "pack/pack.hpp"
#include "pack/pack_int8.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/checked.hpp"
#include "common/error.hpp"
#include "kernel/registry.hpp"
#include "obs/metrics.hpp"

// Every routine below is written against cake::Span: in CAKE_CHECKED
// builds each sliver slice is bounds-checked against the packed-panel
// capacity contract (and source reads against the extent the lda/ldb
// contract implies); in release builds Span<T> is T* and the code
// compiles to exactly the raw pointer arithmetic it always was. The
// slivers themselves, of every family, are written by a registry entry's
// packers: the executor's own kernel, or for the panel-level entry points
// the dispatched one (best_microkernel_of, which honours CAKE_FORCE_ISA).

namespace cake {
namespace {

/// Extent in elements of a row-major block argument whose accesses reach
/// at most index (rows - 1) * ld + cols - 1 (zero when the block is empty).
constexpr std::size_t strided_extent(index_t rows, index_t cols, index_t ld)
{
    return rows > 0 && cols > 0
        ? static_cast<std::size_t>((rows - 1) * ld + cols)
        : 0;
}

/// obs counters for the leaf pack routines: panels packed per surface and
/// total source bytes moved. One relaxed flag load when metrics are off.
void note_pack(bool is_a, index_t rows, index_t cols,
               std::size_t elem_bytes)
{
    if (!obs::metrics_enabled()) return;
    static const obs::MetricId a_panels = obs::counter("pack.a_panels");
    static const obs::MetricId b_panels = obs::counter("pack.b_panels");
    static const obs::MetricId bytes = obs::counter("pack.src_bytes");
    obs::counter_add(is_a ? a_panels : b_panels, 1);
    obs::counter_add(bytes, static_cast<std::uint64_t>(rows)
                                * static_cast<std::uint64_t>(cols)
                                * elem_bytes);
}

/// True if any byte of p[0, n) has bit 7 set: a u8 value above 127.
inline bool or_scan_above_127(const std::uint8_t* p, std::size_t n)
{
    std::uint64_t seen = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, p + i, sizeof word);
        seen |= word;
    }
    for (; i < n; ++i) seen |= p[i];
    return (seen & 0x8080808080808080u) != 0;
}

/// or_scan_above_127 compiled for AVX-512: GCC ORs a zmm per load, about
/// 3x the baseline SSE2 loop's rate.
[[gnu::target("avx512f,avx512bw")]] bool or_scan_above_127_avx512(
    const std::uint8_t* p, std::size_t n)
{
    return or_scan_above_127(p, n);
}

/// [I8_A_RANGE]: true if a packed u8 A sliver holds a value above 127.
/// The sliver was just written, so it is read back from L1; with the
/// AVX-512 loop the check costs a few percent of an int8 A pack. (A plain
/// branch, not a target_clones ifunc: the ifunc resolver runs before the
/// thread sanitizer's runtime is up and crashes TSan builds.)
bool any_above_127(const std::uint8_t* p, std::size_t n)
{
    return cpu_features().avx512bw ? or_scan_above_127_avx512(p, n)
                                   : or_scan_above_127(p, n);
}

/// The one sliver walk of every family: cut `lanes` source lanes into
/// ceil(lanes / width) slivers of `width` lanes over `k` K elements, and
/// hand each to the kernel-owned packer `fn` (kernel/microkernel.hpp),
/// which writes it `depth` deep (the entry's packed depth of k). Lane i
/// at depth p of the source is src[i*ld + p] when `lanes_strided`
/// (gather_sliver), else src[p*ld + i] (copy_sliver). Sliver s fills
/// out[s*width*depth, (s+1)*width*depth). A u8 operand is int8 A, whose
/// values must lie in [0, 127] for every kernel (kernel_int8.hpp): each
/// sliver is checked as it is packed, and a value above 127 throws a
/// coded [I8_A_RANGE] Error (`out` is then unspecified).
template <typename T>
void pack_slivers(SliverFnT<T> fn, const T* src, index_t ld,
                  bool lanes_strided, index_t lanes, index_t k, index_t depth,
                  index_t width, T* out, const char* src_what,
                  const char* out_what)
{
    if (k == 0) return;  // the packed panel is empty
    const index_t lane_step = lanes_strided ? ld : 1;
    const index_t depth_step = lanes_strided ? 1 : ld;
    Span<T> out_sp = make_span(
        out, static_cast<std::size_t>(round_up(lanes, width) * depth),
        out_what);
    Span<const T> src_sp = make_span(
        src,
        lanes_strided ? strided_extent(lanes, k, ld)
                      : strided_extent(k, lanes, ld),
        src_what);
    for (index_t s = 0; s < ceil_div(lanes, width); ++s) {
        const index_t lane0 = s * width;
        const index_t live = std::min(width, lanes - lane0);
        Span<T> dst = span_slice(out_sp, s * width * depth, width * depth);
        Span<const T> sliver =
            span_slice(src_sp, lane0 * lane_step,
                       (live - 1) * lane_step + (k - 1) * depth_step + 1);
        fn(span_data(sliver), ld, live, k, width, span_data(dst));
        if constexpr (std::is_same_v<T, std::uint8_t>) {
            if (any_above_127(span_data(dst),
                              static_cast<std::size_t>(width * depth))) {
                throw Error(
                    "[I8_A_RANGE] int8 multiply with an A value above 127: "
                    "the u8 A operand must lie in [0, 127] "
                    "(quantize_unsigned maps into it)");
            }
        }
    }
}

}  // namespace

template <typename F>
void pack_a_slivers(const MicroKernelT<F>& kernel, bool transposed,
                    const typename KernelFamily<F>::A* a, index_t lda,
                    index_t m, index_t k, index_t mr,
                    typename KernelFamily<F>::A* out)
{
    using A = typename KernelFamily<F>::A;
    CAKE_CHECK(m >= 0 && k >= 0 && mr > 0 && lda >= (transposed ? m : k));
    note_pack(/*is_a=*/true, m, k, sizeof(A));
    const index_t depth = kernel.packed_depth(k);
    if constexpr (std::is_same_v<A, typename KernelFamily<F>::B>) {
        if (transposed) {
            // Source is k x m: element (i, p) of the logical A block reads
            // a[p * lda + i], which is unit-stride in i — the transposed
            // pack is actually the cheap direction for A.
            pack_slivers(kernel.copy_sliver, a, lda, /*lanes_strided=*/false,
                         m, k, depth, mr, out, "A^T block",
                         "packed-A panel (transposed source)");
            return;
        }
    } else {
        CAKE_CHECK_MSG(!transposed, "transposed int8 A is not packed");
    }
    pack_slivers(kernel.gather_sliver, a, lda, /*lanes_strided=*/true, m, k,
                 depth, mr, out, "A block", "packed-A panel");
}

template <typename F>
void pack_b_slivers(const MicroKernelT<F>& kernel, bool transposed,
                    const typename KernelFamily<F>::B* b, index_t ldb,
                    index_t k, index_t n, index_t nr,
                    typename KernelFamily<F>::B* out)
{
    using B = typename KernelFamily<F>::B;
    CAKE_CHECK(k >= 0 && n >= 0 && nr > 0 && ldb >= (transposed ? k : n));
    note_pack(/*is_a=*/false, k, n, sizeof(B));
    const index_t depth = kernel.packed_depth(k);
    if constexpr (std::is_same_v<B, typename KernelFamily<F>::A>) {
        if (transposed) {
            // Source is n x k: element (p, j) of the logical B block reads
            // b[j * ldb + p] — strided in j, the expensive direction.
            pack_slivers(kernel.gather_sliver, b, ldb, /*lanes_strided=*/true,
                         n, k, depth, nr, out, "B^T block",
                         "packed-B panel (transposed source)");
            return;
        }
    } else {
        CAKE_CHECK_MSG(!transposed, "transposed int8 B is not packed");
    }
    pack_slivers(kernel.copy_sliver, b, ldb, /*lanes_strided=*/false, n, k,
                 depth, nr, out, "B block", "packed-B panel");
}

template <typename T>
void pack_a_panel(const T* a, index_t lda, index_t m, index_t k, index_t mr,
                  T* out)
{
    pack_a_slivers(best_microkernel_of<T>(), false, a, lda, m, k, mr, out);
}

template <typename T>
void pack_a_panel_transposed(const T* a, index_t lda, index_t m, index_t k,
                             index_t mr, T* out)
{
    pack_a_slivers(best_microkernel_of<T>(), true, a, lda, m, k, mr, out);
}

template <typename T>
void pack_b_panel(const T* b, index_t ldb, index_t k, index_t n, index_t nr,
                  T* out)
{
    pack_b_slivers(best_microkernel_of<T>(), false, b, ldb, k, n, nr, out);
}

template <typename T>
void pack_b_panel_transposed(const T* b, index_t ldb, index_t k, index_t n,
                             index_t nr, T* out)
{
    pack_b_slivers(best_microkernel_of<T>(), true, b, ldb, k, n, nr, out);
}

template <typename T>
void unpack_c_block(const T* cbuf, index_t m, index_t n, T* c, index_t ldc,
                    bool accumulate)
{
    CAKE_CHECK(m >= 0 && n >= 0 && ldc >= n);
    Span<const T> src_sp = make_span(
        cbuf, static_cast<std::size_t>(m) * static_cast<std::size_t>(n),
        "C block buffer");
    Span<T> dst_sp = make_span(c, strided_extent(m, n, ldc), "user C");
    if (accumulate) {
        for (index_t i = 0; i < m; ++i) {
            Span<const T> src = span_slice(src_sp, i * n, n);
            Span<T> dst = span_slice(dst_sp, i * ldc, n);
            for (index_t j = 0; j < n; ++j) dst[j] += src[j];
        }
    } else {
        for (index_t i = 0; i < m; ++i) {
            Span<const T> src = span_slice(src_sp, i * n, n);
            Span<T> dst = span_slice(dst_sp, i * ldc, n);
            std::memcpy(span_data(dst), span_data(src),
                        static_cast<std::size_t>(n) * sizeof(T));
        }
    }
}

template <typename T>
T packed_a_at(const T* packed, index_t m, index_t k, index_t mr, index_t i,
              index_t p)
{
    CAKE_CHECK(i >= 0 && p >= 0 && p < k && i < round_up(m, mr));
    Span<const T> sp = make_span(
        packed, static_cast<std::size_t>(packed_a_size(m, k, mr)),
        "packed-A panel");
    const index_t s = i / mr;
    const index_t ii = i % mr;
    return sp[s * mr * k + p * mr + ii];
}

template <typename T>
T packed_b_at(const T* packed, index_t k, index_t n, index_t nr, index_t p,
              index_t j)
{
    CAKE_CHECK(p >= 0 && p < k && j >= 0 && j < round_up(n, nr));
    Span<const T> sp = make_span(
        packed, static_cast<std::size_t>(packed_b_size(k, n, nr)),
        "packed-B panel");
    const index_t t = j / nr;
    const index_t jj = j % nr;
    return sp[t * nr * k + p * nr + jj];
}

void pack_a_panel_int8(const std::uint8_t* a, index_t lda, index_t m,
                       index_t k, index_t mr, std::uint8_t* out)
{
    pack_a_slivers(best_microkernel_of<U8S8S32>(), false, a, lda, m, k, mr,
                   out);
}

void pack_b_panel_int8(const std::int8_t* b, index_t ldb, index_t k,
                       index_t n, index_t nr, std::int8_t* out)
{
    pack_b_slivers(best_microkernel_of<U8S8S32>(), false, b, ldb, k, n, nr,
                   out);
}

index_t packed_a_int8_size(index_t m, index_t k, index_t mr)
{
    return round_up(m, mr) * best_microkernel_of<U8S8S32>().packed_depth(k);
}

index_t packed_b_int8_size(index_t k, index_t n, index_t nr)
{
    return best_microkernel_of<U8S8S32>().packed_depth(k) * round_up(n, nr);
}

#define CAKE_PACK_SLIVERS(F)                                                \
    template void pack_a_slivers<F>(                                        \
        const MicroKernelT<F>&, bool, const KernelFamily<F>::A*, index_t,   \
        index_t, index_t, index_t, KernelFamily<F>::A*);                    \
    template void pack_b_slivers<F>(                                        \
        const MicroKernelT<F>&, bool, const KernelFamily<F>::B*, index_t,   \
        index_t, index_t, index_t, KernelFamily<F>::B*);
CAKE_PACK_SLIVERS(float)
CAKE_PACK_SLIVERS(double)
CAKE_PACK_SLIVERS(U8S8S32)
#undef CAKE_PACK_SLIVERS

template void pack_a_panel<float>(const float*, index_t, index_t, index_t,
                                  index_t, float*);
template void pack_a_panel<double>(const double*, index_t, index_t, index_t,
                                   index_t, double*);
template void pack_a_panel_transposed<float>(const float*, index_t, index_t,
                                             index_t, index_t, float*);
template void pack_a_panel_transposed<double>(const double*, index_t, index_t,
                                              index_t, index_t, double*);
template void pack_b_panel<float>(const float*, index_t, index_t, index_t,
                                  index_t, float*);
template void pack_b_panel<double>(const double*, index_t, index_t, index_t,
                                   index_t, double*);
template void pack_b_panel_transposed<float>(const float*, index_t, index_t,
                                             index_t, index_t, float*);
template void pack_b_panel_transposed<double>(const double*, index_t, index_t,
                                              index_t, index_t, double*);
template void unpack_c_block<float>(const float*, index_t, index_t, float*,
                                    index_t, bool);
template void unpack_c_block<std::int32_t>(const std::int32_t*, index_t,
                                           index_t, std::int32_t*, index_t,
                                           bool);
template void unpack_c_block<double>(const double*, index_t, index_t, double*,
                                     index_t, bool);
template float packed_a_at<float>(const float*, index_t, index_t, index_t,
                                  index_t, index_t);
template double packed_a_at<double>(const double*, index_t, index_t, index_t,
                                    index_t, index_t);
template float packed_b_at<float>(const float*, index_t, index_t, index_t,
                                  index_t, index_t);
template double packed_b_at<double>(const double*, index_t, index_t, index_t,
                                    index_t, index_t);

}  // namespace cake
