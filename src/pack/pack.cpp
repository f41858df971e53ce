#include "pack/pack.hpp"
#include "pack/pack_int8.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/checked.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

// Every routine below (the float/double templates and the int8 k-quad
// packers) is written against cake::Span: in CAKE_CHECKED builds each
// sliver/column slice and element store is bounds-checked against the
// packed-panel capacity contract (and source reads against the extent the
// lda/ldb contract implies); in release builds Span<T> is T* and the code
// compiles to exactly the raw pointer arithmetic it always was.

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

/// Whole k-quads of one int8 A sliver: a quad of a live row is one 4-byte
/// word of the source row, so quad q of the sliver is `live` words stored
/// contiguously at out + q * mr * 4, then zeros for the dead rows. Returns
/// the OR of every word copied. Rows = 8 fixes live = mr = 8 at compile
/// time for full slivers of the 8-row kernel: the row loop then unrolls
/// and GCC vectorises across quads (about 6% end to end on square_i8 over
/// the runtime count, Rows = 0, which serves every other sliver).
template <index_t Rows>
std::uint32_t copy_a_quads(const std::uint8_t* __restrict src, index_t lda,
                           index_t live, index_t quads, index_t mr,
                           std::uint8_t* __restrict out)
{
    const index_t n = Rows > 0 ? Rows : live;
    const index_t rows = Rows > 0 ? Rows : mr;
    std::uint32_t seen = 0;
    for (index_t q = 0; q < quads; ++q) {
        std::uint8_t* quad = out + q * rows * 4;
        for (index_t i = 0; i < n; ++i) {
            std::uint32_t word;
            std::memcpy(&word, src + i * lda + 4 * q, 4);
            seen |= word;
            std::memcpy(quad + i * 4, &word, 4);
        }
        for (index_t i = n; i < rows; ++i) std::memset(quad + i * 4, 0, 4);
    }
    return seen;
}

}  // namespace

template <typename T>
void pack_a_panel(const T* a, index_t lda, index_t m, index_t k, index_t mr,
                  T* out)
{
    CAKE_CHECK(m >= 0 && k >= 0 && mr > 0 && lda >= k);
    note_pack(/*is_a=*/true, m, k, sizeof(T));
    const index_t slivers = ceil_div(m, mr);
    Span<T> out_sp = make_span(
        out, static_cast<std::size_t>(packed_a_size(m, k, mr)),
        "packed-A panel");
    Span<const T> a_sp = make_span(a, strided_extent(m, k, lda), "A block");
    for (index_t s = 0; s < slivers; ++s) {
        Span<T> dst = span_slice(out_sp, s * mr * k, mr * k);
        const index_t row0 = s * mr;
        const index_t live = std::min(mr, m - row0);
        for (index_t p = 0; p < k; ++p) {
            Span<T> col = span_slice(dst, p * mr, mr);
            Span<const T> src = span_slice(
                a_sp, row0 * lda + p, (live - 1) * lda + 1);
            index_t i = 0;
            for (; i < live; ++i) col[i] = src[i * lda];
            for (; i < mr; ++i) col[i] = T(0);
        }
    }
}

template <typename T>
void pack_a_panel_transposed(const T* a, index_t lda, index_t m, index_t k,
                             index_t mr, T* out)
{
    // Source is k x m (row-major, lda >= m): element (i, p) of the logical
    // A block reads a[p * lda + i], which is unit-stride in i — the
    // transposed pack is actually the cheap direction for A.
    CAKE_CHECK(m >= 0 && k >= 0 && mr > 0 && lda >= m);
    note_pack(/*is_a=*/true, m, k, sizeof(T));
    const index_t slivers = ceil_div(m, mr);
    Span<T> out_sp = make_span(
        out, static_cast<std::size_t>(packed_a_size(m, k, mr)),
        "packed-A panel (transposed source)");
    Span<const T> a_sp =
        make_span(a, strided_extent(k, m, lda), "A^T block");
    for (index_t s = 0; s < slivers; ++s) {
        Span<T> dst = span_slice(out_sp, s * mr * k, mr * k);
        const index_t row0 = s * mr;
        const index_t live = std::min(mr, m - row0);
        for (index_t p = 0; p < k; ++p) {
            Span<T> col = span_slice(dst, p * mr, mr);
            Span<const T> src = span_slice(a_sp, p * lda + row0, live);
            std::memcpy(span_data(col), span_data(src),
                        static_cast<std::size_t>(live) * sizeof(T));
            std::fill(span_data(col) + live, span_data(col) + mr, T(0));
        }
    }
}

template <typename T>
void pack_b_panel(const T* b, index_t ldb, index_t k, index_t n, index_t nr,
                  T* out)
{
    CAKE_CHECK(k >= 0 && n >= 0 && nr > 0 && ldb >= n);
    note_pack(/*is_a=*/false, k, n, sizeof(T));
    const index_t slivers = ceil_div(n, nr);
    Span<T> out_sp = make_span(
        out, static_cast<std::size_t>(packed_b_size(k, n, nr)),
        "packed-B panel");
    Span<const T> b_sp = make_span(b, strided_extent(k, n, ldb), "B block");
    for (index_t t = 0; t < slivers; ++t) {
        Span<T> dst = span_slice(out_sp, t * nr * k, nr * k);
        const index_t col0 = t * nr;
        const index_t live = std::min(nr, n - col0);
        for (index_t p = 0; p < k; ++p) {
            Span<T> row = span_slice(dst, p * nr, nr);
            Span<const T> src = span_slice(b_sp, p * ldb + col0, live);
            if (live == nr) {
                std::memcpy(span_data(row), span_data(src),
                            static_cast<std::size_t>(nr) * sizeof(T));
            } else {
                std::memcpy(span_data(row), span_data(src),
                            static_cast<std::size_t>(live) * sizeof(T));
                std::fill(span_data(row) + live, span_data(row) + nr, T(0));
            }
        }
    }
}

template <typename T>
void pack_b_panel_transposed(const T* b, index_t ldb, index_t k, index_t n,
                             index_t nr, T* out)
{
    // Source is n x k (row-major, ldb >= k): element (p, j) of the logical
    // B block reads b[j * ldb + p] — strided in j, the expensive direction.
    CAKE_CHECK(k >= 0 && n >= 0 && nr > 0 && ldb >= k);
    note_pack(/*is_a=*/false, k, n, sizeof(T));
    const index_t slivers = ceil_div(n, nr);
    Span<T> out_sp = make_span(
        out, static_cast<std::size_t>(packed_b_size(k, n, nr)),
        "packed-B panel (transposed source)");
    Span<const T> b_sp =
        make_span(b, strided_extent(n, k, ldb), "B^T block");
    for (index_t t = 0; t < slivers; ++t) {
        Span<T> dst = span_slice(out_sp, t * nr * k, nr * k);
        const index_t col0 = t * nr;
        const index_t live = std::min(nr, n - col0);
        for (index_t p = 0; p < k; ++p) {
            Span<T> row = span_slice(dst, p * nr, nr);
            Span<const T> src = span_slice(
                b_sp, col0 * ldb + p, live > 0 ? (live - 1) * ldb + 1 : 0);
            index_t j = 0;
            for (; j < live; ++j) row[j] = src[j * ldb];
            for (; j < nr; ++j) row[j] = T(0);
        }
    }
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
    CAKE_CHECK(m >= 0 && k >= 0 && mr > 0 && lda >= k);
    note_pack(/*is_a=*/true, m, k, sizeof(std::uint8_t));
    const index_t slivers = ceil_div(m, mr);
    const index_t kq = int8_kq(k);
    const index_t full_quads = k / 4;
    if (kq == 0) return;  // the packed panel is empty
    Span<std::uint8_t> out_sp = make_span(
        out, static_cast<std::size_t>(packed_a_int8_size(m, k, mr)),
        "packed-A int8 panel");
    Span<const std::uint8_t> a_sp =
        make_span(a, strided_extent(m, k, lda), "A int8 block");
    // OR of every A byte read: bit 7 of any byte means a value > 127.
    std::uint32_t seen = 0;
    for (index_t s = 0; s < slivers; ++s) {
        Span<std::uint8_t> dst = span_slice(out_sp, s * mr * kq * 4,
                                            mr * kq * 4);
        const index_t row0 = s * mr;
        const index_t live = std::min(mr, m - row0);
        Span<const std::uint8_t> rows =
            span_slice(a_sp, row0 * lda, (live - 1) * lda + k);
        const std::uint8_t* src = span_data(
            span_slice(rows, 0, (live - 1) * lda + 4 * full_quads));
        std::uint8_t* whole = span_data(
            span_slice(dst, 0, full_quads * mr * 4));
        if (live == mr && mr == 8) {
            seen |= copy_a_quads<8>(src, lda, live, full_quads, mr, whole);
        } else {
            seen |= copy_a_quads<0>(src, lda, live, full_quads, mr, whole);
        }
        if (full_quads < kq) {
            Span<std::uint8_t> quad =
                span_slice(dst, full_quads * mr * 4, mr * 4);
            for (index_t i = 0; i < mr; ++i) {
                for (index_t j = 0; j < 4; ++j) {
                    const index_t kk = 4 * full_quads + j;
                    quad[i * 4 + j] = (i < live && kk < k)
                        ? rows[i * lda + kk]
                        : std::uint8_t{0};
                    seen |= quad[i * 4 + j];
                }
            }
        }
    }
    if ((seen & 0x80808080u) != 0) {
        throw Error(
            "[I8_A_RANGE] int8 multiply with an A value above 127: the u8 A "
            "operand must lie in [0, 127] (quantize_unsigned maps into it)");
    }
}

void pack_b_panel_int8(const std::int8_t* b, index_t ldb, index_t k,
                       index_t n, index_t nr, std::int8_t* out)
{
    CAKE_CHECK(k >= 0 && n >= 0 && nr > 0 && ldb >= n);
    note_pack(/*is_a=*/false, k, n, sizeof(std::int8_t));
    const index_t slivers = ceil_div(n, nr);
    const index_t kq = int8_kq(k);
    Span<std::int8_t> out_sp = make_span(
        out, static_cast<std::size_t>(packed_b_int8_size(k, n, nr)),
        "packed-B int8 panel");
    Span<const std::int8_t> b_sp =
        make_span(b, strided_extent(k, n, ldb), "B int8 block");
    for (index_t t = 0; t < slivers; ++t) {
        Span<std::int8_t> dst = span_slice(out_sp, t * nr * kq * 4,
                                           nr * kq * 4);
        const index_t col0 = t * nr;
        const index_t live = std::min(nr, n - col0);
        for (index_t q = 0; q < kq; ++q) {
            Span<std::int8_t> quad = span_slice(dst, q * nr * 4, nr * 4);
            const index_t k0 = 4 * q;
            if (live == nr && k0 + 4 <= k) {
                // A full quad of a full sliver: interleave four source
                // rows. The packed panel never aliases B, and saying so
                // lets GCC drop its per-quad overlap checks (about twice
                // the speed).
                const std::int8_t* __restrict r0 =
                    span_data(span_slice(b_sp, k0 * ldb + col0, nr));
                const std::int8_t* __restrict r1 =
                    span_data(span_slice(b_sp, (k0 + 1) * ldb + col0, nr));
                const std::int8_t* __restrict r2 =
                    span_data(span_slice(b_sp, (k0 + 2) * ldb + col0, nr));
                const std::int8_t* __restrict r3 =
                    span_data(span_slice(b_sp, (k0 + 3) * ldb + col0, nr));
                std::int8_t* __restrict o = span_data(quad);
                for (index_t jj = 0; jj < nr; ++jj) {
                    o[jj * 4 + 0] = r0[jj];
                    o[jj * 4 + 1] = r1[jj];
                    o[jj * 4 + 2] = r2[jj];
                    o[jj * 4 + 3] = r3[jj];
                }
                continue;
            }
            for (index_t jj = 0; jj < nr; ++jj) {
                for (index_t j = 0; j < 4; ++j) {
                    const index_t kk = k0 + j;
                    quad[jj * 4 + j] = (jj < live && kk < k)
                        ? b_sp[kk * ldb + col0 + jj]
                        : std::int8_t{0};
                }
            }
        }
    }
}

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
