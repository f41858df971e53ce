// 8x32 AVX-512 VNNI u8 x s8 -> s32 micro-kernel. One vpdpbusd per
// accumulator per k-quad: acc += dot4(A quad, B quad) in each i32 lane, so
// there is no int16 stage and the kernel is exact over the full u8 x s8
// range. 16 zmm accumulators + 1 broadcast + 2 B loads = 19 of 32. The
// edge entry is the same body with M live rows and one or two 16-column
// halves (a table indexed by m - 1), and the s32 C tile masked by
// __mmask16; a one-half tile folds two k-quads per step.
#include <immintrin.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 8;
constexpr index_t kNr = 32;

/// The lowest n lanes of a 16-lane mask (n clamped to [0, 16]).
__mmask16 lanes_mask(index_t n)
{
    if (n >= 16) return static_cast<__mmask16>(0xFFFF);
    if (n <= 0) return 0;
    return static_cast<__mmask16>((1u << n) - 1u);
}

/// A row's 4 A bytes of one k-quad (one i32 word) in every lane.
inline __m512i quad(const std::uint8_t* a4)
{
    std::int32_t word;
    std::memcpy(&word, a4, sizeof word);
    return _mm512_set1_epi32(word);
}

/// One k-quad of one row: broadcast the row's 4 A bytes (one i32 word)
/// and fold them into both 16-column accumulators.
inline void dot_row(__m512i& lo, __m512i& hi, const std::uint8_t* a4,
                    __m512i b0, __m512i b1)
{
    const __m512i ai = quad(a4);
    lo = _mm512_dpbusd_epi32(lo, ai, b0);
    hi = _mm512_dpbusd_epi32(hi, ai, b1);
}

/// One step of an edge row. Two: dot_row on the k-quad at a4. Otherwise
/// only the low 16 columns are live, and a step folds two k-quads into
/// lo: the one at a4 against b0 and the one at a4_next against b1. The
/// second product starts from zero, so the row's dependency chain is one
/// vpdpbusd and one vpaddd per two k-quads: a narrow tile has too few rows
/// to hide vpdpbusd's latency behind one chain per row.
template <bool Two>
inline void edge_dot(__m512i& lo, __m512i& hi, const std::uint8_t* a4,
                     const std::uint8_t* a4_next, __m512i b0, __m512i b1)
{
    if constexpr (Two) {
        dot_row(lo, hi, a4, b0, b1);
    } else {
        const __m512i t =
            _mm512_dpbusd_epi32(_mm512_setzero_si512(), quad(a4_next), b1);
        lo = _mm512_add_epi32(_mm512_dpbusd_epi32(lo, quad(a4), b0), t);
    }
}

inline void store_row(__m512i lo, __m512i hi, std::int32_t* ci,
                      bool accumulate)
{
    if (accumulate) {
        lo = _mm512_add_epi32(lo, _mm512_loadu_si512(ci));
        hi = _mm512_add_epi32(hi, _mm512_loadu_si512(ci + 16));
    }
    _mm512_storeu_si512(ci, lo);
    _mm512_storeu_si512(ci + 16, hi);
}

// The accumulators are named locals, not an __m512i array: GCC 12 -O3
// keeps an array's loop-carried values in one register set and computes
// each vpdpbusd in another, adding a zmm move per accumulator per k-quad
// (about half the kernel's speed). Named locals compile to 16 vpdpbusd,
// 8 broadcasts and 2 loads per k-quad.
void avx512_vnni_int8_ukr(index_t kq, const std::uint8_t* a,
                          const std::int8_t* b, std::int32_t* c,
                          index_t ldc, bool accumulate)
{
    __m512i c0l = _mm512_setzero_si512(), c0h = c0l, c1l = c0l, c1h = c0l;
    __m512i c2l = c0l, c2h = c0l, c3l = c0l, c3h = c0l;
    __m512i c4l = c0l, c4h = c0l, c5l = c0l, c5h = c0l;
    __m512i c6l = c0l, c6h = c0l, c7l = c0l, c7h = c0l;

    for (index_t q = 0; q < kq; ++q) {
        const __m512i b0 = _mm512_load_si512(b + q * kNr * 4);
        const __m512i b1 = _mm512_load_si512(b + q * kNr * 4 + 64);
        const std::uint8_t* aq = a + q * kMr * 4;
        dot_row(c0l, c0h, aq + 0, b0, b1);
        dot_row(c1l, c1h, aq + 4, b0, b1);
        dot_row(c2l, c2h, aq + 8, b0, b1);
        dot_row(c3l, c3h, aq + 12, b0, b1);
        dot_row(c4l, c4h, aq + 16, b0, b1);
        dot_row(c5l, c5h, aq + 20, b0, b1);
        dot_row(c6l, c6h, aq + 24, b0, b1);
        dot_row(c7l, c7h, aq + 28, b0, b1);
    }

    store_row(c0l, c0h, c + 0 * ldc, accumulate);
    store_row(c1l, c1h, c + 1 * ldc, accumulate);
    store_row(c2l, c2h, c + 2 * ldc, accumulate);
    store_row(c3l, c3h, c + 3 * ldc, accumulate);
    store_row(c4l, c4h, c + 4 * ldc, accumulate);
    store_row(c5l, c5h, c + 5 * ldc, accumulate);
    store_row(c6l, c6h, c + 6 * ldc, accumulate);
    store_row(c7l, c7h, c + 7 * ldc, accumulate);
}

/// Write one edge row: columns [0, 16) from lo and [16, 32) from hi
/// masked to `live` when Two, else only lo masked to `live`.
template <bool Two>
inline void store_live(__m512i lo, __m512i hi, std::int32_t* ci,
                       __mmask16 live, bool accumulate)
{
    if constexpr (Two) {
        if (accumulate) lo = _mm512_add_epi32(lo, _mm512_loadu_si512(ci));
        _mm512_storeu_si512(ci, lo);
        ci += 16;
        lo = hi;
    }
    if (accumulate)
        lo = _mm512_add_epi32(lo, _mm512_maskz_loadu_epi32(live, ci));
    _mm512_mask_storeu_epi32(ci, live, lo);
}

/// The full kernel's body on M live rows (named locals, as above; rows
/// past M are compiled out), on both 16-column halves when Two, else on
/// the low half two k-quads per step (edge_dot).
template <int M, bool Two>
void vnni_edge_body(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                    std::int32_t* c, index_t ldc, index_t n, bool accumulate)
{
    __m512i c0l = _mm512_setzero_si512(), c0h = c0l, c1l = c0l, c1h = c0l;
    __m512i c2l = c0l, c2h = c0l, c3l = c0l, c3h = c0l;
    __m512i c4l = c0l, c4h = c0l, c5l = c0l, c5h = c0l;
    __m512i c6l = c0l, c6h = c0l, c7l = c0l, c7h = c0l;

    // One step of every live row (edge_dot).
    auto rows = [&](const std::uint8_t* aq, const std::uint8_t* an,
                    __m512i b0, __m512i b1) {
        if constexpr (M > 0) edge_dot<Two>(c0l, c0h, aq + 0, an + 0, b0, b1);
        if constexpr (M > 1) edge_dot<Two>(c1l, c1h, aq + 4, an + 4, b0, b1);
        if constexpr (M > 2) edge_dot<Two>(c2l, c2h, aq + 8, an + 8, b0, b1);
        if constexpr (M > 3) edge_dot<Two>(c3l, c3h, aq + 12, an + 12, b0, b1);
        if constexpr (M > 4) edge_dot<Two>(c4l, c4h, aq + 16, an + 16, b0, b1);
        if constexpr (M > 5) edge_dot<Two>(c5l, c5h, aq + 20, an + 20, b0, b1);
        if constexpr (M > 6) edge_dot<Two>(c6l, c6h, aq + 24, an + 24, b0, b1);
        if constexpr (M > 7) edge_dot<Two>(c7l, c7h, aq + 28, an + 28, b0, b1);
    };
    if constexpr (Two) {
        for (index_t q = 0; q < kq; ++q) {
            const std::int8_t* bq = b + q * kNr * 4;
            const std::uint8_t* aq = a + q * kMr * 4;
            rows(aq, aq, _mm512_load_si512(bq), _mm512_load_si512(bq + 64));
        }
    } else {
        // One live half: two k-quads per step. An odd last k-quad pairs
        // with a zero B.
        index_t q = 0;
        for (; q + 1 < kq; q += 2) {
            const std::int8_t* bq = b + q * kNr * 4;
            const std::uint8_t* aq = a + q * kMr * 4;
            rows(aq, aq + kMr * 4, _mm512_load_si512(bq),
                 _mm512_load_si512(bq + kNr * 4));
        }
        if (q < kq) {
            const std::uint8_t* aq = a + q * kMr * 4;
            rows(aq, aq, _mm512_load_si512(b + q * kNr * 4),
                 _mm512_setzero_si512());
        }
    }

    const __mmask16 live = lanes_mask(Two ? n - 16 : n);
    if constexpr (M > 0)
        store_live<Two>(c0l, c0h, c + 0 * ldc, live, accumulate);
    if constexpr (M > 1)
        store_live<Two>(c1l, c1h, c + 1 * ldc, live, accumulate);
    if constexpr (M > 2)
        store_live<Two>(c2l, c2h, c + 2 * ldc, live, accumulate);
    if constexpr (M > 3)
        store_live<Two>(c3l, c3h, c + 3 * ldc, live, accumulate);
    if constexpr (M > 4)
        store_live<Two>(c4l, c4h, c + 4 * ldc, live, accumulate);
    if constexpr (M > 5)
        store_live<Two>(c5l, c5h, c + 5 * ldc, live, accumulate);
    if constexpr (M > 6)
        store_live<Two>(c6l, c6h, c + 6 * ldc, live, accumulate);
    if constexpr (M > 7)
        store_live<Two>(c7l, c7h, c + 7 * ldc, live, accumulate);
}

using EdgeBody = void (*)(index_t, const std::uint8_t*, const std::int8_t*,
                          std::int32_t*, index_t, index_t, bool);

template <std::size_t... I>
constexpr std::array<std::array<EdgeBody, 2>, sizeof...(I)> edge_table(
    std::index_sequence<I...>)
{
    return {{{&vnni_edge_body<static_cast<int>(I) + 1, false>,
              &vnni_edge_body<static_cast<int>(I) + 1, true>}...}};
}

void avx512_vnni_int8_edge(index_t kq, const std::uint8_t* a,
                           const std::int8_t* b, std::int32_t* c,
                           index_t ldc, index_t m, index_t n, bool accumulate)
{
    static constexpr auto kTable =
        edge_table(std::make_index_sequence<static_cast<std::size_t>(kMr)>{});
    kTable[static_cast<std::size_t>(m - 1)][n > 16 ? 1 : 0](kq, a, b, c, ldc,
                                                            n, accumulate);
}

}  // namespace

MicroKernelT<U8S8S32> avx512_int8_microkernel()
{
    return {"avx512_vnni_int8_8x32", Isa::kAvx512, kMr, kNr,
            &avx512_vnni_int8_ukr, &avx512_vnni_int8_edge,
            &gather_quads_scalar, &copy_quads_scalar, /*k_granule=*/4};
}

}  // namespace cake
