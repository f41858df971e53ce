// 8x32 AVX-512 VNNI u8 x s8 -> s32 micro-kernel. One vpdpbusd per
// accumulator per k-quad: acc += dot4(A quad, B quad) in each i32 lane, so
// there is no int16 stage and the kernel is exact over the full u8 x s8
// range. 16 zmm accumulators + 1 broadcast + 2 B loads = 19 of 32.
#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 8;
constexpr index_t kNr = 32;

/// One k-quad of one row: broadcast the row's 4 A bytes (one i32 word)
/// and fold them into both 16-column accumulators.
inline void dot_row(__m512i& lo, __m512i& hi, const std::uint8_t* a4,
                    __m512i b0, __m512i b1)
{
    std::int32_t word;
    std::memcpy(&word, a4, sizeof word);
    const __m512i ai = _mm512_set1_epi32(word);
    lo = _mm512_dpbusd_epi32(lo, ai, b0);
    hi = _mm512_dpbusd_epi32(hi, ai, b1);
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

}  // namespace

MicroKernelT<U8S8S32> avx512_int8_microkernel()
{
    return {"avx512_vnni_int8_8x32", Isa::kAvx512, kMr, kNr,
            &avx512_vnni_int8_ukr};
}

}  // namespace cake
