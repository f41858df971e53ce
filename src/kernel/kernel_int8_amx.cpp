// 32x32 AMX u8 x s8 -> s32 micro-kernel. C is a 2 x 2 grid of 16 x 16 i32
// tiles (tmm0-3), A two 16-row tiles of 64 K bytes per row (tmm4-5) and B
// two 16-column tiles of 16 k-quads (tmm6-7): eight tiles, the whole tile
// file. One 64-deep K chunk is four tdpbusd. tdpbusd is exact over the
// full u8 x s8 range, like vpdpbusd.
//
// Packed layout (granule 64, kernel/microkernel.hpp): an A sliver holds,
// per 64-deep K chunk, 32 rows of 64 contiguous K bytes, so one A tile is
// 1 KiB at stride 64. B keeps the k-quad layout of the other int8
// entries, padded to 64 deep: a chunk's 16 k-quads of 32 columns are one
// 128-byte row each, and the two B tiles are its 64-byte halves at stride
// nr * 4. `steps` counts k-quads; a K tail below a whole chunk reads the
// zeros the packers wrote.
//
// Each thread loads the tile configuration once, before its first tile
// (ldtilecfg is per thread); cpu_features() has requested tile data for
// the process. The edge entry computes the whole tile into a stack tile
// and stores its live m x n corner with AVX-512 masks.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 32;
constexpr index_t kNr = 32;
constexpr index_t kChunk = 64;  ///< K bytes of one A tile row
constexpr index_t kTileRows = 16;
constexpr index_t kQuadsPerChunk = kChunk / 4;

/// ldtilecfg's 64-byte operand, palette 1: every tile 16 rows x 64 bytes.
struct alignas(64) TileConfig {
    std::uint8_t palette = 1;
    std::uint8_t start_row = 0;
    std::uint8_t reserved[14] = {};
    std::uint16_t colsb[16] = {};
    std::uint8_t rows[16] = {};
};

/// Load this thread's tile configuration once. The first call in the
/// process also makes sure tile data was requested (cpu_features()), so
/// a caller that reached the entry without the registry's isa_ok check
/// still runs with the permission where the host grants it.
inline void configure_tiles()
{
    thread_local bool configured = false;
    if (configured) [[likely]] return;
    (void)cpu_features();
    TileConfig cfg;
    for (int t = 0; t < 8; ++t) {
        cfg.colsb[t] = static_cast<std::uint16_t>(kChunk);
        cfg.rows[t] = static_cast<std::uint8_t>(kTileRows);
    }
    _tile_loadconfig(&cfg);
    configured = true;
}

void amx_int8_ukr(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                  std::int32_t* c, index_t ldc, bool accumulate)
{
    configure_tiles();
    const auto c_stride = static_cast<long>(ldc * 4);
    std::int32_t* c10 = c + kTileRows * ldc;
    if (accumulate) {
        _tile_loadd(0, c, c_stride);
        _tile_loadd(1, c + 16, c_stride);
        _tile_loadd(2, c10, c_stride);
        _tile_loadd(3, c10 + 16, c_stride);
    } else {
        _tile_zero(0);
        _tile_zero(1);
        _tile_zero(2);
        _tile_zero(3);
    }
    const index_t chunks = (kq + kQuadsPerChunk - 1) / kQuadsPerChunk;
    for (index_t ch = 0; ch < chunks; ++ch) {
        const std::uint8_t* ac = a + ch * kMr * kChunk;
        const std::int8_t* bc = b + ch * kQuadsPerChunk * kNr * 4;
        _tile_loadd(4, ac, kChunk);
        _tile_loadd(6, bc, kNr * 4);
        _tile_loadd(7, bc + 64, kNr * 4);
        _tile_dpbusd(0, 4, 6);
        _tile_dpbusd(1, 4, 7);
        _tile_loadd(5, ac + kTileRows * kChunk, kChunk);
        _tile_dpbusd(2, 5, 6);
        _tile_dpbusd(3, 5, 7);
    }
    _tile_stored(0, c, c_stride);
    _tile_stored(1, c + 16, c_stride);
    _tile_stored(2, c10, c_stride);
    _tile_stored(3, c10 + 16, c_stride);
}

/// The lowest n lanes of a 16-lane mask (n clamped to [0, 16]).
__mmask16 lanes_mask(index_t n)
{
    if (n >= 16) return static_cast<__mmask16>(0xFFFF);
    if (n <= 0) return 0;
    return static_cast<__mmask16>((1u << n) - 1u);
}

void amx_int8_edge(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                   std::int32_t* c, index_t ldc, index_t m, index_t n,
                   bool accumulate)
{
    alignas(64) std::int32_t tile[kMr * kNr];
    amx_int8_ukr(kq, a, b, tile, kNr, false);
    const __mmask16 lo_mask = lanes_mask(n);
    const __mmask16 hi_mask = lanes_mask(n - 16);
    for (index_t i = 0; i < m; ++i) {
        const std::int32_t* t = tile + i * kNr;
        std::int32_t* ci = c + i * ldc;
        __m512i lo = _mm512_load_si512(t);
        __m512i hi = _mm512_load_si512(t + 16);
        if (accumulate) {
            lo = _mm512_add_epi32(lo, _mm512_maskz_loadu_epi32(lo_mask, ci));
            hi = _mm512_add_epi32(
                hi, _mm512_maskz_loadu_epi32(hi_mask, ci + 16));
        }
        _mm512_mask_storeu_epi32(ci, lo_mask, lo);
        _mm512_mask_storeu_epi32(ci + 16, hi_mask, hi);
    }
}

/// A sliver: per 64-deep chunk, `width` rows of 64 contiguous K bytes;
/// dead rows and K past k are zero. Each source row is read front to
/// back (the hardware prefetcher's stream), its chunks scattered into the
/// sliver at stride width * 64.
void amx_gather_a(const std::uint8_t* src, index_t ld, index_t live,
                  index_t k, index_t width, std::uint8_t* out)
{
    const index_t whole = k / kChunk;
    const index_t tail = k - whole * kChunk;
    const __mmask64 tail_mask = (__mmask64{1} << tail) - 1;
    const index_t stride = width * kChunk;
    for (index_t i = 0; i < live; ++i) {
        const std::uint8_t* row = src + i * ld;
        std::uint8_t* dst = out + i * kChunk;
        for (index_t ch = 0; ch < whole; ++ch) {
            _mm512_storeu_si512(dst + ch * stride,
                                _mm512_loadu_si512(row + ch * kChunk));
        }
        if (tail > 0) {
            _mm512_storeu_si512(
                dst + whole * stride,
                _mm512_maskz_loadu_epi8(tail_mask, row + whole * kChunk));
        }
    }
    const index_t chunks = whole + (tail > 0 ? 1 : 0);
    for (index_t i = live; i < width; ++i) {
        for (index_t ch = 0; ch < chunks; ++ch) {
            _mm512_storeu_si512(out + ch * stride + i * kChunk,
                                _mm512_setzero_si512());
        }
    }
}

/// One whole k-quad of a full 32-column B sliver: interleave four source
/// rows r[d][j] into out[j*4 + d] (128 bytes). Byte then word unpacks
/// interleave within each 128-bit lane, which leaves columns 0-3 | 16-19
/// in u0, 4-7 | 20-23 in u1, 8-11 | 24-27 in u2 and 12-15 | 28-31 in u3;
/// lane permutes put them in column order.
inline void interleave_quad32(const std::int8_t* r0, index_t ld,
                              std::int8_t* out)
{
    auto row = [&](index_t d) {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(r0 + d * ld));
    };
    const __m256i a = row(0), b = row(1), c = row(2), d = row(3);
    const __m256i ab_lo = _mm256_unpacklo_epi8(a, b);
    const __m256i ab_hi = _mm256_unpackhi_epi8(a, b);
    const __m256i cd_lo = _mm256_unpacklo_epi8(c, d);
    const __m256i cd_hi = _mm256_unpackhi_epi8(c, d);
    const __m256i u0 = _mm256_unpacklo_epi16(ab_lo, cd_lo);
    const __m256i u1 = _mm256_unpackhi_epi16(ab_lo, cd_lo);
    const __m256i u2 = _mm256_unpacklo_epi16(ab_hi, cd_hi);
    const __m256i u3 = _mm256_unpackhi_epi16(ab_hi, cd_hi);
    auto* o = reinterpret_cast<__m256i*>(out);
    _mm256_storeu_si256(o + 0, _mm256_permute2x128_si256(u0, u1, 0x20));
    _mm256_storeu_si256(o + 1, _mm256_permute2x128_si256(u2, u3, 0x20));
    _mm256_storeu_si256(o + 2, _mm256_permute2x128_si256(u0, u1, 0x31));
    _mm256_storeu_si256(o + 3, _mm256_permute2x128_si256(u2, u3, 0x31));
}

/// B sliver: the k-quad layout padded to whole 64-deep chunks. A full
/// 32-column sliver interleaves its whole k-quads in registers; the
/// portable packer takes the rest (every quad of a partial sliver, or the
/// k % 4 tail quad), and zeros fill the chunk.
void amx_copy_b(const std::int8_t* src, index_t ld, index_t live, index_t k,
                index_t width, std::int8_t* out)
{
    const index_t whole = live == kNr && width == kNr ? k / 4 : 0;
    for (index_t q = 0; q < whole; ++q) {
        interleave_quad32(src + 4 * q * ld, ld, out + q * kNr * 4);
    }
    copy_quads_scalar(src + 4 * whole * ld, ld, live, k - 4 * whole, width,
                      out + whole * width * 4);
    const index_t written = (k + 3) / 4 * 4;
    const index_t depth = (k + kChunk - 1) / kChunk * kChunk;
    std::memset(out + written * width, 0,
                static_cast<std::size_t>((depth - written) * width));
}

}  // namespace

MicroKernelT<U8S8S32> amx_int8_microkernel()
{
    return {"amx_int8_32x32", Isa::kAmx, kMr, kNr, &amx_int8_ukr,
            &amx_int8_edge, &amx_gather_a, &amx_copy_b,
            /*k_granule=*/kChunk};
}

}  // namespace cake
