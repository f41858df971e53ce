// Scalar u8 x s8 -> s32 micro-kernel (exact over the full input range),
// and the portable k-quad sliver packers that the scalar, AVX2 and VNNI
// int8 entries name. Packed layouts: kernel/kernel_int8.hpp.
#include <cstdint>
#include <cstring>

#include "kernel/microkernel.hpp"

namespace cake {
namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 4;

/// The edge entry: the full tile is computed, and only its live m x n
/// corner is stored.
void scalar_int8_edge(index_t kq, const std::uint8_t* a,
                      const std::int8_t* b, std::int32_t* c, index_t ldc,
                      index_t m, index_t n, bool accumulate)
{
    std::int32_t acc[kMr][kNr] = {};
    for (index_t q = 0; q < kq; ++q) {
        const std::uint8_t* aq = a + q * kMr * 4;
        const std::int8_t* bq = b + q * kNr * 4;
        for (index_t i = 0; i < kMr; ++i) {
            for (index_t jj = 0; jj < kNr; ++jj) {
                std::int32_t dot = 0;
                for (index_t j = 0; j < 4; ++j) {
                    dot += static_cast<std::int32_t>(aq[i * 4 + j])
                        * static_cast<std::int32_t>(bq[jj * 4 + j]);
                }
                acc[i][jj] += dot;
            }
        }
    }
    if (accumulate) {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j) c[i * ldc + j] += acc[i][j];
    } else {
        for (index_t i = 0; i < m; ++i)
            for (index_t j = 0; j < n; ++j) c[i * ldc + j] = acc[i][j];
    }
}

void scalar_int8_ukr(index_t kq, const std::uint8_t* a, const std::int8_t* b,
                     std::int32_t* c, index_t ldc, bool accumulate)
{
    scalar_int8_edge(kq, a, b, c, ldc, kMr, kNr, accumulate);
}

/// Whole k-quads of one A sliver: a quad of a live row is one 4-byte
/// word of the source row, so quad q of the sliver is `live` words stored
/// contiguously at out + q * width * 4, then zeros for the dead rows.
/// Rows = 8 fixes live = width = 8 at compile time for full slivers of the
/// 8-row VNNI kernel: the row loop then unrolls and GCC vectorises across
/// quads (about 6% end to end on square_i8 over the runtime count,
/// Rows = 0, which serves every other sliver).
template <index_t Rows>
void copy_a_words(const std::uint8_t* __restrict src, index_t ld,
                  index_t live, index_t quads, index_t width,
                  std::uint8_t* __restrict out)
{
    const index_t n = Rows > 0 ? Rows : live;
    const index_t rows = Rows > 0 ? Rows : width;
    for (index_t q = 0; q < quads; ++q) {
        std::uint8_t* quad = out + q * rows * 4;
        for (index_t i = 0; i < n; ++i) {
            std::memcpy(quad + i * 4, src + i * ld + 4 * q, 4);
        }
        for (index_t i = n; i < rows; ++i) std::memset(quad + i * 4, 0, 4);
    }
}

}  // namespace

void gather_quads_scalar(const std::uint8_t* src, index_t ld, index_t live,
                         index_t k, index_t width, std::uint8_t* out)
{
    const index_t full_quads = k / 4;
    if (live == width && width == 8) {
        copy_a_words<8>(src, ld, live, full_quads, width, out);
    } else {
        copy_a_words<0>(src, ld, live, full_quads, width, out);
    }
    if (full_quads * 4 == k) return;
    std::uint8_t* quad = out + full_quads * width * 4;
    for (index_t i = 0; i < width; ++i) {
        for (index_t d = 0; d < 4; ++d) {
            const index_t kk = 4 * full_quads + d;
            quad[i * 4 + d] =
                i < live && kk < k ? src[i * ld + kk] : std::uint8_t{0};
        }
    }
}

void copy_quads_scalar(const std::int8_t* src, index_t ld, index_t live,
                       index_t k, index_t width, std::int8_t* out)
{
    const index_t quads = (k + 3) / 4;
    for (index_t q = 0; q < quads; ++q) {
        std::int8_t* quad = out + q * width * 4;
        const index_t k0 = 4 * q;
        if (live == width && k0 + 4 <= k) {
            // A full quad of a full sliver: interleave four source rows.
            // The packed sliver never aliases B, and saying so lets GCC
            // drop its per-quad overlap checks (about twice the speed).
            const std::int8_t* __restrict r0 = src + k0 * ld;
            const std::int8_t* __restrict r1 = r0 + ld;
            const std::int8_t* __restrict r2 = r1 + ld;
            const std::int8_t* __restrict r3 = r2 + ld;
            std::int8_t* __restrict o = quad;
            for (index_t j = 0; j < width; ++j) {
                o[j * 4 + 0] = r0[j];
                o[j * 4 + 1] = r1[j];
                o[j * 4 + 2] = r2[j];
                o[j * 4 + 3] = r3[j];
            }
            continue;
        }
        for (index_t j = 0; j < width; ++j) {
            for (index_t d = 0; d < 4; ++d) {
                const index_t kk = k0 + d;
                quad[j * 4 + d] =
                    j < live && kk < k ? src[kk * ld + j] : std::int8_t{0};
            }
        }
    }
}

MicroKernelT<U8S8S32> scalar_int8_microkernel()
{
    return {"scalar_int8_4x4", Isa::kScalar, kMr, kNr, &scalar_int8_ukr,
            &scalar_int8_edge, &gather_quads_scalar, &copy_quads_scalar,
            /*k_granule=*/4};
}

}  // namespace cake
