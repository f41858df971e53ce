// Scalar u8 x s8 -> s32 micro-kernel (exact over the full input range).
// Packed layouts: kernel/kernel_int8.hpp.
#include <cstdint>

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

}  // namespace

MicroKernelT<U8S8S32> scalar_int8_microkernel()
{
    return {"scalar_int8_4x4", Isa::kScalar, kMr, kNr, &scalar_int8_ukr,
            &scalar_int8_edge};
}

}  // namespace cake
