#include "core/cake_gemm_int8.hpp"

#include <vector>

#include "common/error.hpp"

namespace cake {

void cake_gemm_s8u8s32(const std::uint8_t* a, const std::int8_t* b,
                       std::int32_t* c, index_t m, index_t n, index_t k,
                       ThreadPool& pool, const CakeOptions& options,
                       CakeStats* stats)
{
    CakeGemmInt8 gemm(pool, options);
    gemm.multiply(a, k, b, n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

Matrix cake_qgemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                  const CakeOptions& options)
{
    CAKE_CHECK(a.cols() == b.rows());
    const index_t m = a.rows();
    const index_t k = a.cols();
    const index_t n = b.cols();

    AlignedBuffer<std::uint8_t> aq(static_cast<std::size_t>(m * k));
    AlignedBuffer<std::int8_t> bq(static_cast<std::size_t>(k * n));
    const QuantParams pa = quantize_unsigned(a.data(), m * k, aq.data());
    const QuantParams pb = quantize_signed(b.data(), k * n, bq.data());

    AlignedBuffer<std::int32_t> acc(static_cast<std::size_t>(m * n), true);
    cake_gemm_s8u8s32(aq.data(), bq.data(), acc.data(), m, n, k, pool,
                      options);

    std::vector<std::int64_t> colsums(static_cast<std::size_t>(n));
    int8_column_sums(bq.data(), n, k, n, colsums.data());

    Matrix out(m, n, /*zero=*/false);
    dequantize_gemm(acc.data(), n, m, n, pa, pb, colsums.data(), out.data(),
                    n);
    return out;
}

}  // namespace cake
