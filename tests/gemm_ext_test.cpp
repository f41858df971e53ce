// Extended GEMM semantics: transposed operands and the BLAS epilogue
// C = alpha*op(A)*op(B) + beta*C, plus the transposed packing routines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "core/fperror.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

Matrix transpose(const Matrix& a)
{
    Matrix t(a.cols(), a.rows());
    for (index_t r = 0; r < a.rows(); ++r)
        for (index_t c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
    return t;
}

CakeOptions small_blocks()
{
    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    return options;
}

TEST(PackTransposed, PackAMatchesUntransposedPack)
{
    Rng rng(31);
    Matrix a(37, 23);  // logical A block m=37, k=23
    a.fill_random(rng);
    const Matrix at = transpose(a);  // stored k x m

    const index_t mr = 6;
    std::vector<float> direct(
        static_cast<std::size_t>(packed_a_size(37, 23, mr)));
    std::vector<float> viat(direct.size());
    pack_a_panel(a.data(), 23, 37, 23, mr, direct.data());
    pack_a_panel_transposed(at.data(), 37, 37, 23, mr, viat.data());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(direct[i], viat[i]) << "i=" << i;
}

TEST(PackTransposed, PackBMatchesUntransposedPack)
{
    Rng rng(32);
    Matrix b(19, 41);  // logical B block k=19, n=41
    b.fill_random(rng);
    const Matrix bt = transpose(b);  // stored n x k

    const index_t nr = 16;
    std::vector<float> direct(
        static_cast<std::size_t>(packed_b_size(19, 41, nr)));
    std::vector<float> viat(direct.size());
    pack_b_panel(b.data(), 41, 19, 41, nr, direct.data());
    pack_b_panel_transposed(bt.data(), 19, 19, 41, nr, viat.data());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(direct[i], viat[i]) << "i=" << i;
}

TEST(TransposeOps, TransposedAMatchesOracle)
{
    Rng rng(33);
    const index_t m = 61, n = 85, k = 47;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix at = transpose(a);  // stored k x m
    const Matrix expected = oracle_gemm(a, b);

    CakeOptions options = small_blocks();
    options.op_a = Op::kTranspose;
    CakeGemm gemm(test_pool(), options);
    Matrix c(m, n);
    gemm.multiply(at.data(), m, b.data(), n, c.data(), n, m, n, k);
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(k));
}

TEST(TransposeOps, TransposedBMatchesOracle)
{
    Rng rng(34);
    const index_t m = 53, n = 77, k = 39;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix bt = transpose(b);  // stored n x k
    const Matrix expected = oracle_gemm(a, b);

    CakeOptions options = small_blocks();
    options.op_b = Op::kTranspose;
    CakeGemm gemm(test_pool(), options);
    Matrix c(m, n);
    gemm.multiply(a.data(), k, bt.data(), k, c.data(), n, m, n, k);
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(k));
}

TEST(TransposeOps, BothTransposedMatchesOracle)
{
    Rng rng(35);
    const index_t m = 44, n = 66, k = 88;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix at = transpose(a);
    const Matrix bt = transpose(b);
    const Matrix expected = oracle_gemm(a, b);

    CakeOptions options = small_blocks();
    options.op_a = Op::kTranspose;
    options.op_b = Op::kTranspose;
    CakeGemm gemm(test_pool(), options);
    Matrix c(m, n);
    gemm.multiply(at.data(), m, bt.data(), k, c.data(), n, m, n, k);
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(k));
}

TEST(TransposeOps, GramMatrixUseCase)
{
    // X^T X — the classic use of a transposed-A GEMM: symmetric output.
    Rng rng(36);
    const index_t rows = 70, cols = 30;
    Matrix x(rows, cols);
    x.fill_random(rng);

    CakeOptions options = small_blocks();
    options.op_a = Op::kTranspose;
    CakeGemm gemm(test_pool(), options);
    Matrix gram(cols, cols);
    gemm.multiply(x.data(), cols, x.data(), cols, gram.data(), cols, cols,
                  cols, rows);

    const Matrix expected = oracle_gemm(transpose(x), x);
    EXPECT_LE(max_abs_diff(gram, expected), gemm_tolerance(rows));
    double asym = 0;
    for (index_t i = 0; i < cols; ++i)
        for (index_t j = 0; j < cols; ++j)
            asym = std::max(asym,
                            std::abs(static_cast<double>(gram.at(i, j))
                                     - gram.at(j, i)));
    EXPECT_LE(asym, 2 * gemm_tolerance(rows));
}

TEST(ScaledEpilogue, UnpackScaledBlockSemantics)
{
    const index_t m = 3, n = 4;
    std::vector<float> cbuf(static_cast<std::size_t>(m * n));
    for (index_t i = 0; i < m * n; ++i)
        cbuf[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    std::vector<float> c(static_cast<std::size_t>(m * n), 10.0f);

    unpack_c_block_scaled(cbuf.data(), m, n, c.data(), n, 2.0f, 0.5f);
    EXPECT_EQ(c[0], 2.0f * 1 + 0.5f * 10);
    EXPECT_EQ(c[11], 2.0f * 12 + 0.5f * 10);

    // beta = 0 must overwrite even NaN garbage.
    std::vector<float> nan_c(static_cast<std::size_t>(m * n),
                             std::nanf(""));
    unpack_c_block_scaled(cbuf.data(), m, n, nan_c.data(), n, 1.0f, 0.0f);
    EXPECT_EQ(nan_c[5], 6.0f);
}

/// Blocks small enough that the epilogue shapes below span several CB
/// blocks in M, N and K (kb >= 2) and end in edge tiles in every
/// dimension, under schedule `kind` with overlap on or off.
CakeOptions multi_block(ScheduleKind kind, CakeExec exec)
{
    CakeOptions options = small_blocks();
    options.kc = 16;
    options.nc = best_microkernel().nr;
    options.schedule = kind;
    options.exec = exec;
    return options;
}

/// Check C = alpha * A * B + beta * C0, written by `gemm` into an m x n
/// window of leading dimension ldc, element by element against the
/// error bound of the plan it ran (core/fperror.hpp) with one more
/// rounding for alpha's multiply. beta == 0 never reads C0; the padding
/// columns past n must come back bit-identical. A cell whose exact result
/// is NaN or infinite (a non-finite operand) must come back the same.
void expect_epilogue_within_plan_bound(const CakeGemm& gemm, const Matrix& a,
                                       const Matrix& b,
                                       const std::vector<float>& c0,
                                       const std::vector<float>& c,
                                       index_t ldc, float alpha, float beta)
{
    const GemmShape shape{a.rows(), b.cols(), a.cols()};
    const PlanErrorBound plan =
        plan_error_bound(shape, gemm.stats().params, gemm.options().schedule,
                         dtype_f32(), beta != 0.0f);
    AccumChain chain = plan.chain;
    ++chain.extra_adds;  // alpha's multiply
    const double rel = bound_for_chain(chain, dtype_f32()).rel_bound;
    std::ostringstream where;
    where << schedule_kind_name(gemm.options().schedule)
          << (gemm.stats().pipelined ? "/pipelined" : "/serial")
          << " kb=" << gemm.stats().grid_kb;
    ASSERT_GE(gemm.stats().grid_kb, 2) << where.str();

    double worst = 0;  // largest error as a fraction of its bound
    for (index_t i = 0; i < shape.m; ++i) {
        for (index_t j = 0; j < ldc; ++j) {
            const auto at = static_cast<std::size_t>(i * ldc + j);
            if (j >= shape.n) {
                ASSERT_EQ(std::memcmp(&c[at], &c0[at], sizeof(float)), 0)
                    << where.str() << ": padding (" << i << ", " << j
                    << ") written";
                continue;
            }
            double ab = 0, mag = 0;
            for (index_t p = 0; p < shape.k; ++p) {
                ab += static_cast<double>(a.at(i, p)) * b.at(p, j);
                mag += std::abs(static_cast<double>(a.at(i, p)) * b.at(p, j));
            }
            double expected = alpha * ab;
            double denom = std::abs(alpha) * mag;
            if (beta != 0.0f) {
                expected += static_cast<double>(beta) * c0[at];
                denom += std::abs(static_cast<double>(beta) * c0[at]);
            }
            if (std::isnan(expected)) {
                ASSERT_TRUE(std::isnan(c[at]))
                    << where.str() << ": (" << i << ", " << j << ") = "
                    << c[at] << ", expected NaN";
                continue;
            }
            if (std::isinf(expected)) {
                ASSERT_EQ(c[at], expected)
                    << where.str() << ": (" << i << ", " << j << ")";
                continue;
            }
            const double err = std::abs(static_cast<double>(c[at]) - expected);
            ASSERT_FALSE(std::isnan(err))
                << where.str() << ": (" << i << ", " << j << ") is NaN";
            if (denom > 0) worst = std::max(worst, err / (rel * denom));
        }
    }
    EXPECT_LE(worst, 1.0) << where.str();
}

TEST(ScaledEpilogue, FullBlasSemantics)
{
    // First-visit beta, beta = 1 on the revisits of non-K-first
    // schedules, alpha at every band write-back and edge tiles that
    // overwrite on a column's first K block, under every schedule with
    // overlap on and off.
    Rng rng(37);
    const index_t m = 72, n = 95, k = 58, ldc = n + 5;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    std::vector<float> c0(static_cast<std::size_t>(m * ldc));
    for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < ldc; ++j)
            c0[static_cast<std::size_t>(i * ldc + j)] =
                0.01f * static_cast<float>(i - j);

    const float alpha = -1.5f;
    const float beta = 0.25f;
    bool revisited = false;
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            std::vector<float> c = c0;
            CakeGemm gemm(test_pool(), multi_block(kind, exec));
            gemm.multiply_scaled(a.data(), k, b.data(), n, c.data(), ldc, m,
                                 n, k, alpha, beta);
            expect_epilogue_within_plan_bound(gemm, a, b, c0, c, ldc, alpha,
                                              beta);
            revisited = revisited || gemm.stats().c_partial_spills > 0;
        }
    }
    EXPECT_TRUE(revisited) << "no schedule wrote a column back twice";
}

TEST(ScaledEpilogue, BetaZeroIgnoresNanGarbage)
{
    // beta = 0 overwrites NaN garbage on a column's first write-back, and
    // revisits (beta = 1) add onto what the first one wrote, never onto
    // the garbage.
    Rng rng(38);
    const index_t m = 25, n = 33, k = 17, ldc = n + 3;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const std::vector<float> c0(static_cast<std::size_t>(m * ldc),
                                std::nanf(""));

    bool revisited = false;
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            std::vector<float> c = c0;
            CakeGemm gemm(test_pool(), multi_block(kind, exec));
            gemm.multiply_scaled(a.data(), k, b.data(), n, c.data(), ldc, m,
                                 n, k, 1.0f, 0.0f);
            expect_epilogue_within_plan_bound(gemm, a, b, c0, c, ldc, 1.0f,
                                              0.0f);
            revisited = revisited || gemm.stats().c_partial_spills > 0;
        }
    }
    EXPECT_TRUE(revisited) << "no schedule wrote a column back twice";
}

TEST(ScaledEpilogue, NonFinitePropagatesWithBetaNonzero)
{
    // beta != 0 reads C0, so a NaN or +Inf there must survive the first
    // write-back and every revisit; a NaN in A, entering at an inner K
    // block, must poison its whole row. The helper checks those cells
    // against their exact non-finite result, every other cell against
    // the plan's bound.
    Rng rng(40);
    const index_t m = 72, n = 95, k = 58, ldc = n + 5;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    a.at(41, 37) = std::nanf("");
    std::vector<float> c0(static_cast<std::size_t>(m * ldc));
    for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < ldc; ++j)
            c0[static_cast<std::size_t>(i * ldc + j)] =
                0.01f * static_cast<float>(i - j);
    c0[static_cast<std::size_t>(3 * ldc + 90)] = std::nanf("");
    c0[static_cast<std::size_t>(70 * ldc + 17)] =
        std::numeric_limits<float>::infinity();

    const float alpha = -1.5f;
    const float beta = 0.25f;
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            std::vector<float> c = c0;
            CakeGemm gemm(test_pool(), multi_block(kind, exec));
            gemm.multiply_scaled(a.data(), k, b.data(), n, c.data(), ldc, m,
                                 n, k, alpha, beta);
            expect_epilogue_within_plan_bound(gemm, a, b, c0, c, ldc, alpha,
                                              beta);
        }
    }
}

TEST(ScaledEpilogue, AlphaZeroScalesCOnly)
{
    Rng rng(39);
    const index_t m = 20, n = 20, k = 20;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(m, n);
    c.fill(4.0f);

    CakeGemm gemm(test_pool(), small_blocks());
    gemm.multiply_scaled(a.data(), k, b.data(), n, c.data(), n, m, n, k,
                         0.0f, 0.5f);
    Matrix expected(m, n);
    expected.fill(2.0f);
    EXPECT_EQ(max_abs_diff(c, expected), 0.0);
}

TEST(ScaledEpilogue, KZeroAppliesBeta)
{
    Matrix c(4, 4);
    c.fill(8.0f);
    CakeGemm gemm(test_pool(), small_blocks());
    gemm.multiply_scaled(nullptr, 0, nullptr, 4, c.data(), 4, 4, 4, 0, 1.0f,
                         0.25f);
    Matrix expected(4, 4);
    expected.fill(2.0f);
    EXPECT_EQ(max_abs_diff(c, expected), 0.0);
}

TEST(TransposeOps, DoublePrecisionTransposedA)
{
    Rng rng(40);
    const index_t m = 30, n = 42, k = 26;
    MatrixD a(m, k);
    MatrixD b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    MatrixD at(k, m);
    for (index_t r = 0; r < m; ++r)
        for (index_t c = 0; c < k; ++c) at.at(c, r) = a.at(r, c);

    CakeOptions options;
    options.op_a = Op::kTranspose;
    options.mc = best_microkernel_of<double>().mr * 2;
    CakeGemmD gemm(test_pool(), options);
    MatrixD c(m, n);
    gemm.multiply(at.data(), m, b.data(), n, c.data(), n, m, n, k);
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), dgemm_tolerance(k));
}

}  // namespace
}  // namespace cake
