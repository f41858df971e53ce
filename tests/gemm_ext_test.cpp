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
#include "core/cake_gemm_int8.hpp"
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
    // schedules, alpha on every K block and edge tiles that overwrite on
    // a column's first K block, under every schedule with overlap on and
    // off: the kernel's own overwrite / accumulate (alpha = 1, beta 0 or
    // 1) and the scratch-tile epilogue (every other pair). beta = 0 meets
    // NaN garbage in C.
    Rng rng(37);
    const index_t m = 72, n = 95, k = 58, ldc = n + 5;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    bool revisited = false;
    for (const float alpha : {1.0f, 0.5f, -1.5f}) {
        for (const float beta : {0.0f, 1.0f, -2.0f, 0.25f}) {
            std::vector<float> c0(static_cast<std::size_t>(m * ldc));
            for (index_t i = 0; i < m; ++i)
                for (index_t j = 0; j < ldc; ++j)
                    c0[static_cast<std::size_t>(i * ldc + j)] = beta == 0.0f
                        ? std::nanf("")
                        : 0.01f * static_cast<float>(i - j);
            for (const ScheduleKind kind : all_schedule_kinds()) {
                for (const CakeExec exec :
                     {CakeExec::kSerial, CakeExec::kPipelined}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "alpha " << alpha << " beta " << beta);
                    std::vector<float> c = c0;
                    CakeGemm gemm(test_pool(), multi_block(kind, exec));
                    gemm.multiply_scaled(a.data(), k, b.data(), n, c.data(),
                                         ldc, m, n, k, alpha, beta);
                    expect_epilogue_within_plan_bound(gemm, a, b, c0, c, ldc,
                                                      alpha, beta);
                    revisited =
                        revisited || gemm.stats().c_partial_spills > 0;
                }
            }
        }
    }
    EXPECT_TRUE(revisited) << "no schedule visited a column twice";
}

TEST(ScaledEpilogue, BetaZeroIgnoresNanGarbage)
{
    // beta = 0 overwrites NaN garbage on a column's first K block, and
    // revisits (beta = 1) add onto what the first visit wrote, never onto
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

/// C aliasing A, then C aliasing B, must each throw [C_ALIAS] before any
/// work; the same context must then run an exact multiply. Operand values
/// are small integers, so every family's result is exact.
template <typename T>
void expect_c_alias_refused()
{
    using Gemm = CakeGemmT<T>;
    using A = typename Gemm::A;
    using B = typename Gemm::B;
    using C = typename Gemm::C;
    const index_t m = 40, n = 36, k = 30, ldc = n + 4;
    std::vector<A> a(static_cast<std::size_t>(m * k));
    std::vector<B> b(static_cast<std::size_t>(k * n));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = A(i % 5);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = B(int(i % 7) - 3);
    std::vector<C> c(static_cast<std::size_t>(m * ldc), C(0));

    CakeOptions options;
    options.mc = best_microkernel_of<T>().mr * 2;
    Gemm gemm(test_pool(), options);
    // A C window that starts inside A's storage.
    std::vector<C> shared(static_cast<std::size_t>(m * ldc) + a.size(), C(0));
    const auto* a_in_c = static_cast<const A*>(
        static_cast<const void*>(shared.data() + 3));
    auto expect_alias = [&](auto&& call, const char* what) {
        try {
            call();
            ADD_FAILURE() << what << ": no error";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("[C_ALIAS]"),
                      std::string::npos)
                << what << ": " << e.what();
        }
    };
    expect_alias(
        [&] {
            gemm.multiply(a_in_c, k, b.data(), n, shared.data(), ldc, m, n,
                          k);
        },
        "C aliases A");
    const auto* b_in_c = static_cast<const B*>(
        static_cast<const void*>(shared.data() + (m - 1) * ldc));
    expect_alias(
        [&] {
            gemm.multiply(a.data(), k, b_in_c, n, shared.data(), ldc, m, n,
                          k);
        },
        "C aliases B");

    gemm.multiply(a.data(), k, b.data(), n, c.data(), ldc, m, n, k);
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            long long want = 0;
            for (index_t p = 0; p < k; ++p) {
                want += static_cast<long long>(a[static_cast<std::size_t>(
                            i * k + p)])
                    * static_cast<long long>(
                            b[static_cast<std::size_t>(p * n + j)]);
            }
            ASSERT_EQ(c[static_cast<std::size_t>(i * ldc + j)], C(want))
                << "(" << i << ", " << j << ")";
        }
    }
}

TEST(CAlias, RefusedBeforeAnyWorkForEveryFamily)
{
    expect_c_alias_refused<float>();
    expect_c_alias_refused<double>();
    expect_c_alias_refused<U8S8S32>();
}

TEST(CAlias, PaddedAndTransposedExtentsCount)
{
    // op(A) = A^T stored k x m with padded lda: C starting inside A's last
    // stored row overlaps it even though it starts past m * k elements.
    const index_t m = 8, n = 8, k = 8, lda = m + 6;
    std::vector<float> buf(static_cast<std::size_t>(k * lda + m * n), 1.0f);
    std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
    CakeOptions options = small_blocks();
    options.op_a = Op::kTranspose;
    CakeGemm gemm(test_pool(), options);
    float* c = buf.data() + (k - 1) * lda + m - 1;
    EXPECT_THROW(gemm.multiply(buf.data(), lda, b.data(), n, c, n, m, n, k),
                 Error);
    // One element further, C starts right past A's extent: no overlap.
    c = buf.data() + (k - 1) * lda + m;
    gemm.multiply(buf.data(), lda, b.data(), n, c, n, m, n, k);
    EXPECT_EQ(c[0], static_cast<float>(k));
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
