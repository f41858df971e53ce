// Cross-module integration tests: CAKE vs GOTO vs naive agreement on
// randomised shapes, driver-vs-model traffic equality, and end-to-end
// pipelines (chained GEMMs as in DNN inference).
#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "model/throughput.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

TEST(Integration, RandomShapesAllEnginesAgree)
{
    Rng rng(2026);
    for (int trial = 0; trial < 12; ++trial) {
        const auto m = static_cast<index_t>(1 + rng.next_below(160));
        const auto n = static_cast<index_t>(1 + rng.next_below(160));
        const auto k = static_cast<index_t>(1 + rng.next_below(160));
        Matrix a(m, k);
        Matrix b(k, n);
        a.fill_random(rng);
        b.fill_random(rng);

        const Matrix expected = oracle_gemm(a, b);
        const double tol = gemm_tolerance(k);

        CakeOptions copt;
        copt.mc = best_microkernel().mr * 2;
        const Matrix c_cake = cake_gemm(a, b, test_pool(), copt);
        EXPECT_LE(max_abs_diff(c_cake, expected), tol)
            << "cake trial " << trial << " m=" << m << " n=" << n
            << " k=" << k;

        GotoOptions gopt;
        gopt.mc = best_microkernel().mr * 2;
        gopt.nc = best_microkernel().nr * 2;
        const Matrix c_goto = goto_gemm(a, b, test_pool(), gopt);
        EXPECT_LE(max_abs_diff(c_goto, expected), tol)
            << "goto trial " << trial;

        const Matrix c_naive = naive_gemm(a, b);
        EXPECT_LE(max_abs_diff(c_naive, expected), tol)
            << "naive trial " << trial;
    }
}

/// The IR of the plan of `kind` over `params` carries exactly the traffic
/// of the closed-form Eq.-2 walk, which is independent of build_block_plan.
void expect_io_model_clean(const GemmShape& shape, const CbBlockParams& params,
                           ScheduleKind kind, schedir::Exec exec)
{
    const schedir::VerifyReport report = schedir::verify_schedule_ir(
        schedir::extract_cake_ir(shape, params, kind, exec));
    EXPECT_FALSE(report.has("IR_IO_MODEL")) << report.codes();
}

TEST(Integration, DriverStatsMatchModelTraffic)
{
    // The model's traffic is the driver's own plan, so the stats must agree
    // exactly; the IR check ties that plan to the paper's closed form.
    Rng rng(7);
    const GemmShape shape{190, 230, 140};
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(shape.m, shape.n);

    CakeOptions options;
    options.p = 2;
    options.mc = best_microkernel().mr * 2;
    options.alpha = 1.0;
    CakeStats stats;
    cake_sgemm(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k,
               test_pool(), options, &stats);

    const auto traffic = model::cake_traffic(shape, stats.params);
    EXPECT_EQ(stats.dram_read_bytes, traffic.dram_read_bytes);
    EXPECT_EQ(stats.dram_write_bytes, traffic.dram_write_bytes);
    EXPECT_EQ(stats.a_packs, traffic.a_packs);
    EXPECT_EQ(stats.b_packs, traffic.b_packs);
    EXPECT_EQ(stats.c_flushes, traffic.c_flushes);
    expect_io_model_clean(shape, stats.params,
                          ScheduleKind::kKFirstSerpentine,
                          stats.pipelined ? schedir::Exec::kPipelined
                                          : schedir::Exec::kSerial);
}

TEST(Integration, GotoStatsMatchModelTraffic)
{
    Rng rng(8);
    const GemmShape shape{170, 210, 130};
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(shape.m, shape.n);

    GotoOptions options;
    options.mc = best_microkernel().mr * 2;
    options.nc = best_microkernel().nr * 3;
    GotoStats stats;
    goto_sgemm(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k,
               test_pool(), options, &stats);

    // The GOTO plan's geometry: goto_plan_params with the overrides, on the
    // whole pool (GotoOptions::p = 0).
    TilingOptions topts;
    topts.mc = stats.mc;
    topts.kc = stats.kc;
    topts.nc = stats.nc;
    const CbBlockParams params =
        compute_cb_block(host_machine(), test_pool().size(),
                         best_microkernel().mr, best_microkernel().nr, topts);
    const auto traffic =
        model::cake_traffic(shape, params, ScheduleKind::kGoto);
    EXPECT_EQ(stats.dram_read_bytes, traffic.dram_read_bytes);
    EXPECT_EQ(stats.dram_write_bytes, traffic.dram_write_bytes);
    expect_io_model_clean(shape, params, ScheduleKind::kGoto,
                          schedir::Exec::kSerial);
}

TEST(Integration, ChainedGemmsMimicDnnInference)
{
    // Three-layer MLP forward pass: X -> XW1 -> (XW1)W2 -> ((XW1)W2)W3,
    // reusing one CakeGemm context (the drop-in-library usage pattern).
    Rng rng(9);
    const index_t batch = 64;
    const std::vector<index_t> dims = {50, 80, 40, 10};
    Matrix x(batch, dims[0]);
    x.fill_random(rng);

    std::vector<Matrix> weights;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        weights.emplace_back(dims[l], dims[l + 1]);
        weights.back().fill_random(rng);
    }

    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    CakeGemm gemm(test_pool(), options);

    Matrix activ = std::move(x);
    Matrix oracle_activ(batch, dims[0]);
    for (index_t i = 0; i < batch; ++i)
        for (index_t j = 0; j < dims[0]; ++j)
            oracle_activ.at(i, j) = activ.at(i, j);

    for (std::size_t l = 0; l < weights.size(); ++l) {
        Matrix next(batch, weights[l].cols());
        gemm.multiply(activ.data(), activ.cols(), weights[l].data(),
                      weights[l].cols(), next.data(), next.cols(), batch,
                      weights[l].cols(), activ.cols());
        activ = std::move(next);
        oracle_activ = oracle_gemm(oracle_activ, weights[l]);
        // Compare layer by layer so error doesn't silently compound.
        EXPECT_LE(max_rel_diff(activ, oracle_activ, 1.0), 1e-3)
            << "layer " << l;
        // Keep oracle and CAKE activations identical for the next layer.
        for (index_t i = 0; i < batch; ++i)
            for (index_t j = 0; j < activ.cols(); ++j)
                oracle_activ.at(i, j) = activ.at(i, j);
    }
    EXPECT_EQ(activ.cols(), 10);
}

TEST(Integration, CakeMovesLessDramThanGotoLikeForLike)
{
    // Same kernels, same machine model, same problem: the scheduling
    // difference alone must show in the traffic counters.
    Rng rng(10);
    const GemmShape shape{288, 288, 288};
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(shape.m, shape.n);

    const index_t mr = best_microkernel().mr;
    const index_t nr = best_microkernel().nr;
    CakeOptions copt;
    copt.p = 4;
    copt.mc = mr * 2;
    copt.alpha = 1.0;
    CakeStats cstats;
    cake_sgemm(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k,
               test_pool(), copt, &cstats);

    GotoOptions gopt;
    gopt.p = 4;
    gopt.mc = mr * 2;
    gopt.nc = nr * 4;
    GotoStats gstats;
    goto_sgemm(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k,
               test_pool(), gopt, &gstats);

    EXPECT_LT(cstats.dram_read_bytes + cstats.dram_write_bytes,
              gstats.dram_read_bytes + gstats.dram_write_bytes);
    // Specifically the partial-result writes: CAKE writes C once, GOTO
    // once per kc pass.
    EXPECT_LT(cstats.dram_write_bytes, gstats.dram_write_bytes);
}

}  // namespace
}  // namespace cake
