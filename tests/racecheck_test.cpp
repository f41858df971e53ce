// Self-validation of the happens-before race auditor (CAKE_RACECHECK).
//
// The auditor is itself a proof obligation: a checker that never fires is
// indistinguishable from a checker that is wired to nothing. These tests
// therefore (a) run clean workloads and assert silence, and (b) sever one
// happens-before edge class via the test-only hook and assert the auditor
// reports the precise seeded race, with the region / tile / step / phase /
// thread payload the diagnostic contract promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/racecheck.hpp"
#include "analysis/schedshake.hpp"
#include "common/checked.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm_int8.hpp"
#include "kernel/registry.hpp"
#include "threading/thread_pool.hpp"

namespace cake {
namespace {

#if CAKE_RACECHECK_ENABLED

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

void throwing_trap(const char* kind, const std::string& message)
{
    throw CheckedError(std::string(kind) + ": " + message);
}

/// Installs the throwing trap handler for one test and restores the
/// previous handler (and all severed edges) on the way out.
class TrapGuard {
public:
    TrapGuard() : previous_(checked::set_trap_handler(&throwing_trap)) {}
    ~TrapGuard()
    {
        racecheck::test_restore_edges();
        checked::set_trap_handler(previous_);
    }

private:
    checked::TrapHandler previous_;
};

CakeOptions small_options(CakeExec exec)
{
    CakeOptions options;
    options.mc = best_microkernel().mr * 2;  // force a multi-block grid
    options.alpha = 1.0;
    options.exec = exec;
    return options;
}

void run_small_pipelined()
{
    const index_t m = 96, n = 48, k = 48;
    Rng rng(42);
    Matrix a(m, k);
    Matrix b(k, n);
    Matrix c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);
    CakeGemm gemm(test_pool(), small_options(CakeExec::kPipelined));
    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
}

// --- engine-level happens-before checks ---------------------------------

TEST(RaceCheckEngine, BarrierHandoffIsOrdered)
{
    TrapGuard trap;
    const std::uint64_t races_before = racecheck::race_count();
    const racecheck::RegionId region =
        racecheck::region_register("handoff-region", 16);
    test_pool().run_team(2, [&](TeamContext& team, int tid) {
        racecheck::AccessSite site;
        site.step = 7;
        site.bm = 1;
        site.bn = 2;
        site.bk = 3;
        if (tid == 0) {
            site.phase = racecheck::Phase::kPack;
            racecheck::region_access(region, 5,
                                     racecheck::AccessKind::kWrite, site);
        }
        team.barrier();
        if (tid == 1) {
            site.phase = racecheck::Phase::kCompute;
            racecheck::region_access(region, 5,
                                     racecheck::AccessKind::kRead, site);
        }
    });
    racecheck::region_retire(region);
    EXPECT_EQ(racecheck::race_count(), races_before)
        << "a barrier-separated write->read handoff must be silent";
}

TEST(RaceCheckEngine, ForkJoinEdgesOrderSequentialJobs)
{
    TrapGuard trap;
    const std::uint64_t races_before = racecheck::race_count();
    const racecheck::RegionId region =
        racecheck::region_register("forkjoin-region", 4);
    racecheck::AccessSite site;
    // Job 1: every worker writes its own tile. Join edge, then job 2:
    // every worker reads a *different* worker's tile — ordered only
    // through join+fork edges.
    test_pool().run(4, [&](int tid) {
        racecheck::region_access(region, tid, racecheck::AccessKind::kWrite,
                                 site);
    });
    test_pool().run(4, [&](int tid) {
        racecheck::region_access(region, (tid + 1) % 4,
                                 racecheck::AccessKind::kRead, site);
    });
    racecheck::region_retire(region);
    EXPECT_EQ(racecheck::race_count(), races_before)
        << "join->fork chained jobs must be silent";
}

TEST(RaceCheckEngine, SeveredBarrierEdgeReportsSeededRace)
{
    TrapGuard trap;
    const std::uint64_t races_before = racecheck::race_count();
    const racecheck::RegionId region =
        racecheck::region_register("seeded-race-region", 16);
    racecheck::test_sever_edge(racecheck::Edge::kBarrier);
    std::string message;
    try {
        test_pool().run_team(2, [&](TeamContext& team, int tid) {
            racecheck::AccessSite site;
            site.step = 7;
            site.bm = 1;
            site.bn = 2;
            site.bk = 3;
            if (tid == 0) {
                site.phase = racecheck::Phase::kPack;
                racecheck::region_access(
                    region, 5, racecheck::AccessKind::kWrite, site);
            }
            team.barrier();
            if (tid == 1) {
                site.phase = racecheck::Phase::kCompute;
                racecheck::region_access(
                    region, 5, racecheck::AccessKind::kRead, site);
            }
        });
    } catch (const CheckedError& e) {
        message = e.what();
    }
    racecheck::test_restore_edges();
    racecheck::region_retire(region);

    // The write (worker 0) and read (worker 1) are now only "ordered" by a
    // barrier whose HB edge the engine ignores, so the read must trap —
    // deterministically, whatever the actual interleaving, because the
    // vector clocks no longer carry the ordering either way.
    ASSERT_FALSE(message.empty())
        << "auditor failed to detect the seeded race";
    EXPECT_GT(racecheck::race_count(), races_before);
    EXPECT_NE(message.find("RC_RACE_RW"), std::string::npos) << message;
    EXPECT_NE(message.find("seeded-race-region"), std::string::npos)
        << message;
    EXPECT_NE(message.find("tile 5"), std::string::npos) << message;
    EXPECT_NE(message.find("step 7"), std::string::npos) << message;
    EXPECT_NE(message.find("block (1, 2, 3)"), std::string::npos) << message;
    EXPECT_NE(message.find("phase compute"), std::string::npos) << message;
    EXPECT_NE(message.find("phase pack"), std::string::npos) << message;
    EXPECT_NE(message.find("worker 1"), std::string::npos) << message;
    EXPECT_NE(message.find("worker 0"), std::string::npos) << message;
}

TEST(RaceCheckEngine, UnsynchronisedWriteWriteIsReported)
{
    TrapGuard trap;
    const std::uint64_t races_before = racecheck::race_count();
    const racecheck::RegionId region =
        racecheck::region_register("ww-region", 8);
    std::string message;
    try {
        // Both members write the same tile in the same phase with no
        // barrier between the writes: a true ownership violation with all
        // edges intact. Whichever write the engine sees second must trap.
        test_pool().run_team(2, [&](TeamContext&, int) {
            racecheck::AccessSite site;
            site.phase = racecheck::Phase::kPack;
            racecheck::region_access(region, 3,
                                     racecheck::AccessKind::kWrite, site);
        });
    } catch (const CheckedError& e) {
        message = e.what();
    }
    racecheck::region_retire(region);
    ASSERT_FALSE(message.empty());
    EXPECT_NE(message.find("RC_RACE_WW"), std::string::npos) << message;
    EXPECT_GT(racecheck::race_count(), races_before);
}

// --- executor-level checks ----------------------------------------------

TEST(RaceCheckExecutor, PipelinedMultiplyIsRaceClean)
{
    TrapGuard trap;
    const std::uint64_t races_before = racecheck::race_count();
    run_small_pipelined();
    EXPECT_EQ(racecheck::race_count(), races_before);
}

TEST(RaceCheckExecutor, SeveredBarrierEdgeIsCaughtInThePipeline)
{
    TrapGuard trap;
    const std::uint64_t races_before = racecheck::race_count();
    racecheck::test_sever_edge(racecheck::Edge::kBarrier);
    // With barrier edges ignored, the pack(i+1) -> compute(i+1) handoff
    // between different workers has no ordering, so any multi-threaded
    // pipelined run must trap. Perturb claims so work spreads across the
    // team even on a single hardware thread, and allow a few attempts for
    // pathological schedules where one worker claims everything.
    std::string message;
    for (std::uint64_t seed = 0; seed < 8 && message.empty(); ++seed) {
        schedshake::configure(seed, 85);
        try {
            run_small_pipelined();
        } catch (const CheckedError& e) {
            message = e.what();
        }
    }
    schedshake::disable();
    racecheck::test_restore_edges();
    ASSERT_FALSE(message.empty())
        << "auditor saw no race in 8 fuzzed pipelined runs with the "
           "barrier edge severed";
    EXPECT_NE(message.find("RC_RACE"), std::string::npos) << message;
    EXPECT_GT(racecheck::race_count(), races_before);
    // The executor must remain usable after the trapped run.
    const std::uint64_t races_mid = racecheck::race_count();
    run_small_pipelined();
    EXPECT_EQ(racecheck::race_count(), races_mid);
}

TEST(RaceCheckExecutor, SchedshakePerturbsAndStaysBitExact)
{
    TrapGuard trap;
    const index_t m = 96, n = 48, k = 48;
    Rng rng(7);
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    Matrix c_serial(m, n);
    {
        CakeGemm gemm(test_pool(), small_options(CakeExec::kSerial));
        gemm.multiply(a.data(), k, b.data(), n, c_serial.data(), n, m, n, k);
    }
    Matrix c(m, n);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        schedshake::configure(seed, 100);
        c.fill(0.0F);
        CakeGemm gemm(test_pool(), small_options(CakeExec::kPipelined));
        gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
        EXPECT_GT(schedshake::injected_count(), 0u)
            << "intensity 100 must inject at every interleave point";
        schedshake::disable();
        EXPECT_EQ(std::memcmp(c.data(), c_serial.data(),
                              static_cast<std::size_t>(m) * n
                                  * sizeof(float)),
                  0)
            << "seed " << seed;
    }
}

TEST(RaceCheckExecutor, Int8MultiplyIsRaceCleanInBothOverlapModes)
{
    // The u8 x s8 -> s32 family runs the same team and racecheck
    // annotations as f32: both overlap modes stay race-clean, perturbed
    // claims included, and agree bit for bit.
    TrapGuard trap;
    const index_t m = 96, n = 48, k = 48;
    Rng rng(11);
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& x : a) x = static_cast<std::uint8_t>(rng.next_below(128));
    for (auto& x : b) {
        x = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255))
                                     - 127);
    }
    const std::uint64_t races_before = racecheck::race_count();
    std::vector<std::int32_t> c[2];
    for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
        CakeOptions options = small_options(exec);
        options.mc = best_microkernel_of<U8S8S32>().mr * 2;
        schedshake::configure(5, 85);
        CakeGemmInt8 gemm(test_pool(), options);
        std::vector<std::int32_t>& out = c[exec == CakeExec::kPipelined];
        out.assign(static_cast<std::size_t>(m * n), 0);
        gemm.multiply(a.data(), k, b.data(), n, out.data(), n, m, n, k);
        schedshake::disable();
    }
    EXPECT_EQ(racecheck::race_count(), races_before);
    EXPECT_EQ(c[0], c[1]);
}

#else  // !CAKE_RACECHECK_ENABLED

TEST(RaceCheck, DisabledInThisBuild)
{
    GTEST_SKIP() << "configure with -DCAKE_RACECHECK=ON to run the "
                    "happens-before auditor's self-validation";
}

#endif  // CAKE_RACECHECK_ENABLED

}  // namespace
}  // namespace cake
