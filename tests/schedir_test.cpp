// Schedule-IR extraction + symbolic verification: clean IRs of every
// executor/schedule verify, each deterministic mutation is rejected with
// its specific diagnostic code, and the IR's modelled IO reproduces both
// the runtime stats counters and the memsim address stream byte-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/schedir.hpp"
#include "analysis/verify.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm_int8.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"

namespace cake {
namespace {

using schedir::Exec;
using schedir::Mutation;
using schedir::ScheduleIR;
using schedir::VerifyReport;

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

/// Deterministic multi-column CB geometry on a Table-2 preset: mc forced
/// small so every shape below spans several blocks per dimension.
CbBlockParams preset_params(int p = 0)
{
    const MachineSpec machine = intel_i9_10900k();
    TilingOptions topts;
    topts.mc = 48;
    return compute_cb_block(machine, p > 0 ? p : machine.cores, 6, 16,
                            topts);
}

/// The IR of the GOTO plan on the Intel preset: GOTO's blocking, the kGoto
/// order, overlap off.
ScheduleIR goto_plan_ir(const GemmShape& shape, bool accumulate = false)
{
    const MachineSpec machine = intel_i9_10900k();
    return schedir::extract_cake_ir(
        shape, goto_plan_params(machine, machine.cores, 6, 16),
        ScheduleKind::kGoto, Exec::kSerial, /*use_prepacked=*/false,
        accumulate);
}

using CakeConfig = std::tuple<ScheduleKind, Exec>;

class CleanIrTest : public ::testing::TestWithParam<CakeConfig> {};

TEST_P(CleanIrTest, VerifiesCleanAcrossShapes)
{
    const auto [kind, exec] = GetParam();
    const CbBlockParams params = preset_params();
    for (const GemmShape shape :
         {GemmShape{1000, 1000, 200}, GemmShape{1000, 700, 96},
          GemmShape{490, 1300, 150}}) {
        const ScheduleIR ir =
            schedir::extract_cake_ir(shape, params, kind, exec);
        const VerifyReport report = schedir::verify_schedule_ir(ir);
        EXPECT_TRUE(report.ok())
            << schedule_kind_name(kind) << "/" << schedir::exec_name(exec)
            << " " << shape.m << "x" << shape.n << "x" << shape.k << ": "
            << report.codes();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CleanIrTest,
    ::testing::Combine(::testing::Values(ScheduleKind::kKFirstSerpentine,
                                         ScheduleKind::kKFirstNoFlip,
                                         ScheduleKind::kNInnermost),
                       ::testing::Values(Exec::kSerial, Exec::kPipelined)));

TEST(SchedirGoto, CleanIrVerifies)
{
    const MachineSpec machine = intel_i9_10900k();
    const GotoBlocking blocking = goto_default_blocking(machine, 6, 16);
    const ScheduleIR ir = goto_plan_ir(GemmShape{1000, 1000, 600});
    const VerifyReport report = schedir::verify_schedule_ir(ir);
    EXPECT_TRUE(report.ok()) << report.codes();
    EXPECT_EQ(ir.expected_accums, (600 + blocking.kc - 1) / blocking.kc);
}

TEST(SchedirGoto, AccumulateModeVerifies)
{
    const ScheduleIR ir =
        goto_plan_ir(GemmShape{600, 800, 300}, /*accumulate=*/true);
    EXPECT_TRUE(schedir::verify_schedule_ir(ir).ok());
}

TEST(SchedirCake, PrepackedAndBetaVariantsVerify)
{
    const CbBlockParams params = preset_params();
    const GemmShape shape{1000, 700, 200};
    for (const bool prepacked : {false, true}) {
        for (const bool beta : {false, true}) {
            const ScheduleIR ir = schedir::extract_cake_ir(
                shape, params, ScheduleKind::kKFirstSerpentine,
                Exec::kPipelined, prepacked, beta);
            EXPECT_TRUE(schedir::verify_schedule_ir(ir).ok())
                << "prepacked=" << prepacked << " beta=" << beta;
        }
    }
}

// ------------------------------------------------------------- mutations

ScheduleIR mutation_subject(Exec exec)
{
    return schedir::extract_cake_ir(GemmShape{1000, 1000, 200},
                                    preset_params(),
                                    ScheduleKind::kKFirstSerpentine, exec);
}

struct MutationCase {
    Mutation mutation;
    const char* expected;
};

// Without this gtest prints the case as raw bytes, which include the
// run-time address of `expected`, so the registered test names would
// change from one build or run to the next.
void PrintTo(const MutationCase& mc, std::ostream* os)
{
    *os << "{" << schedir::mutation_name(mc.mutation) << ", " << mc.expected
        << "}";
}

class MutationTest : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationTest, RejectedWithItsSpecificCode)
{
    const MutationCase mc = GetParam();
    ScheduleIR ir = mutation_subject(Exec::kPipelined);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const std::string code = schedir::apply_mutation(ir, mc.mutation);
    EXPECT_EQ(code, mc.expected);
    const VerifyReport report = schedir::verify_schedule_ir(ir);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(code))
        << schedir::mutation_name(mc.mutation) << " expected " << code
        << ", verifier reported [" << report.codes() << "]";
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, MutationTest,
    ::testing::Values(
        MutationCase{Mutation::kDropOp, "IR_COVER"},
        MutationCase{Mutation::kDupOp, "IR_COVER"},
        MutationCase{Mutation::kReorderAccum, "IR_ORDER"},
        MutationCase{Mutation::kOverlapBands, "IR_RACE_WW"},
        MutationCase{Mutation::kSplitWriteback, "IR_RACE_RW"},
        MutationCase{Mutation::kShrinkGeneration, "IR_LIFETIME"},
        MutationCase{Mutation::kDropFlush, "IR_COVER"}));

TEST(MutationSites, SerialAndGotoRejectLostAndDuplicatedUpdates)
{
    for (const bool goto_plan : {false, true}) {
        for (const Mutation m : {Mutation::kDropOp, Mutation::kDupOp}) {
            ScheduleIR ir = goto_plan ? goto_plan_ir(GemmShape{1000, 1000, 200})
                                      : mutation_subject(Exec::kSerial);
            const std::string code = schedir::apply_mutation(ir, m);
            EXPECT_EQ(code, "IR_COVER");
            EXPECT_TRUE(schedir::verify_schedule_ir(ir).has(code))
                << (goto_plan ? "goto plan" : "serial");
        }
    }
}

TEST(MutationSites, InapplicableMutationThrows)
{
    // The GOTO plan runs with overlap off, so it has no double buffer to
    // shrink: that mutation has no site and must refuse rather than
    // silently no-op. Its kc passes do retire C bands, so dropping one is
    // a lost update.
    ScheduleIR ir = goto_plan_ir(GemmShape{1000, 1000, 200});
    EXPECT_THROW(schedir::apply_mutation(ir, Mutation::kShrinkGeneration),
                 Error);
    EXPECT_EQ(schedir::apply_mutation(ir, Mutation::kDropFlush), "IR_COVER");
    EXPECT_TRUE(schedir::verify_schedule_ir(ir).has("IR_COVER"));
}

// ------------------------------------------- IO model vs runtime counters

/// Extract the IR with the exact geometry the runtime chose (its stats
/// params) and require byte-exact agreement with the executed multiply's
/// DRAM counters. `T` is the kernel family; `bytes` its stored operand
/// widths (zero fields: the solver's uniform element width).
template <typename T = float>
void expect_ir_matches_cake_stats(ScheduleKind kind, CakeExec exec,
                                  bool accumulate, index_t mr,
                                  OperandBytes bytes = {})
{
    using Gemm = CakeGemmT<T>;
    const index_t m = 150, n = 170, k = 90;
    // Operand values do not enter the traffic model, only the geometry.
    const std::vector<typename Gemm::A> a(static_cast<std::size_t>(m * k), 1);
    const std::vector<typename Gemm::B> b(static_cast<std::size_t>(k * n), 1);
    std::vector<typename Gemm::C> c(static_cast<std::size_t>(m * n), 1);

    CakeOptions options;
    options.mc = mr * 2;
    options.schedule = kind;
    options.exec = exec;
    options.accumulate = accumulate;
    Gemm gemm(test_pool(), options);
    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
    const CakeStats& stats = gemm.stats();

    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{m, n, k}, stats.params, kind,
        stats.pipelined ? Exec::kPipelined : Exec::kSerial,
        /*use_prepacked=*/false, /*beta_nonzero=*/accumulate, bytes);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok())
        << schedir::verify_schedule_ir(ir).codes();

    const schedir::IoTotals io = schedir::io_totals(ir);
    EXPECT_EQ(io.reads(), stats.dram_read_bytes)
        << schedule_kind_name(kind) << " overlap=" << stats.pipelined;
    EXPECT_EQ(io.writes(), stats.dram_write_bytes);
    EXPECT_EQ(static_cast<index_t>(ir.ops.size() > 0), 1);
}

TEST(IoAgainstRuntime, SerialAllSchedules)
{
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        expect_ir_matches_cake_stats(kind, CakeExec::kSerial, false,
                                     best_microkernel().mr);
    }
}

TEST(IoAgainstRuntime, PipelinedAllSchedules)
{
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        expect_ir_matches_cake_stats(kind, CakeExec::kPipelined, false,
                                     best_microkernel().mr);
    }
}

TEST(IoAgainstRuntime, AccumulateAddsRmwTraffic)
{
    expect_ir_matches_cake_stats(ScheduleKind::kKFirstSerpentine,
                                 CakeExec::kPipelined, true,
                                 best_microkernel().mr);
}

TEST(IoAgainstRuntime, Int8StatsMatchIrAtStoredWidths)
{
    // The u8 x s8 -> s32 family runs the same executor on the same plan:
    // its IR, extracted at the stored widths (A, B 1 byte; C 4), verifies
    // and models exactly the traffic its CakeStats report.
    const OperandBytes int8_bytes{1, 1, 4};
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            expect_ir_matches_cake_stats<U8S8S32>(
                kind, exec, false, best_microkernel_of<U8S8S32>().mr,
                int8_bytes);
        }
    }
    expect_ir_matches_cake_stats<U8S8S32>(
        ScheduleKind::kKFirstSerpentine, CakeExec::kPipelined, true,
        best_microkernel_of<U8S8S32>().mr, int8_bytes);
}

TEST(IoAgainstRuntime, PrepackedSkipsNothingButPackOps)
{
    Rng rng(77);
    const index_t m = 140, n = 160, k = 80;
    Matrix a(m, k), b(k, n), c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    options.exec = CakeExec::kPipelined;
    CakeGemm gemm(test_pool(), options);
    const PackedBF packed = gemm.pack_weights(b.data(), n, k, n);
    gemm.multiply_prepacked(a.data(), k, packed, c.data(), n, m);
    const CakeStats& stats = gemm.stats();

    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{m, n, k}, stats.params, options.schedule,
        Exec::kPipelined, /*use_prepacked=*/true, /*beta_nonzero=*/false);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const schedir::IoTotals io = schedir::io_totals(ir);
    EXPECT_EQ(io.reads(), stats.dram_read_bytes);
    EXPECT_EQ(io.writes(), stats.dram_write_bytes);
    for (const schedir::TileOp& op : ir.ops) {
        EXPECT_NE(op.kind, schedir::OpKind::kPackB);
    }
}

TEST(IoAgainstRuntime, GotoStatsMatchIr)
{
    Rng rng(99);
    const index_t m = 300, n = 260, k = 200;
    Matrix a(m, k), b(k, n), c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);

    GotoOptions options;
    options.p = 4;
    GotoGemm gemm(test_pool(), options);
    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
    const GotoStats& stats = gemm.stats();

    // The GOTO plan the context ran, rebuilt from its reported blocking.
    const MicroKernel& kernel = best_microkernel();
    TilingOptions topts;
    topts.mc = stats.mc;
    topts.kc = stats.kc;
    topts.nc = stats.nc;
    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{m, n, k},
        compute_cb_block(host_machine(), 4, kernel.mr, kernel.nr, topts),
        ScheduleKind::kGoto, Exec::kSerial);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const schedir::IoTotals io = schedir::io_totals(ir);
    EXPECT_EQ(io.reads(), stats.dram_read_bytes);
    EXPECT_EQ(io.writes(), stats.dram_write_bytes);
}

// ------------------------------------- executor phases vs the IR's phases

/// (schedule, overlap on, u8 x s8 -> s32 family, prepacked B)
using PhaseConfig = std::tuple<ScheduleKind, bool, bool, bool>;

class PhaseAgreementTest : public ::testing::TestWithParam<PhaseConfig> {};

/// Run one multiply of family T and extract the IR of the plan it ran.
/// The shape spans several blocks in M, N and K (kb = 3) with edge tiles
/// in each, and C has padded rows. The multiply (beta = 0, over garbage:
/// NaN for f32) and a second, accumulating one (beta = 1) on a context of
/// the same geometry must leave exactly 2*A*B — the small integer
/// operands make every family's result exact — and the padding
/// bit-identical.
template <typename T>
std::pair<CakeStats, ScheduleIR> run_and_extract(ScheduleKind kind,
                                                 bool overlap, bool prepacked,
                                                 OperandBytes bytes)
{
    using Gemm = CakeGemmT<T>;
    using C = typename Gemm::C;
    const index_t m = 150, n = 170, k = 90, ldc = n + 3;
    std::vector<typename Gemm::A> a(static_cast<std::size_t>(m * k));
    std::vector<typename Gemm::B> b(static_cast<std::size_t>(k * n));
    for (index_t i = 0; i < m * k; ++i)
        a[static_cast<std::size_t>(i)] = typename Gemm::A((i * 7) % 5);
    for (index_t i = 0; i < k * n; ++i)
        b[static_cast<std::size_t>(i)] = typename Gemm::B((i * 5) % 7 - 3);
    const C garbage = std::numeric_limits<C>::has_quiet_NaN
        ? std::numeric_limits<C>::quiet_NaN()
        : C(0x5a5a5a5a);
    const std::vector<C> c0(static_cast<std::size_t>(m * ldc), garbage);
    std::vector<C> c = c0;

    CakeOptions options;
    options.mc = best_microkernel_of<T>().mr * 2;
    options.kc = 32;
    options.schedule = kind;
    options.exec = overlap ? CakeExec::kPipelined : CakeExec::kSerial;
    Gemm gemm(test_pool(), options);
    options.accumulate = true;
    Gemm accumulating(test_pool(), options);
    if (prepacked) {
        const PackedB<T> packed = gemm.pack_weights(b.data(), n, k, n);
        gemm.multiply_prepacked(a.data(), k, packed, c.data(), ldc, m);
        accumulating.multiply_prepacked(a.data(), k, packed, c.data(), ldc,
                                        m);
    } else {
        gemm.multiply(a.data(), k, b.data(), n, c.data(), ldc, m, n, k);
        accumulating.multiply(a.data(), k, b.data(), n, c.data(), ldc, m, n,
                              k);
    }
    EXPECT_EQ(gemm.stats().grid_kb, 3);
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < ldc; ++j) {
            const auto at = static_cast<std::size_t>(i * ldc + j);
            if (j >= n) {
                EXPECT_EQ(std::memcmp(&c[at], &c0[at], sizeof(C)), 0)
                    << "padding (" << i << ", " << j << ") written";
                continue;
            }
            long long ab = 0;
            for (index_t p = 0; p < k; ++p) {
                ab += static_cast<long long>(a[static_cast<std::size_t>(
                          i * k + p)])
                    * static_cast<long long>(
                          b[static_cast<std::size_t>(p * n + j)]);
            }
            if (c[at] != C(2 * ab)) {
                ADD_FAILURE() << "(" << i << ", " << j << ") = " << c[at]
                              << ", expected " << 2 * ab;
                return {gemm.stats(), ScheduleIR{}};
            }
        }
    }
    return {gemm.stats(),
            schedir::extract_cake_ir(
                GemmShape{m, n, k}, gemm.stats().params, kind,
                overlap ? Exec::kPipelined : Exec::kSerial, prepacked,
                /*beta_nonzero=*/false, bytes)};
}

TEST_P(PhaseAgreementTest, ExecutorRunsTheIrPhases)
{
    // The IR the verifiers check must have the executor's barrier
    // structure: the fill, one main phase per step and, with overlap
    // off, a pack phase per later step that fetches. The values are
    // checked on the way (run_and_extract).
    const auto [kind, overlap, int8, prepacked] = GetParam();
    const auto [stats, ir] = int8
        ? run_and_extract<U8S8S32>(kind, overlap, prepacked, {1, 1, 4})
        : run_and_extract<float>(kind, overlap, prepacked, {});
    ASSERT_GE(stats.blocks_executed, 2);
    EXPECT_EQ(stats.phases, ir.num_phases);
    if (overlap) EXPECT_EQ(ir.num_phases, 1 + stats.blocks_executed);
    else EXPECT_GT(ir.num_phases, 1 + stats.blocks_executed);
    EXPECT_TRUE(schedir::verify_schedule_ir(ir).ok())
        << schedir::verify_schedule_ir(ir).codes();
}

std::string phase_config_name(const ::testing::TestParamInfo<PhaseConfig>& info)
{
    const auto [kind, overlap, int8, prepacked] = info.param;
    std::string name = std::string(schedule_kind_name(kind))
        + (overlap ? "_overlap" : "_serial") + (int8 ? "_i8" : "_f32")
        + (prepacked ? "_prepacked" : "_plain");
    std::replace_if(
        name.begin(), name.end(),
        [](char ch) {
            return std::isalnum(static_cast<unsigned char>(ch)) == 0;
        },
        '_');
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    EveryScheduleExecAndFamily, PhaseAgreementTest,
    ::testing::Combine(::testing::ValuesIn(all_schedule_kinds()),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    phase_config_name);

// ------------------------------------------------------- memsim agreement

TEST(MemsimCrossCheck, CakeExactForEverySchedule)
{
    const CbBlockParams params = preset_params(4);
    const GemmShape shape{300, 260, 100};
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
            const ScheduleIR ir =
                schedir::extract_cake_ir(shape, params, kind, exec);
            const VerifyReport report = schedir::cross_check_memsim(ir);
            EXPECT_TRUE(report.ok())
                << schedule_kind_name(kind) << "/"
                << schedir::exec_name(exec) << ": " << report.codes();
        }
    }
}

TEST(MemsimCrossCheck, GotoExact)
{
    const MachineSpec machine = arm_cortex_a53();
    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{300, 260, 200},
        goto_plan_params(machine, machine.cores, 6, 16), ScheduleKind::kGoto,
        Exec::kSerial);
    const VerifyReport report = schedir::cross_check_memsim(ir);
    EXPECT_TRUE(report.ok()) << report.codes();
}

TEST(MemsimCrossCheck, RefusesInapplicableIr)
{
    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{300, 260, 100}, preset_params(4),
        ScheduleKind::kKFirstSerpentine, Exec::kPipelined,
        /*use_prepacked=*/true);
    EXPECT_TRUE(schedir::cross_check_memsim(ir).has("IR_MALFORMED"));
}

}  // namespace
}  // namespace cake
