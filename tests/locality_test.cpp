// Reuse-distance locality analyzer (analysis/locality.hpp): the closed
// form must be byte-exact against io_totals (and, through
// cross_check_memsim, against the memsim address stream) for EVERY
// registered schedule kind on both CAKE executors; the stack-distance
// evidence must be internally consistent; and every LOC_* mutation must
// be rejected with its specific code.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "analysis/locality.hpp"
#include "analysis/schedir.hpp"
#include "analysis/verify.hpp"
#include "cache/topology.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "machine/machine.hpp"

namespace cake {
namespace {

using locality::LocalityReport;
using locality::LocMutation;
using schedir::Exec;
using schedir::ScheduleIR;

/// Multi-column, kb >= 2 plan (the cake_verify mutation-subject geometry)
/// so every schedule kind exercises turnovers and every mutation has a
/// site.
ScheduleIR subject_ir(ScheduleKind kind, Exec exec, bool f64 = false)
{
    const MachineSpec machine = intel_i9_10900k();
    TilingOptions topts;
    topts.mc = 48;
    topts.elem_bytes = f64 ? 8 : 4;
    const GemmShape shape{1000, 1000, 200};
    const CbBlockParams params = compute_cb_block(
        machine, machine.cores, 6, f64 ? 8 : 16, topts);
    return schedir::extract_cake_ir(shape, params, kind, exec);
}

TEST(Locality, CleanOnEveryRegisteredKindAndExecutor)
{
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
            const ScheduleIR ir = subject_ir(kind, exec);
            const LocalityReport rep = locality::analyze_locality(ir);
            EXPECT_TRUE(rep.ok())
                << schedule_kind_name(kind) << " " << schedir::exec_name(exec)
                << ": " << rep.codes();
            EXPECT_EQ(rep.schedule, kind);
            EXPECT_EQ(rep.steps, ir.mb * ir.nb * ir.kb);
            ASSERT_EQ(static_cast<index_t>(rep.transitions.size()),
                      rep.steps);
        }
    }
}

TEST(Locality, PredictedTrafficIsByteExactAgainstIrAndMemsim)
{
    // The equality chain the tentpole promises: closed form == io_totals
    // (LOC_TRAFFIC clean) and io_totals == memsim address stream
    // (cross_check_memsim clean) — so the static prediction equals the
    // simulated DRAM traffic, byte for byte, for every schedule kind.
    for (const ScheduleKind kind : all_schedule_kinds()) {
        const ScheduleIR ir = subject_ir(kind, Exec::kSerial);
        const LocalityReport rep = locality::analyze_locality(ir);
        ASSERT_TRUE(rep.ok()) << schedule_kind_name(kind) << ": "
                              << rep.codes();
        const schedir::IoTotals io = schedir::io_totals(ir);
        EXPECT_EQ(rep.predicted.a_read, io.a_read);
        EXPECT_EQ(rep.predicted.b_read, io.b_read);
        EXPECT_EQ(rep.predicted.c_write, io.c_write);
        EXPECT_EQ(rep.predicted.c_rmw_read, io.c_rmw_read);
        EXPECT_EQ(rep.predicted.c_reload_read, io.c_reload_read);
        const schedir::VerifyReport mem = schedir::cross_check_memsim(ir);
        EXPECT_TRUE(mem.ok()) << schedule_kind_name(kind) << ": "
                              << mem.codes();
    }
}

TEST(Locality, FullySharingKindsShareEveryTransition)
{
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kHilbert}) {
        const ScheduleIR ir = subject_ir(kind, Exec::kPipelined);
        const LocalityReport rep = locality::analyze_locality(ir);
        EXPECT_EQ(rep.shared_transitions, rep.steps - 1)
            << schedule_kind_name(kind);
        EXPECT_EQ(rep.predicted.c_reload_read, 0u);
    }
}

TEST(Locality, HilbertNeverPredictsMoreTrafficThanMorton)
{
    // Morton's power-of-2 jumps refetch both inputs (and can spill
    // partial C); Hilbert's grid-adjacent walk never does. Same geometry,
    // so the closed form must rank them accordingly.
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        const LocalityReport hilbert = locality::analyze_locality(
            subject_ir(ScheduleKind::kHilbert, exec));
        const LocalityReport morton = locality::analyze_locality(
            subject_ir(ScheduleKind::kMorton, exec));
        EXPECT_LE(hilbert.predicted.reads(), morton.predicted.reads());
        EXPECT_GE(hilbert.shared_transitions, morton.shared_transitions);
    }
}

TEST(Locality, HistogramAndLevelStatsAreConsistent)
{
    const ScheduleIR ir = subject_ir(ScheduleKind::kHilbert, Exec::kSerial);
    CacheHierarchy caches;
    CacheLevel tiny;
    tiny.level = 1;
    tiny.size_bytes = 1;  // everything misses
    CacheLevel huge;
    huge.level = 2;
    huge.size_bytes = std::numeric_limits<index_t>::max() / 2;
    caches.levels = {tiny, huge};
    const LocalityReport rep = locality::analyze_locality(ir, caches);
    ASSERT_TRUE(rep.ok()) << rep.codes();

    // Three surface touches per step, each classified exactly once.
    const std::uint64_t touches = static_cast<std::uint64_t>(rep.steps) * 3;
    std::uint64_t bucketed = rep.hist.immediate + rep.hist.cold;
    for (const std::uint64_t count : rep.hist.pow2) bucketed += count;
    EXPECT_EQ(bucketed, touches);
    // Cold touches = one per distinct surface (exact cover guarantees
    // every A, B and C surface appears).
    EXPECT_EQ(rep.hist.cold,
              static_cast<std::uint64_t>(ir.mb * ir.kb + ir.kb * ir.nb
                                         + ir.mb * ir.nb));

    ASSERT_EQ(rep.levels.size(), 2u);
    for (const locality::LevelStats& lv : rep.levels) {
        EXPECT_EQ(lv.hits + lv.misses + lv.cold, touches);
        EXPECT_EQ(lv.cold, rep.hist.cold);
    }
    // A 1-byte cache only hits distance-0 reuses; an unbounded one
    // never misses.
    EXPECT_EQ(rep.levels[0].hits, rep.hist.immediate);
    EXPECT_EQ(rep.levels[1].misses, 0u);
    EXPECT_GE(rep.levels[1].hits, rep.levels[0].hits);
}

TEST(Locality, EveryMutationRejectedWithItsCode)
{
    const LocMutation all[] = {
        LocMutation::kTwistOrder,
        LocMutation::kSkewFetch,
        LocMutation::kPhantomFetch,
        LocMutation::kInflateFlush,
    };
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        for (const LocMutation m : all) {
            ScheduleIR ir =
                subject_ir(ScheduleKind::kKFirstSerpentine, exec);
            const std::string expected =
                locality::apply_locality_mutation(ir, m);
            const LocalityReport rep = locality::analyze_locality(ir);
            EXPECT_TRUE(rep.has(expected))
                << schedir::exec_name(exec) << " "
                << locality::loc_mutation_name(m) << " reported ["
                << rep.codes() << "]";
        }
    }
}

TEST(Locality, MutationIsolationKeepsOtherCodesClean)
{
    // The byte-skew and flush-inflation corruptions must be caught by
    // their own check alone — proof the three obligations are independent
    // mechanisms, not one comparison wearing three codes.
    {
        ScheduleIR ir =
            subject_ir(ScheduleKind::kKFirstSerpentine, Exec::kPipelined);
        locality::apply_locality_mutation(ir, LocMutation::kSkewFetch);
        const LocalityReport rep = locality::analyze_locality(ir);
        EXPECT_TRUE(rep.has("LOC_SURFACE"));
        EXPECT_FALSE(rep.has("LOC_STACK"));
        EXPECT_FALSE(rep.has("LOC_TRAFFIC"));
    }
    {
        ScheduleIR ir =
            subject_ir(ScheduleKind::kKFirstSerpentine, Exec::kPipelined);
        locality::apply_locality_mutation(ir, LocMutation::kPhantomFetch);
        const LocalityReport rep = locality::analyze_locality(ir);
        EXPECT_TRUE(rep.has("LOC_STACK"));
        EXPECT_FALSE(rep.has("LOC_SURFACE"));
        EXPECT_FALSE(rep.has("LOC_TRAFFIC"));
    }
    {
        ScheduleIR ir =
            subject_ir(ScheduleKind::kKFirstSerpentine, Exec::kPipelined);
        locality::apply_locality_mutation(ir, LocMutation::kInflateFlush);
        const LocalityReport rep = locality::analyze_locality(ir);
        EXPECT_TRUE(rep.has("LOC_TRAFFIC"));
        EXPECT_FALSE(rep.has("LOC_SURFACE"));
        EXPECT_FALSE(rep.has("LOC_STACK"));
    }
}

TEST(Locality, GotoPlanIsAnalysed)
{
    // The GOTO plan is a block order like any other: the analyzer takes
    // its carry-over rule (only the B panel carried) and predicts its
    // traffic byte-exactly, C revisited once per later kc pass.
    const MachineSpec machine = intel_i9_10900k();
    const ScheduleIR goto_ir = schedir::extract_cake_ir(
        {500, 500, 500}, goto_plan_params(machine, machine.cores, 6, 16),
        ScheduleKind::kGoto, Exec::kSerial);
    const LocalityReport rep = locality::analyze_locality(goto_ir);
    EXPECT_TRUE(rep.ok()) << rep.codes();
    const schedir::IoTotals io = schedir::io_totals(goto_ir);
    EXPECT_EQ(rep.predicted.reads(), io.reads());
    EXPECT_EQ(rep.predicted.writes(), io.writes());
    EXPECT_EQ(rep.predicted.c_reload_read,
              static_cast<std::uint64_t>(500 * 500 * 4)
                  * static_cast<std::uint64_t>(goto_ir.kb - 1));
}

}  // namespace
}  // namespace cake
