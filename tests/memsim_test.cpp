// Cache-simulator and trace-replay tests.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"
#include "memsim/cache_sim.hpp"
#include "memsim/trace.hpp"

namespace cake {
namespace {

using memsim::CacheSim;
using memsim::HierarchySim;
using memsim::MemCounters;

TEST(CacheSim, DirectMappedBasics)
{
    CacheSim cache(4 * 64, 64, 1);  // 4 lines, direct mapped
    EXPECT_EQ(cache.sets(), 4u);
    EXPECT_FALSE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(0, false).hit);
    // Line 4 maps to the same set as line 0 and evicts it.
    EXPECT_FALSE(cache.access(4, false).hit);
    EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(CacheSim, LruEvictionOrder)
{
    CacheSim cache(2 * 64, 64, 2);  // one set, two ways
    cache.access(0, false);
    cache.access(1, false);
    cache.access(0, false);  // 0 is now MRU, 1 is LRU
    cache.access(2, false);  // evicts 1
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(1, false).hit);
}

TEST(CacheSim, DirtyWritebackReported)
{
    CacheSim cache(64, 64, 1);  // a single line
    cache.access(7, true);      // dirty
    const auto r = cache.access(8, false);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(r.evicted_line, 7u);
    // Clean eviction reports nothing.
    const auto r2 = cache.access(9, false);
    EXPECT_FALSE(r2.evicted_dirty);
}

TEST(CacheSim, WorkingSetWithinCapacityAlwaysHits)
{
    CacheSim cache(64 * 64, 64, 8);
    for (int pass = 0; pass < 3; ++pass) {
        int misses = 0;
        for (std::uint64_t line = 0; line < 64; ++line)
            misses += cache.access(line, false).hit ? 0 : 1;
        if (pass > 0) {
            EXPECT_EQ(misses, 0) << "pass " << pass;
        }
    }
}

TEST(CacheSim, ClearInvalidates)
{
    CacheSim cache(64 * 64, 64, 8);
    cache.access(1, false);
    cache.clear();
    EXPECT_FALSE(cache.access(1, false).hit);
}

TEST(HierarchySim, LineExpansionCountsProbes)
{
    HierarchySim sim(intel_i9_10900k(), 1);
    sim.access(0, 0, 64, false);    // one line
    sim.access(0, 100, 200, false); // lines 1..4 (addr 100-299)
    EXPECT_EQ(sim.counters().accesses, 1u + 4u);
}

TEST(HierarchySim, RepeatAccessHitsL1)
{
    HierarchySim sim(intel_i9_10900k(), 2);
    sim.access(0, 4096, 64, false);
    sim.access(0, 4096, 64, false);
    EXPECT_EQ(sim.counters().l1_hits, 1u);
    EXPECT_EQ(sim.counters().dram_accesses, 1u);
    // A different core has its own L1: same line misses L1 but hits LLC.
    sim.access(1, 4096, 64, false);
    EXPECT_EQ(sim.counters().l1_hits, 1u);
    EXPECT_GE(sim.counters().llc_hits + sim.counters().l2_hits, 1u);
    EXPECT_EQ(sim.counters().dram_accesses, 1u);
}

TEST(HierarchySim, ArmHasNoPrivateL2)
{
    HierarchySim sim(arm_cortex_a53(), 4);
    sim.access(0, 0, 64, false);
    sim.access(1, 0, 64, false);
    EXPECT_EQ(sim.counters().l2_hits, 0u) << "A53: shared L2 is the LLC";
    EXPECT_EQ(sim.counters().llc_hits, 1u);
}

TEST(Stalls, AttributionUsesLatencies)
{
    MemCounters c;
    c.l1_hits = 10;
    c.llc_hits = 2;
    c.dram_accesses = 1;
    const auto s = memsim::attribute_stalls(c, {4, 14, 50, 250});
    EXPECT_DOUBLE_EQ(s.l1, 40);
    EXPECT_DOUBLE_EQ(s.l2, 0);
    EXPECT_DOUBLE_EQ(s.llc, 100);
    EXPECT_DOUBLE_EQ(s.dram, 250);
}

TEST(TraceReplay, CakeShiftsTrafficToLocalMemory)
{
    // Fig. 7 shape: CAKE serves more requests from cache levels and makes
    // fewer DRAM accesses than GOTO on the same problem. The matrices must
    // exceed the 20 MiB L3 (as the paper's 10000^2 operands do), otherwise
    // GOTO's partial-C streaming never leaves the LLC.
    const MachineSpec intel = intel_i9_10900k();
    const GemmShape shape{2304, 2304, 2304};
    const auto cake = memsim::simulate_cake_memory(intel, 4, shape);
    const auto gto = memsim::simulate_goto_memory(intel, 4, shape);

    EXPECT_LT(cake.counters.dram_accesses, gto.counters.dram_accesses);
    EXPECT_LT(cake.stalls.dram, gto.stalls.dram);
    // GOTO's DRAM lines: the stream of the GOTO plan the executor runs
    // (trace_cake of goto_plan_params under ScheduleKind::kGoto).
    EXPECT_EQ(gto.counters.dram_accesses, 5031126u);
    EXPECT_EQ(gto.counters.dram_writebacks, 338580u);
    EXPECT_EQ(gto.counters.dram_prefetch_fills, 0u);
    // Both designs hit caches far more often than DRAM overall.
    EXPECT_GT(cake.counters.l1_hits, cake.counters.dram_accesses);
}

TEST(TraceReplay, ArmShapeMatchesFig7b)
{
    // Fig. 7b: on the A53, the GOTO-style baseline performs a multiple of
    // CAKE's DRAM requests (paper reports ~2.5x for ARMPL).
    const MachineSpec arm = arm_cortex_a53();
    const GemmShape shape{384, 384, 384};
    const auto cake = memsim::simulate_cake_memory(arm, 4, shape);
    const auto gto = memsim::simulate_goto_memory(arm, 4, shape);
    EXPECT_GT(static_cast<double>(gto.counters.dram_accesses),
              1.5 * static_cast<double>(cake.counters.dram_accesses));
    // Pinned like the Intel shape above.
    EXPECT_EQ(gto.counters.dram_accesses, 115113u);
    EXPECT_EQ(gto.counters.dram_writebacks, 10458u);
    EXPECT_EQ(gto.counters.dram_prefetch_fills, 0u);
}

TEST(TraceReplay, DramTrafficLowerBoundedByCompulsoryMisses)
{
    // Compulsory traffic: both inputs must be read at least once and the
    // result written at least once.
    const MachineSpec intel = intel_i9_10900k();
    const GemmShape shape{512, 512, 512};
    const auto cake = memsim::simulate_cake_memory(intel, 2, shape);
    const double compulsory =
        3.0 * 512 * 512 * sizeof(float);  // A + B + C, once each
    EXPECT_GE(static_cast<double>(
                  cake.counters.dram_bytes(cake.line_bytes)),
              compulsory);
}

TEST(TraceReplay, AlphaReducesCakeDramTraffic)
{
    // The CB-shaping lever (§3.2): on a bandwidth-starved machine, a
    // larger alpha re-uses the A surface across a wider N stretch and
    // lowers external traffic per FLOP.
    MachineSpec arm = arm_cortex_a53();
    const GemmShape shape{512, 512, 512};
    TilingOptions narrow;
    narrow.mc = 24;
    narrow.alpha = 1.0;
    TilingOptions wide;
    wide.mc = 24;
    wide.alpha = 4.0;
    const auto t_narrow = memsim::simulate_cake_memory(arm, 4, shape, narrow);
    const auto t_wide = memsim::simulate_cake_memory(arm, 4, shape, wide);
    EXPECT_LT(t_wide.counters.dram_accesses, t_narrow.counters.dram_accesses);
}

}  // namespace
}  // namespace cake
