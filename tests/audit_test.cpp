// Tests for the static invariant auditor (src/core/audit): every Table-2
// preset must produce clean plans over the paper's shape classes, and each
// deliberately corrupted plan must fail with its precise issue code.
#include <gtest/gtest.h>

#include "core/audit.hpp"
#include "machine/machine.hpp"

namespace cake {
namespace {

GemmShape square() { return {2000, 2000, 2000}; }

TEST(AuditTest, Table2PresetsPassAllShapeClasses)
{
    const GemmShape shapes[] = {
        {2000, 2000, 2000},  // square
        {8000, 256, 2048},   // M-heavy skewed
        {3000, 3000, 96},    // shallow-K panel
    };
    for (const MachineSpec& machine : table2_machines()) {
        for (const index_t elem_bytes : {4, 8}) {
            TilingOptions opts;
            opts.elem_bytes = elem_bytes;
            const index_t nr = elem_bytes == 8 ? 8 : 16;
            for (const GemmShape& shape : shapes) {
                const AuditReport report = audit_cb_plan(
                    machine, machine.cores, 6, nr, shape, opts);
                EXPECT_TRUE(report.ok())
                    << machine.name << " elem=" << elem_bytes << " shape="
                    << shape.m << "x" << shape.n << "x" << shape.k << ": "
                    << report.codes();
                EXPECT_TRUE(report.solver_ok);
                EXPECT_GT(report.grid_mb, 0);
                EXPECT_GT(report.grid_nb, 0);
                EXPECT_GT(report.grid_kb, 0);
            }
        }
    }
}

TEST(AuditTest, OversizedMcFailsL2Residency)
{
    TilingOptions opts;
    opts.mc = 600;  // 600*600*4 B = 1.4 MB >> half of the 256 KiB L2
    const AuditReport report =
        audit_cb_plan(intel_i9_10900k(), 10, 6, 16, square(), opts);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.codes().find("L2_RESIDENCY"), std::string::npos)
        << report.codes();
    // The diagnostic must carry both sides of the violated inequality.
    bool found = false;
    for (const Issue& issue : report.issues) {
        if (issue.code == "L2_RESIDENCY") {
            found = true;
            EXPECT_NE(issue.message.find("600"), std::string::npos);
            EXPECT_NE(issue.message.find("131072"), std::string::npos)
                << issue.message;
        }
    }
    EXPECT_TRUE(found);
}

TEST(AuditTest, OversizedAlphaFailsLlcLru)
{
    TilingOptions opts;
    opts.alpha = 64.0;  // stretches n_blk far past the LLC share
    const AuditReport report =
        audit_cb_plan(intel_i9_10900k(), 10, 6, 16, square(), opts);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.codes().find("LLC_LRU"), std::string::npos)
        << report.codes();
}

TEST(AuditTest, UnsolvableConfigurationReportsSolverCode)
{
    // A machine with no cache hierarchy at all defeats the solver itself
    // (no level to size the CB block against) — the failure cannot be
    // diagnosed from the overrides alone, so it surfaces as SOLVER.
    MachineSpec machine = intel_i9_10900k();
    machine.caches = {};
    const AuditReport report =
        audit_cb_plan(machine, 10, 6, 16, square());
    EXPECT_FALSE(report.solver_ok);
    EXPECT_EQ(report.codes(), "SOLVER");
}

TEST(AuditTest, MisalignedMcOverrideReportsOverrideCode)
{
    TilingOptions opts;
    opts.mc = 601;  // not a multiple of mr = 6
    const AuditReport report =
        audit_cb_plan(intel_i9_10900k(), 10, 6, 16, square(), opts);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.codes(), "OVERRIDE");
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_NE(report.issues[0].message.find("601"), std::string::npos);
    EXPECT_NE(report.issues[0].message.find("mr=6"), std::string::npos)
        << report.issues[0].message;
}

TEST(AuditTest, ConflictingAlphaAndNcOverridesReportOverrideCode)
{
    TilingOptions opts;
    opts.alpha = 1.5;
    opts.nc = 512;  // alpha would derive the N extent nc now pins
    const AuditReport report =
        audit_cb_plan(intel_i9_10900k(), 10, 6, 16, square(), opts);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.codes(), "OVERRIDE");
}

TEST(AuditTest, NonPositiveShapeReportsShapeCode)
{
    const AuditReport report =
        audit_cb_plan(intel_i9_10900k(), 10, 6, 16, {0, 2000, 2000});
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.codes(), "SHAPE");
}

TEST(AuditTest, OperandsBeyondDramReportCapacityCode)
{
    // The A53 preset has 1 GiB of DRAM; three 16k x 16k f64 operands need
    // ~6 GB.
    TilingOptions opts;
    opts.elem_bytes = 8;
    const AuditReport report = audit_cb_plan(arm_cortex_a53(), 4, 6, 8,
                                             {16384, 16384, 16384}, opts);
    EXPECT_NE(report.codes().find("DRAM_CAPACITY"), std::string::npos)
        << report.codes();
}

TEST(AuditTest, AuditsEveryScheduleKind)
{
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        const AuditReport report = audit_cb_plan(
            intel_i9_10900k(), 10, 6, 16, square(), {}, kind);
        EXPECT_TRUE(report.ok())
            << "schedule kind " << static_cast<int>(kind) << ": "
            << report.codes();
    }
}

}  // namespace
}  // namespace cake
