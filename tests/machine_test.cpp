// Machine-preset tests: the Table 2 configurations and the extrapolation
// protocol for internal bandwidth.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "machine/machine.hpp"

namespace cake {
namespace {

TEST(Presets, Table2Values)
{
    const MachineSpec intel = intel_i9_10900k();
    EXPECT_EQ(intel.cores, 10);
    EXPECT_EQ(intel.llc_bytes(), 20u * 1024 * 1024);
    EXPECT_DOUBLE_EQ(intel.dram_bw_gbs, 40.0);
    EXPECT_EQ(intel.caches.level(2)->size_bytes, 256u * 1024);

    const MachineSpec amd = amd_ryzen_5950x();
    EXPECT_EQ(amd.cores, 16);
    EXPECT_EQ(amd.llc_bytes(), 64u * 1024 * 1024);
    EXPECT_DOUBLE_EQ(amd.dram_bw_gbs, 47.0);

    const MachineSpec arm = arm_cortex_a53();
    EXPECT_EQ(arm.cores, 4);
    EXPECT_FALSE(arm.caches.level(3).has_value()) << "A53 has no L3";
    EXPECT_EQ(arm.llc_bytes(), 512u * 1024) << "shared L2 is the LLC";
    EXPECT_DOUBLE_EQ(arm.dram_bw_gbs, 2.0);
}

TEST(Presets, InternalBwCurveCoversAllCores)
{
    for (const MachineSpec& m : table2_machines()) {
        EXPECT_EQ(static_cast<int>(m.internal_bw_gbs.size()), m.cores)
            << m.name;
        for (int p = 2; p <= m.cores; ++p) {
            EXPECT_GE(m.internal_bw_at(p), m.internal_bw_at(p - 1) - 1e-9)
                << m.name << " internal BW must be non-decreasing";
        }
    }
}

TEST(Presets, InternalBwExtrapolatesPastMeasuredRange)
{
    const MachineSpec intel = intel_i9_10900k();
    // Paper protocol: line through the last two points.
    const double d = intel.internal_bw_at(10) - intel.internal_bw_at(9);
    EXPECT_NEAR(intel.internal_bw_at(12), intel.internal_bw_at(10) + 2 * d,
                1e-9);
}

TEST(Presets, PeakThroughputScalesLinearly)
{
    const MachineSpec amd = amd_ryzen_5950x();
    EXPECT_DOUBLE_EQ(amd.peak_gflops(16), 16 * amd.core_gflops);
}

TEST(Presets, IntelBwFlattensPastSixCores)
{
    // Fig. 10c: linear to 6 cores, then sub-linear.
    const MachineSpec intel = intel_i9_10900k();
    const double slope_early =
        intel.internal_bw_at(6) - intel.internal_bw_at(5);
    const double slope_late =
        intel.internal_bw_at(10) - intel.internal_bw_at(9);
    EXPECT_LT(slope_late, slope_early);
}

TEST(MachineByName, Aliases)
{
    for (const char* name : {"intel", "i9", "intel_i9_10900k", "intel-i9",
                             "intel-i9-10900k"}) {
        EXPECT_EQ(machine_by_name(name).name, intel_i9_10900k().name) << name;
    }
    for (const char* name : {"amd", "5950x", "amd_ryzen_5950x", "amd-5950x"}) {
        EXPECT_EQ(machine_by_name(name).name, amd_ryzen_5950x().name) << name;
    }
    for (const char* name : {"arm", "a53", "arm_cortex_a53", "arm-a53"}) {
        EXPECT_EQ(machine_by_name(name).name, arm_cortex_a53().name) << name;
    }
    EXPECT_EQ(machine_by_name("host").name, "host");
    EXPECT_THROW(machine_by_name("m1"), Error);
}

TEST(HostMachine, WellFormed)
{
    const MachineSpec host = host_machine();
    EXPECT_GE(host.cores, 1);
    EXPECT_GT(host.llc_bytes(), 0u);
    EXPECT_GT(host.internal_bw_at(1), 0.0);
}

}  // namespace
}  // namespace cake
