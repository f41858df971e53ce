// Kernel-IR static checker tests: every registered micro-kernel's IR
// verifies clean and lane-fingerprints against its binary, every KIR_*
// mutation is rejected in isolation, the spill and throughput arithmetic
// is pinned on synthetic IRs, and the static peak table obeys its own
// invariants and matches its pinned rows (the roofline consumes it).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/kernelcheck.hpp"
#include "kernel/kernel_ir.hpp"
#include "kernel/registry.hpp"
#include "model/kernel_peak.hpp"

namespace {

using cake::Isa;
using cake::KernelIr;
using cake::KirAccStorage;
using cake::kernelcheck::check_kernel;
using cake::kernelcheck::KernelReport;
using cake::kernelcheck::KirMutation;
using cake::kernelcheck::verify_kernel_ir;

/// Minimal valid synthetic IR: 2x2 scalar tile, one accumulator per
/// element, registers storage. A fixture the arithmetic tests corrupt.
KernelIr synthetic_ir()
{
    KernelIr ir;
    ir.kernel = "synthetic_2x2";
    ir.family = "f32";
    ir.isa = Isa::kScalar;
    ir.mr = 2;
    ir.nr = 2;
    ir.lanes = 1;
    ir.quad = 1;
    ir.acc_storage = KirAccStorage::kRegisters;
    ir.acc_regs = 4;
    ir.a_regs = 1;
    ir.b_regs = 1;
    ir.tmp_regs = 0;
    ir.const_regs = 0;
    ir.reg_budget = 16;
    ir.chain_updates = 1;
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            ir.fmas.push_back({i * 2 + j, i, j});
            ir.stores.push_back({i * 2 + j, i, j});
        }
    }
    return ir;
}

/// True if the host can run the kernel `ir` describes, by its family's
/// ISA-support rule.
bool host_can_run(const KernelIr& ir)
{
    bool runnable = false;
    cake::for_each_kernel_family([&]<typename F>() {
        if (ir.family == cake::KernelFamily<F>::name) {
            runnable = cake::KernelFamily<F>::isa_ok(ir.isa);
        }
    });
    return runnable;
}

TEST(KernelCheck, EveryRegisteredIrVerifiesClean)
{
    const std::vector<KernelIr>& irs = cake::all_kernel_irs();
    ASSERT_GE(irs.size(), 3u);  // scalar f32/f64/i8 always compiled
    for (const KernelIr& ir : irs) {
        const KernelReport report = verify_kernel_ir(ir);
        EXPECT_TRUE(report.ok())
            << ir.kernel << " reported [" << report.codes() << "]";
        EXPECT_GT(report.ops_per_cycle, 0.0) << ir.kernel;
        EXPECT_EQ(report.derived_chain, ir.chain_updates) << ir.kernel;
        EXPECT_EQ(report.derived_fma_uops, ir.fma_uops) << ir.kernel;
    }
}

TEST(KernelCheck, EveryKernelBinaryMatchesItsIr)
{
    for (const KernelIr& ir : cake::all_kernel_irs()) {
        const KernelReport report = check_kernel(ir);
        EXPECT_TRUE(report.ok())
            << ir.kernel << " reported [" << report.codes() << "]";
        // The fingerprint must run exactly when the host can execute the
        // kernel — and a clean report with fingerprinted=true IS the
        // lane-level proof that IR and binary agree.
        EXPECT_EQ(report.fingerprinted, host_can_run(ir)) << ir.kernel;
    }
}

TEST(KernelCheck, EveryRegistryKernelHasAnIr)
{
    cake::for_each_microkernel([](const auto& k) {
        using Family =
            cake::KernelFamily<typename std::decay_t<decltype(k)>::Family>;
        const KernelIr* ir = cake::kernel_ir_for(k.name);
        ASSERT_NE(ir, nullptr) << k.name;
        EXPECT_EQ(ir->mr, k.mr) << k.name;
        EXPECT_EQ(ir->nr, k.nr) << k.name;
        EXPECT_EQ(ir->isa, k.isa) << k.name;
        EXPECT_EQ(ir->family, Family::name) << k.name;
        EXPECT_EQ(ir->quad, Family::k_step) << k.name;
    });
}

TEST(KernelCheck, EveryMutationRejectedInIsolationOnEveryKernel)
{
    for (const KernelIr& clean : cake::all_kernel_irs()) {
        ASSERT_TRUE(verify_kernel_ir(clean).ok()) << clean.kernel;
        for (int m = 0; m < cake::kernelcheck::kKirMutationCount; ++m) {
            KernelIr ir = clean;
            const std::string expected =
                cake::kernelcheck::apply_kernel_mutation(
                    ir, static_cast<KirMutation>(m));
            const KernelReport report = verify_kernel_ir(ir);
            EXPECT_TRUE(report.has(expected))
                << clean.kernel << " "
                << cake::kernelcheck::kir_mutation_name(
                       static_cast<KirMutation>(m))
                << " reported [" << report.codes() << "]";
            // Isolation: exactly the expected code, nothing else.
            EXPECT_EQ(report.codes(), expected)
                << clean.kernel << " "
                << cake::kernelcheck::kir_mutation_name(
                       static_cast<KirMutation>(m));
        }
    }
}

TEST(KernelCheck, UnregisteredIrFailsTheRegistryBinding)
{
    KernelIr ir = synthetic_ir();  // not a registry name
    EXPECT_TRUE(verify_kernel_ir(ir).ok());
    const KernelReport report = check_kernel(ir);
    EXPECT_TRUE(report.has("KIR_MALFORMED"));
    EXPECT_FALSE(report.fingerprinted);
}

TEST(KernelCheck, GeometryDriftFailsTheRegistryBinding)
{
    const KernelIr* real = cake::kernel_ir_for("scalar_8x8");
    ASSERT_NE(real, nullptr);
    KernelIr ir = *real;
    ir.nr = 4;  // registry says 8x8
    // Rebuild a consistent store map so only the binding disagrees.
    ir.fmas.clear();
    ir.stores.clear();
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 4; ++j) {
            ir.fmas.push_back({i * 4 + j, i, j});
            ir.stores.push_back({i * 4 + j, i, j});
        }
    }
    ir.acc_regs = 32;
    ASSERT_TRUE(verify_kernel_ir(ir).ok());
    EXPECT_TRUE(check_kernel(ir).has("KIR_MALFORMED"));
}

TEST(KernelCheck, StructurallyBrokenIrIsMalformed)
{
    KernelIr ir = synthetic_ir();
    ir.fmas.clear();
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_MALFORMED"));

    ir = synthetic_ir();
    ir.fmas[0].a_row = 7;  // outside mr=2
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_MALFORMED"));

    ir = synthetic_ir();
    ir.stores[0].acc = 99;  // outside acc_regs=4
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_MALFORMED"));
}

TEST(KernelCheck, SpillArithmeticIsExact)
{
    // Registers: 4 + 1 + 1 = 6 of 16 -> free; budget 5 -> spill.
    KernelIr ir = synthetic_ir();
    std::string why;
    EXPECT_TRUE(cake::kir_spill_free(ir, &why)) << why;
    ir.reg_budget = 5;
    EXPECT_FALSE(cake::kir_spill_free(ir, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_SPILL"));

    // Stack tile: bytes = acc_regs * elem_bytes against the 4 KiB budget.
    ir = synthetic_ir();
    ir.acc_storage = KirAccStorage::kStackTile;
    EXPECT_TRUE(cake::kir_spill_free(ir, &why)) << why;
    ir.acc_regs = cake::kKirStackTileBudgetBytes / 4 + 1;
    // Keep the dataflow indices valid: acc range grew, stores unchanged
    // still reference accs 0..3, so only SPILL may fire...
    const KernelReport report = verify_kernel_ir(ir);
    EXPECT_TRUE(report.has("KIR_SPILL"));
    EXPECT_EQ(report.codes(), "KIR_SPILL");
}

TEST(KernelCheck, ThroughputChainIsDerivedFromTheFmaList)
{
    // Fold the 2x2 tile onto 2 accumulators: 2 updates per acc per step.
    KernelIr ir = synthetic_ir();
    ir.acc_regs = 2;
    ir.fmas.clear();
    ir.stores.clear();
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            ir.fmas.push_back({i, i, j});
        }
        // One store per acc cannot cover 2 elements with lanes=1 — use a
        // per-element store map that shares the row accumulator; KIR_ACC
        // fires for the conflicting stores, so only check the chain here.
        ir.stores.push_back({i, i, 0});
        ir.stores.push_back({i, i, 1});
    }
    ir.chain_updates = 2;
    const KernelReport honest = verify_kernel_ir(ir);
    EXPECT_EQ(honest.derived_chain, 2);
    EXPECT_FALSE(honest.has("KIR_THROUGHPUT"));

    ir.chain_updates = 1;  // lie: claims full accumulator parallelism
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_THROUGHPUT"));
}

TEST(KernelCheck, FmaUopsAreDerivedFromTheIdiom)
{
    // A quad kernel with product temporaries and a `ones` constant is the
    // three-µop widening idiom.
    KernelIr ir = synthetic_ir();
    ir.family = "i8";
    ir.quad = 4;
    ir.tmp_regs = 2;
    ir.const_regs = 1;
    ir.fma_uops = 3;
    const KernelReport honest = verify_kernel_ir(ir);
    EXPECT_EQ(honest.derived_fma_uops, 3);
    EXPECT_FALSE(honest.has("KIR_THROUGHPUT"));

    ir.fma_uops = 1;  // lie: claims one vpdpbusd per slot, a 3x roof
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_THROUGHPUT"));

    // Without temporaries the quad slot is one vpdpbusd.
    ir.tmp_regs = 0;
    ir.const_regs = 0;
    EXPECT_FALSE(verify_kernel_ir(ir).has("KIR_THROUGHPUT"));
    ir.fma_uops = 3;  // over-declared: the roof would be understated
    EXPECT_TRUE(verify_kernel_ir(ir).has("KIR_THROUGHPUT"));
}

TEST(KernelPeak, TableInvariantsHold)
{
    const std::vector<cake::model::KernelPeakRow> rows =
        cake::model::kernel_peak_table();
    ASSERT_EQ(rows.size(), cake::all_kernel_irs().size());
    double scalar_f32 = 0, avx2_f32 = 0, avx512_f32 = 0;
    for (const auto& row : rows) {
        EXPECT_GT(row.utilization, 0.0) << row.kernel;
        EXPECT_LE(row.utilization, 1.0) << row.kernel;
        EXPECT_GT(row.ops_per_cycle, 0.0) << row.kernel;
        if (row.family == "f32") {
            if (row.isa == Isa::kScalar) scalar_f32 = row.ops_per_cycle;
            if (row.isa == Isa::kAvx2) avx2_f32 = row.ops_per_cycle;
            if (row.isa == Isa::kAvx512) avx512_f32 = row.ops_per_cycle;
        }
    }
    // Wider ISAs must never bound BELOW narrower ones (compiled subsets
    // may leave some at 0 = absent).
    if (avx2_f32 > 0) {
        EXPECT_GE(avx2_f32, scalar_f32);
    }
    if (avx512_f32 > 0 && avx2_f32 > 0) {
        EXPECT_GE(avx512_f32, avx2_f32);
    }
}

/// One committed kernel_peak_table() row: the static roof of one kernel.
struct KernelPeakPin {
    const char* kernel;
    Isa isa;
    int lanes;
    int regs_used;
    int chain_updates;
    double utilization;
    double ops_per_cycle;
};

TEST(KernelPeak, EveryCompiledKernelRowIsPinned)
{
    // Pure IR-descriptor arithmetic, identical on every host that compiled
    // the same kernels: a changed IR or pipe model must update this table.
    constexpr KernelPeakPin kPins[] = {
        {"scalar_8x8", Isa::kScalar, 1, 66, 1, 1, 2},
        {"scalar_8x8_f64", Isa::kScalar, 1, 66, 1, 1, 2},
        {"scalar_int8_4x4", Isa::kScalar, 1, 18, 1, 1, 8},
        {"avx2_6x16", Isa::kAvx2, 8, 15, 1, 1, 32},
        {"avx2_6x8_f64", Isa::kAvx2, 4, 15, 1, 1, 16},
        {"avx2_int8_4x16", Isa::kAvx2, 8, 14, 1, 1, 64},
        {"avx512_14x32", Isa::kAvx512, 16, 31, 1, 1, 64},
        {"avx512_14x16_f64", Isa::kAvx512, 8, 31, 1, 1, 32},
        {"avx512_vnni_int8_8x32", Isa::kAvx512, 16, 19, 1, 1, 256},
        // Tile form: 4 C + 2 A + 2 B tiles; one tdpbusd (16 x 16 x 64
        // multiply-adds) per 16 cycles.
        {"amx_int8_32x32", Isa::kAmx, 16, 8, 1, 1, 2048},
    };
    const std::vector<cake::model::KernelPeakRow> rows =
        cake::model::kernel_peak_table();
    std::vector<Isa> compiled_isas;
    for (const auto& row : rows) {
        compiled_isas.push_back(row.isa);
        const KernelPeakPin* pin = nullptr;
        for (const KernelPeakPin& p : kPins) {
            if (row.kernel == p.kernel) pin = &p;
        }
        ASSERT_NE(pin, nullptr) << row.kernel << " has no pinned row";
        EXPECT_EQ(row.isa, pin->isa) << row.kernel;
        EXPECT_EQ(row.lanes, pin->lanes) << row.kernel;
        EXPECT_EQ(row.regs_used, pin->regs_used) << row.kernel;
        EXPECT_EQ(row.chain_updates, pin->chain_updates) << row.kernel;
        EXPECT_DOUBLE_EQ(row.utilization, pin->utilization) << row.kernel;
        EXPECT_DOUBLE_EQ(row.ops_per_cycle, pin->ops_per_cycle)
            << row.kernel;
    }
    // Every pinned kernel of a compiled ISA is in the table (scalar always
    // is), so a kernel cannot drop out of the roofline unnoticed.
    for (const KernelPeakPin& pin : kPins) {
        if (std::find(compiled_isas.begin(), compiled_isas.end(), pin.isa)
            == compiled_isas.end()) {
            EXPECT_NE(pin.isa, Isa::kScalar) << pin.kernel;
            continue;
        }
        EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                                [&](const cake::model::KernelPeakRow& row) {
                                    return row.kernel == pin.kernel;
                                }))
            << pin.kernel << " is pinned but absent";
    }
}

TEST(KernelPeak, GflopsScalesLinearlyWithFrequency)
{
    const std::vector<KernelIr>& irs = cake::all_kernel_irs();
    ASSERT_FALSE(irs.empty());
    const KernelIr& ir = irs.front();
    const double at1 = cake::model::kernel_peak_gflops(ir, 1.0);
    EXPECT_DOUBLE_EQ(cake::model::kernel_peak_gflops(ir, 2.5), at1 * 2.5);
    EXPECT_EQ(at1, cake::model::kernel_peak_row(ir).ops_per_cycle);
}

TEST(KernelGate, ReleaseGateAcceptsProvenAndRefusesUnknown)
{
    // Every registered kernel passes the release-side admission gate.
    for (const KernelIr& ir : cake::all_kernel_irs()) {
        std::string why;
        EXPECT_TRUE(cake::kernel_gate_ok(ir.kernel, &why))
            << ir.kernel << ": " << why;
    }
    std::string why;
    EXPECT_FALSE(cake::kernel_gate_ok("no_such_kernel", &why));
    EXPECT_FALSE(why.empty());
}

}  // namespace
