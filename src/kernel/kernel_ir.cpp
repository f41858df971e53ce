// IR descriptors for every compiled micro-kernel. Each descriptor is a
// faithful transcription of its kernel's source (kernel_scalar.cpp,
// kernel_avx2.cpp, kernel_avx512.cpp, kernel_int8_*.cpp); the
// analysis-side prover cross-checks the transcription against the actual
// binary with the lane-fingerprint equivalence run, so a descriptor that
// drifts from its kernel fails CI rather than quietly mis-modelling it.
#include "kernel/kernel_ir.hpp"

#include "kernel/registry.hpp"

namespace cake {
namespace {

/// All registered kernels share one loop shape: for each row i, one FMA
/// per B slice h into accumulator i*halves + h, stored to C(i, h*lanes).
KernelIr row_panel_ir(std::string name, std::string family, Isa isa,
                      index_t mr, index_t nr, int lanes, int quad,
                      KirAccStorage storage, int a_regs, int b_regs,
                      int tmp_regs, int const_regs, int reg_budget,
                      int fma_uops = 1)
{
    KernelIr ir;
    ir.kernel = std::move(name);
    ir.family = std::move(family);
    ir.isa = isa;
    ir.mr = mr;
    ir.nr = nr;
    ir.lanes = lanes;
    ir.quad = quad;
    ir.acc_storage = storage;
    ir.a_regs = a_regs;
    ir.b_regs = b_regs;
    ir.tmp_regs = tmp_regs;
    ir.const_regs = const_regs;
    ir.reg_budget = reg_budget;
    ir.chain_updates = 1;  // each acc is updated once per k-step
    ir.fma_uops = fma_uops;
    const int halves = static_cast<int>(nr) / lanes;
    ir.acc_regs = static_cast<int>(mr) * halves;
    for (int i = 0; i < static_cast<int>(mr); ++i) {
        for (int h = 0; h < halves; ++h) {
            ir.fmas.push_back({i * halves + h, i, h * lanes});
            ir.stores.push_back({i * halves + h, i, h * lanes});
        }
    }
    return ir;
}

std::vector<KernelIr> build_all_irs()
{
    std::vector<KernelIr> irs;

    // Scalar kernels keep the whole mr x nr accumulator tile on the stack
    // and let the compiler schedule it (kernel_scalar.cpp); their register
    // obligation is the stack-tile budget, not the architectural file.
    irs.push_back(row_panel_ir("scalar_8x8", "f32", Isa::kScalar, 8, 8,
                               /*lanes=*/1, /*quad=*/1,
                               KirAccStorage::kStackTile, /*a=*/1, /*b=*/1,
                               /*tmp=*/0, /*const=*/0, /*budget=*/16));
    irs.push_back(row_panel_ir("scalar_8x8_f64", "f64", Isa::kScalar, 8, 8,
                               1, 1, KirAccStorage::kStackTile, 1, 1, 0, 0,
                               16));
    irs.push_back(row_panel_ir("scalar_int8_4x4", "i8", Isa::kScalar, 4, 4,
                               1, 4, KirAccStorage::kStackTile, 1, 1, 0, 0,
                               16));

#if defined(CAKE_HAVE_AVX2_KERNEL)
    // 12 ymm accumulators + 1 broadcast + 2 B loads = 15 of 16.
    irs.push_back(row_panel_ir("avx2_6x16", "f32", Isa::kAvx2, 6, 16,
                               /*lanes=*/8, 1, KirAccStorage::kRegisters,
                               1, 2, 0, 0, 16));
    irs.push_back(row_panel_ir("avx2_6x8_f64", "f64", Isa::kAvx2, 6, 8,
                               /*lanes=*/4, 1, KirAccStorage::kRegisters,
                               1, 2, 0, 0, 16));
    // 8 acc + 1 broadcast + 2 B + 2 madd products + `ones` = 14 of 16;
    // vpmaddubsw + vpmaddwd + vpaddd = 3 µops per FMA slot.
    irs.push_back(row_panel_ir("avx2_int8_4x16", "i8", Isa::kAvx2, 4, 16,
                               /*lanes=*/8, /*quad=*/4,
                               KirAccStorage::kRegisters, 1, 2, /*tmp=*/2,
                               /*const=*/1, 16, /*fma_uops=*/3));
#endif
#if defined(CAKE_HAVE_AVX512_KERNEL)
    // 28 zmm accumulators + 1 broadcast + 2 B loads = 31 of 32.
    irs.push_back(row_panel_ir("avx512_14x32", "f32", Isa::kAvx512, 14, 32,
                               /*lanes=*/16, 1, KirAccStorage::kRegisters,
                               1, 2, 0, 0, 32));
    irs.push_back(row_panel_ir("avx512_14x16_f64", "f64", Isa::kAvx512, 14,
                               16, /*lanes=*/8, 1,
                               KirAccStorage::kRegisters, 1, 2, 0, 0, 32));
    // 16 acc + 1 broadcast + 2 B = 19 of 32; one vpdpbusd per FMA slot.
    irs.push_back(row_panel_ir("avx512_vnni_int8_8x32", "i8", Isa::kAvx512,
                               8, 32, /*lanes=*/16, /*quad=*/4,
                               KirAccStorage::kRegisters, 1, 2, /*tmp=*/0,
                               /*const=*/0, 32));
#endif
    return irs;
}

/// Registry geometry for `name` across all three families; false if the
/// name is not a registered kernel.
bool registry_entry_for(const std::string& name, Isa* isa, index_t* mr,
                        index_t* nr)
{
    bool found = false;
    for_each_microkernel([&](const auto& k) {
        if (found || name != k.name) return;
        *isa = k.isa;
        *mr = k.mr;
        *nr = k.nr;
        found = true;
    });
    return found;
}

}  // namespace

const std::vector<KernelIr>& all_kernel_irs()
{
    static const std::vector<KernelIr> irs = build_all_irs();
    return irs;
}

const KernelIr* kernel_ir_for(const std::string& name)
{
    for (const KernelIr& ir : all_kernel_irs()) {
        if (ir.kernel == name) return &ir;
    }
    return nullptr;
}

bool kir_spill_free(const KernelIr& ir, std::string* why)
{
    if (ir.acc_storage == KirAccStorage::kRegisters) {
        if (ir.regs_used() > ir.reg_budget) {
            if (why != nullptr) {
                *why = "kernel '" + ir.kernel + "' needs "
                    + std::to_string(ir.regs_used()) + " registers ("
                    + std::to_string(ir.acc_regs) + " acc + "
                    + std::to_string(ir.a_regs) + " A + "
                    + std::to_string(ir.b_regs) + " B + "
                    + std::to_string(ir.tmp_regs + ir.const_regs)
                    + " tmp/const) but " + isa_name(ir.isa)
                    + " has only " + std::to_string(ir.reg_budget)
                    + " — it must spill";
            }
            return false;
        }
        return true;
    }
    const int tile_bytes = ir.acc_regs * ir.acc_elem_bytes();
    if (tile_bytes > kKirStackTileBudgetBytes) {
        if (why != nullptr) {
            *why = "kernel '" + ir.kernel + "' stack accumulator tile is "
                + std::to_string(tile_bytes) + " bytes, over the "
                + std::to_string(kKirStackTileBudgetBytes)
                + "-byte L1-trivial budget";
        }
        return false;
    }
    return true;
}

bool kernel_gate_ok(const std::string& kernel_name, std::string* why)
{
    const KernelIr* ir = kernel_ir_for(kernel_name);
    if (ir == nullptr) {
        if (why != nullptr) {
            *why = "kernel '" + kernel_name
                + "' has no registered KernelIr descriptor";
        }
        return false;
    }
    Isa isa = Isa::kScalar;
    index_t mr = 0;
    index_t nr = 0;
    if (!registry_entry_for(kernel_name, &isa, &mr, &nr)) {
        if (why != nullptr) {
            *why = "kernel '" + kernel_name
                + "' has an IR but no registry entry";
        }
        return false;
    }
    if (isa != ir->isa || mr != ir->mr || nr != ir->nr) {
        if (why != nullptr) {
            *why = "kernel '" + kernel_name + "' IR geometry ("
                + isa_name(ir->isa) + " " + std::to_string(ir->mr) + "x"
                + std::to_string(ir->nr)
                + ") disagrees with its registry entry (" + isa_name(isa)
                + " " + std::to_string(mr) + "x" + std::to_string(nr) + ")";
        }
        return false;
    }
    return kir_spill_free(*ir, why);
}

}  // namespace cake
