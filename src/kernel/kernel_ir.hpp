// Kernel IR: a declarative register-level description of every micro-kernel
// in the registry, registered beside its MicroKernelT entry and verified
// by the static kernel checker (analysis/kernelcheck).
//
// A micro-kernel's inner loop is, structurally, one k-step repeated kc
// times: load B slices, broadcast A elements, issue FMAs into a fixed set
// of accumulators, and finally store the accumulators into C. The IR
// captures exactly that shape:
//
//   * geometry       — mr x nr tile, vector lanes per register, and the
//                      reduction elements folded per symbolic step (`quad`:
//                      1 for the float kernels, 4 for the int8 k-quads);
//   * dataflow       — one KirFma{acc, a_row, b_col} per FMA of the k-step:
//                      lane l of accumulator `acc` receives
//                      a(a_row, p)·b(p, b_col + l) summed over the step's
//                      quad reduction elements;
//   * store map      — one KirStore{acc, row, col} per C store: lane l of
//                      `acc` lands on C(row, col + l);
//   * register model — accumulator / A-broadcast / B-stream / temporary /
//                      constant register counts against the ISA's
//                      architectural budget (16 ymm, 32 zmm), or — for the
//                      compiler-scheduled scalar kernels — a stack-resident
//                      accumulator tile that must stay L1-trivial
//                      (kKirStackTileBudgetBytes), or — for the AMX tile
//                      kernel — the tile form: each accumulator is one
//                      tile row of `lanes` i32 (kKirTileRows rows per
//                      tile), A and B count whole tiles, and the budget is
//                      the 8-tile file;
//   * chain depth    — declared sequential updates per accumulator per
//                      k-step, the quantity the static throughput bound
//                      (model/kernel_peak.hpp) divides FMA latency by;
//   * issue cost     — vector µops one FMA of the step issues (1 for an
//                      FMA or vpdpbusd, 3 for the AVX2 int8
//                      vpmaddubsw/vpmaddwd/vpaddd idiom).
//
// This header is release code, like core/fperror and model/planner: the
// descriptors and the cheap structural gate below are what release-side
// consumers (the tuner's kernel admission gate, the roofline bench) need.
// The symbolic prover, the mutation suite and the binary lane-fingerprint
// cross-check live in analysis/kernelcheck and never link into release.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "kernel/cpu_features.hpp"

namespace cake {

/// One FMA of the k-step: lane l of `acc` += a(a_row, p) * b(p, b_col + l)
/// for every reduction element p the step folds (see KernelIr::quad).
struct KirFma {
    int acc = 0;    ///< accumulator register index, [0, acc_regs)
    int a_row = 0;  ///< broadcast A row, [0, mr)
    int b_col = 0;  ///< first B column of the slice, [0, nr - lanes]
};

/// One C store: lane l of `acc` lands on C(row, col + l).
struct KirStore {
    int acc = 0;
    int row = 0;  ///< [0, mr)
    int col = 0;  ///< [0, nr - lanes]
};

/// Where the accumulator tile lives across the k-loop.
enum class KirAccStorage {
    kRegisters,  ///< SIMD kernels: one architectural register per acc slot
    kStackTile,  ///< scalar kernels: compiler-scheduled stack tile
    kTileRows,   ///< AMX: one tile row per acc slot, kKirTileRows per tile
};

/// Rows of one AMX tile: tile-form accumulators are counted in tile rows
/// and fill whole tiles.
inline constexpr int kKirTileRows = 16;

/// Stack-resident accumulator tiles must fit comfortably in L1 alongside
/// the streamed panels; a scalar kernel whose declared tile exceeds this
/// is as spill-broken as a SIMD kernel over its register budget.
inline constexpr int kKirStackTileBudgetBytes = 4096;

/// The full register-level description of one registered micro-kernel.
struct KernelIr {
    std::string kernel;  ///< registry name, e.g. "avx512_14x32"
    std::string family;  ///< "f32" | "f64" | "i8"
    Isa isa = Isa::kScalar;
    index_t mr = 0;
    index_t nr = 0;
    int lanes = 1;  ///< elements per accumulator register (1 = scalar)
    int quad = 1;   ///< reduction elements folded per symbolic k-step
    KirAccStorage acc_storage = KirAccStorage::kRegisters;
    int acc_regs = 0;    ///< accumulator registers/slots live across k
    int a_regs = 0;      ///< A-broadcast registers live inside one step
    int b_regs = 0;      ///< B-stream registers live inside one step
    int tmp_regs = 0;    ///< per-step temporaries (AVX2 int8 products)
    int const_regs = 0;  ///< loop-invariant constants (AVX2 int8 `ones`)
    int reg_budget = 0;  ///< architectural vector registers (or tiles)
    /// Declared sequential updates of one accumulator per k-step; the
    /// verifier re-derives this from `fmas` and rejects a mismatch
    /// (KIR_THROUGHPUT), so the throughput bound cannot be gamed.
    int chain_updates = 1;
    /// Vector µops one KirFma issues: the throughput bound divides the
    /// issue ports by it. The verifier checks it against the idiom the
    /// registers imply (KIR_THROUGHPUT).
    int fma_uops = 1;
    std::vector<KirFma> fmas;      ///< dataflow of ONE k-step
    std::vector<KirStore> stores;  ///< accumulator -> C mapping

    /// Bytes per accumulator element (f32/i8 accumulate in 4 bytes,
    /// f64 in 8) — sizes the stack-tile budget check.
    [[nodiscard]] int acc_elem_bytes() const
    {
        return family == "f64" ? 8 : 4;
    }

    /// Accumulator registers, or in the tile form whole tiles.
    [[nodiscard]] int acc_units() const
    {
        return acc_storage == KirAccStorage::kTileRows
            ? (acc_regs + kKirTileRows - 1) / kKirTileRows
            : acc_regs;
    }

    /// Registers (tiles in the tile form) simultaneously live in the
    /// steady-state k-loop.
    [[nodiscard]] int regs_used() const
    {
        return acc_units() + a_regs + b_regs + tmp_regs + const_regs;
    }
};

/// IR descriptors for every kernel compiled into this binary — all three
/// families, every ISA the build enabled — in registry order. A kernel
/// without a descriptor here cannot pass the tuner's admission gate.
const std::vector<KernelIr>& all_kernel_irs();

/// Descriptor for a registry kernel name; nullptr if none is registered.
const KernelIr* kernel_ir_for(const std::string& name);

/// Static spill-freedom: register-resident kernels must fit the
/// architectural budget; stack-tile kernels must fit the L1-trivial tile
/// budget. On failure returns false and (if `why`) a one-line reason.
bool kir_spill_free(const KernelIr& ir, std::string* why);

/// Release-side kernel admission gate (tune_shape's default): the name
/// must have an IR, the IR's geometry/ISA must match its registry entry,
/// and the kernel must be statically spill-free. The full symbolic proof
/// plus the binary fingerprint live in analysis/kernelcheck; tools built
/// with cake_schedir inject that prover instead.
bool kernel_gate_ok(const std::string& kernel_name, std::string* why);

}  // namespace cake
