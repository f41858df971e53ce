// Static kernel checker: proves every registered micro-kernel's IR
// (kernel/kernel_ir.hpp) correct, spill-free and honestly modelled — the
// register-tile layer's counterpart of the schedule-IR verifier. The
// schedules, plans, numerics and locality of this repro are all
// symbolically verified; this pass closes the last trusted-binary gap at
// the bottom of the stack (the paper's Figs 5e/6e kernels), so a new
// kernel (ROADMAP item 2: f16/bf16) must prove itself before the registry
// dispatches it.
//
// Obligations, each with a coded diagnostic:
//
//   KIR_MALFORMED  structural sanity — geometry positive, every FMA /
//                  store index inside its declared range, non-empty
//                  dataflow. (check_kernel additionally binds the IR to
//                  its registry entry: unknown names or geometry drift
//                  are malformed too.)
//   KIR_COVER      the store map covers every element of the mr x nr
//                  tile — no C lane is left unwritten.
//   KIR_DUP        no element is stored twice (a duplicated store would
//                  double-write, and under accumulate double-add).
//   KIR_ACC        symbolic dataflow — for each store, the accumulator's
//                  per-step term multiset must be exactly
//                  { a(row, p) · b(p, col + l) } for lane l: exactly one
//                  FMA with the matching broadcast row and B slice, no
//                  foreign terms, and accumulators shared by conflicting
//                  stores are rejected. With the k-loop summation this is
//                  the proof that every C lane receives exactly
//                  Σ_p a(i,p)·b(p,j).
//   KIR_SPILL      register budget — accumulators + A broadcasts + B
//                  stream + temporaries/constants fit the architectural
//                  file (16 ymm / 32 zmm); scalar kernels' stack tile
//                  fits the L1-trivial budget. Statically spill-free.
//   KIR_THROUGHPUT the declared dependency-chain depth equals the one
//                  re-derived from the FMA list, and the declared µops
//                  per FMA slot (fma_uops) the count the IR's registers
//                  imply: 3 for the widening int8 idiom (quad > 1 with
//                  product temporaries or a `ones` constant), else 1. The
//                  static peak bound (model/kernel_peak.hpp) therefore
//                  divides by the true depth and issue cost.
//
// The IR cannot lie: check_kernel runs the registered kernel *binary* on
// exactly-representable unique-value panels and compares, lane by lane,
// against the IR's symbolically evaluated result — overwrite and
// accumulate paths, plus the edge-tile path through run_microkernel_tile:
// every m in 1..mr, n at the store-mask boundaries (1, lanes - 1, lanes,
// lanes + 1, nr - 1, nr), overwrite and accumulate, into a C whose gap
// columns past nr hold a sentinel (KIR_BINARY on any mismatch, or on any
// write outside the live tile). The panels are built in the entry's own
// layout (MicroKernelT::a_offset / b_offset, zero to its packed depth),
// and every entry's sliver packers are pinned the same way: the same
// values packed through gather_sliver (A, and for float B^T) and
// copy_sliver (B, and for float A^T) must equal that layout byte for
// byte, also with a dead last lane (KIR_BINARY naming the packer). This is the same design as
// schedir's cross_check_memsim: the symbolic object is only trusted
// because it is pinned to the executable artifact.
//
// Analysis-only: compiled into cake_schedir (tests/tools builds); the
// release nm gate proves no cake::kernelcheck symbol reaches release
// objects. The release-side admission gate (kernel_gate_ok) and the peak
// arithmetic (model/kernel_peak) stay independently in release code;
// this pass exists to prove them honest.
#pragma once

#include <string>
#include <vector>

#include "common/issue.hpp"
#include "kernel/kernel_ir.hpp"

namespace cake {
namespace kernelcheck {

/// Issue codes: KIR_* (see header comment); each message names the
/// kernel, lane and counts.
struct KernelReport : IssueList {
    std::string kernel;
    std::string family;
    Isa isa = Isa::kScalar;
    index_t mr = 0;
    index_t nr = 0;
    int regs_used = 0;
    int reg_budget = 0;
    int derived_chain = 0;          ///< chain depth re-derived from fmas
    int derived_fma_uops = 0;       ///< µops per FMA slot the IR implies
    double ops_per_cycle = 0;       ///< static peak (GFLOP/s per GHz)
    bool fingerprinted = false;     ///< binary cross-check ran (host ISA)
};

/// Symbolic verification of one IR in isolation (no registry binding, no
/// binary run): KIR_MALFORMED / KIR_COVER / KIR_DUP / KIR_ACC /
/// KIR_SPILL / KIR_THROUGHPUT.
KernelReport verify_kernel_ir(const KernelIr& ir);

/// Full check of one registered kernel: verify_kernel_ir, the registry
/// binding (name resolves, geometry/ISA agree — KIR_MALFORMED), and —
/// when the executing CPU supports ir.isa — the lane-fingerprint
/// equivalence run against the kernel binary (KIR_BINARY on mismatch;
/// `fingerprinted` records whether it ran).
KernelReport check_kernel(const KernelIr& ir);

/// Deterministic IR corruptions, each caught by its specific code and
/// nothing else (the mutation gate asserts isolation).
enum class KirMutation {
    kDropStore,      ///< remove the last C store          -> KIR_COVER
    kDupStore,       ///< duplicate the first C store      -> KIR_DUP
    kSkewBroadcast,  ///< wrong A row in the first FMA     -> KIR_ACC
    kInflateAcc,     ///< accumulators past the budget     -> KIR_SPILL
    kLyingChain,     ///< under-declared chain depth       -> KIR_THROUGHPUT
};
const char* kir_mutation_name(KirMutation m);
constexpr int kKirMutationCount = 5;

/// Corrupt `ir` in place; returns the code verify_kernel_ir MUST now emit
/// (and never emits for the clean IR). Throws cake::Error when the IR has
/// no site for the mutation (e.g. kDropStore on an empty store map).
std::string apply_kernel_mutation(KernelIr& ir, KirMutation m);

}  // namespace kernelcheck
}  // namespace cake
