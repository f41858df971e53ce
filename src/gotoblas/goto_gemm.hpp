// The GOTO algorithm (Goto & van de Geijn, "Anatomy of High-Performance
// Matrix Multiplication") as analysed in the paper's §4.1 — the baseline
// that MKL / ARMPL / OpenBLAS implement. GOTO and CAKE differ only in their
// schedule, so GOTO is a plan of the one CAKE executor
// (src/core/cake_gemm.cpp): ScheduleKind::kGoto over (p*mc) x kc x nc
// blocks, overlap off. It runs on the same kernels, packers and team as
// CAKE, and every verifier checks it as a CAKE plan. Where CAKE keeps
// partial C in local memory across K, GOTO streams it to user memory after
// every kc pass.
//
// Loop structure (paper Fig. 5), as the kGoto block order:
//   jc over N in nc   : B panel (kc x nc) packed into the LLC
//     pc over K in kc : reduction panels; C is read+written per pass
//       ic over M in p*mc : A re-packed every pass, one mc x kc block per
//                           core (the team claims its mr bands)
//         macro-kernel: mr x nr micro-kernel writes DIRECTLY to user C
#pragma once

#include <cstdint>
#include <optional>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "core/cake_gemm.hpp"
#include "core/tiling.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"
#include "threading/thread_pool.hpp"

namespace cake {

/// GOTO panel sizes chosen from cache capacities (§4.1): square mc = kc
/// A blocks from the private cache, nc filling the LLC with the B panel.
struct GotoBlocking {
    index_t mc = 0;
    index_t kc = 0;
    index_t nc = 0;
};

/// Default GOTO blocking for `machine`, an mr x nr micro-kernel and
/// `elem_bytes`-wide elements (4 = f32, 8 = f64).
GotoBlocking goto_default_blocking(const MachineSpec& machine, index_t mr,
                                   index_t nr, index_t elem_bytes = 4);

/// The CB-block geometry of the default GOTO plan on `machine`: blocks of
/// (p*mc) x kc x nc from goto_default_blocking, for an mr x nr kernel and
/// `elem_bytes`-wide elements. Run with ScheduleKind::kGoto.
CbBlockParams goto_plan_params(const MachineSpec& machine, int p, index_t mr,
                               index_t nr, index_t elem_bytes = 4);

/// Tuning knobs for the GOTO baseline.
struct GotoOptions {
    int p = 0;  ///< worker count; 0 = whole pool
    std::optional<index_t> mc;  ///< override mc (= kc); multiple of mr
    std::optional<index_t> nc;  ///< override nc; multiple of nr
    std::optional<MachineSpec> machine;
    bool accumulate = false;
    std::optional<Isa> isa;
};

/// The CAKE options of the GOTO plan for kernel family T (float or
/// double): mc = kc and nc from the overrides or goto_default_blocking,
/// ScheduleKind::kGoto, overlap off, no plan source. Throws cake::Error
/// if an nc override is not a positive multiple of the kernel's nr.
template <typename T>
CakeOptions goto_cake_options(const GotoOptions& options);

/// Execution statistics in GOTO's terms, filled from the CAKE executor's
/// CakeStats of the GOTO plan. `dram_*_bytes` model the algorithm's
/// external traffic: A and B packing reads plus the per-pass C streaming
/// that CAKE eliminates.
struct GotoStats {
    index_t mc = 0, kc = 0, nc = 0;
    index_t a_packs = 0;   ///< mc x kc A blocks packed (one per core row)
    index_t b_packs = 0;   ///< kc x nc B panels packed (one per pass)
    index_t c_passes = 0;  ///< C panel read+write rounds (K/kc per panel)
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
    // Wall-clock phase attribution, as in CakeStats:
    //   pack + compute + stall ~= total_seconds.
    // The plan runs with overlap off, so every pack is exposed and
    // overlap_efficiency stays 0.
    double pack_seconds = 0;     ///< A block and B panel packing
    double compute_seconds = 0;  ///< macro-kernel, C in user memory
    double stall_seconds = 0;    ///< barrier waits / dispatch
    double total_seconds = 0;
    double overlap_efficiency = 0;  ///< always 0: GOTO exposes all IO

    [[nodiscard]] double gflops(const GemmShape& shape) const
    {
        return total_seconds > 0 ? shape.flops() / total_seconds / 1e9 : 0.0;
    }

    [[nodiscard]] double avg_dram_bw_gbs() const
    {
        const double bytes =
            static_cast<double>(dram_read_bytes + dram_write_bytes);
        return total_seconds > 0 ? bytes / total_seconds / 1e9 : 0.0;
    }
};

/// Reusable GOTO GEMM context: a CAKE context fixed to the GOTO plan.
/// Instantiated for float (GotoGemm) and double (GotoGemmD).
template <typename T>
class GotoGemmT {
public:
    GotoGemmT(ThreadPool& pool, GotoOptions options = {});

    /// C (+)= A * B for row-major operands with explicit leading dims.
    void multiply(const T* a, index_t lda, const T* b, index_t ldb, T* c,
                  index_t ldc, index_t m, index_t n, index_t k);

    [[nodiscard]] const GotoStats& stats() const { return stats_; }

private:
    CakeGemmT<T> cake_;
    GotoStats stats_;
};

using GotoGemm = GotoGemmT<float>;
using GotoGemmD = GotoGemmT<double>;

extern template class GotoGemmT<float>;
extern template class GotoGemmT<double>;

/// One-shot convenience wrappers.
void goto_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const GotoOptions& options = {}, GotoStats* stats = nullptr);
void goto_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const GotoOptions& options = {}, GotoStats* stats = nullptr);

/// Matrix-object convenience wrappers; return C = A * B.
Matrix goto_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const GotoOptions& options = {}, GotoStats* stats = nullptr);
MatrixD goto_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const GotoOptions& options = {},
                  GotoStats* stats = nullptr);

}  // namespace cake
