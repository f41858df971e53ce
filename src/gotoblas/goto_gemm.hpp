// The GOTO algorithm (Goto & van de Geijn, "Anatomy of High-Performance
// Matrix Multiplication") as analysed in the paper's §4.1 — the baseline
// that MKL / ARMPL / OpenBLAS implement. Built on the same micro-kernels
// and packing as CAKE so benchmarks isolate the scheduling difference:
// GOTO streams partial C results to external memory every kc-panel pass,
// whereas CAKE accumulates them in local memory.
//
// Loop structure (paper Fig. 5):
//   jc over N in nc   : B panel (kc x nc) packed into the LLC
//     pc over K in kc : reduction panels; C is read+written per pass
//       ic over M in mc (parallel over p cores): A block (mc x kc) per core
//         macro-kernel: mr x nr micro-kernel writes DIRECTLY to user C
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
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

/// Default GOTO blocking for `machine` and an mr x nr micro-kernel.
GotoBlocking goto_default_blocking(const MachineSpec& machine, index_t mr,
                                   index_t nr);

/// One (jc, pc) panel pass of the GOTO loop nest: the B panel packed into
/// the LLC stand-in, then p workers streaming partial C tiles to user
/// memory. Materialised as data so the executor and the schedule-IR
/// extractor (src/analysis/schedir.cpp) walk the identical pass list.
struct GotoPass {
    index_t jc = 0;    ///< N-panel element origin
    index_t pc = 0;    ///< K-panel element origin
    index_t ncur = 0;  ///< panel width (edge-clipped)
    index_t kcur = 0;  ///< panel depth (edge-clipped)
    bool acc = false;  ///< macro-kernel accumulates into C (RMW traffic)
};

/// The (jc outer, pc inner) pass order GotoGemmT::multiply executes.
/// `acc` is options.accumulate for the first reduction pass of each panel
/// and true for every later one (partial C results stream back in).
std::vector<GotoPass> build_goto_passes(index_t n, index_t k, index_t nc,
                                        index_t kc, bool accumulate);

/// Tuning knobs for the GOTO baseline.
struct GotoOptions {
    int p = 0;  ///< worker count; 0 = whole pool
    std::optional<index_t> mc;  ///< override mc (= kc); multiple of mr
    std::optional<index_t> nc;  ///< override nc; multiple of nr
    std::optional<MachineSpec> machine;
    bool accumulate = false;
    std::optional<Isa> isa;
};

/// Execution statistics mirroring CakeStats so benches compare like for
/// like. `dram_*_bytes` model the algorithm's external traffic: A and B
/// packing reads plus the per-pass C streaming that CAKE eliminates.
struct GotoStats {
    index_t mc = 0, kc = 0, nc = 0;
    index_t a_packs = 0;
    index_t b_packs = 0;
    index_t c_passes = 0;  ///< C panel read+write rounds (K/kc per panel)
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
    // Wall-clock phase attribution (same decomposition as CakeStats, so
    // benches can put the two algorithms in one table):
    //   pack + compute + stall ~= total_seconds.
    // GOTO streams C tiles straight to user memory inside the macro-kernel
    // and packs each worker's A block inside the compute pass, so there is
    // no separate flush phase, pack_seconds covers the shared B panel only,
    // and nothing overlaps (overlap_efficiency stays 0).
    double pack_seconds = 0;     ///< shared B-panel packing (DRAM fetch)
    double compute_seconds = 0;  ///< per-worker A pack + macro-kernel
    double stall_seconds = 0;    ///< dispatch / residual outside the phases
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

/// Reusable GOTO GEMM context (buffers persist across calls).
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
    ThreadPool& pool_;
    GotoOptions options_;
    MachineSpec machine_;
    MicroKernelT<T> kernel_;
    GotoStats stats_;

    AlignedBuffer<T> pack_b_;
    std::vector<AlignedBuffer<T>> pack_a_;  // one A block per worker
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
