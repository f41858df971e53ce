// The CAKE GEMM driver: a drop-in matrix-multiply whose blocking and
// scheduling come straight from the CB-block theory (no design-space
// search). Supports float (sgemm) and double (dgemm) elements, transposed
// operands, and the full BLAS epilogue C = alpha*op(A)*op(B) + beta*C. The
// same executor, instantiated over the U8S8S32 kernel family, is the
// quantized driver CakeGemmInt8 (core/cake_gemm_int8.hpp).
//
// Execution per CB block (paper Fig. 6):
//   * the block's A surface is packed and split into p square mc x kc
//     sub-blocks, one per worker ("core"), standing in for L2 residency;
//   * the B surface is packed once and streamed by every worker;
//   * the partial-result C surface accumulates in place in user C: the
//     kernel writes the block's user-C rows, which stay cache-resident
//     (standing in for L3 residency) until the K reduction completes —
//     partial results never travel to external memory on the K-first
//     schedules;
//   * blocks execute in the K-first serpentine order of Algorithm 2, so
//     consecutive blocks always share a surface and the shared surface is
//     never re-packed (surface sharing made literal: the pack step is
//     skipped when the block coordinate component is unchanged).
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "core/plan_source.hpp"
#include "core/prepacked.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"
#include "threading/thread_pool.hpp"

namespace cake {

/// Operand transform, BLAS-style.
enum class Op {
    kNone,       ///< use the operand as stored
    kTranspose,  ///< use its transpose
};

namespace detail {
template <typename T>
struct GemmCall;  // bundled multiply arguments (defined in cake_gemm.cpp)
}  // namespace detail

/// Tuning and behaviour knobs. Defaults reproduce the paper's analytically
/// derived configuration; overrides exist for the ablation benches.
struct CakeOptions {
    int p = 0;  ///< worker count; 0 = use the whole pool
    std::optional<double> alpha;   ///< override the solver's CB alpha
    std::optional<index_t> mc;     ///< override mc; multiple of mr
    std::optional<index_t> kc;     ///< override kc independently of mc
    std::optional<index_t> nc;     ///< override the CB-block N extent
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    std::optional<MachineSpec> machine;  ///< default: host_machine()
    bool accumulate = false;  ///< false: C = A*B; true: C += A*B
    std::optional<Isa> isa;   ///< force micro-kernel ISA
    Op op_a = Op::kNone;      ///< A is stored transposed (K x M)
    Op op_b = Op::kNone;      ///< B is stored transposed (N x K)
    CakeExec exec = CakeExec::kAuto;  ///< pack/compute overlap on or off
    /// Plan oracle consulted per multiply before the analytic solver
    /// (typically tune::CachedPlanSource over the persisted tuning cache).
    /// Its overrides apply only to knobs left at their defaults above —
    /// explicit user settings always win. Not owned; must outlive the
    /// context. nullptr = pure analytic planning.
    const TunedPlanSource* plan_source = nullptr;
};

/// Measured + modelled execution statistics of one multiply.
struct CakeStats {
    CbBlockParams params;
    index_t grid_mb = 0, grid_nb = 0, grid_kb = 0;
    index_t blocks_executed = 0;
    index_t a_packs = 0;  ///< A surfaces actually fetched (reuse skips these)
    index_t b_packs = 0;
    /// Modelled C-column retirements: one per column visit (1 per (m,n)
    /// if K-first), each a write-back of the surface to external memory.
    index_t c_flushes = 0;
    index_t c_partial_spills = 0;  ///< retirements of *incomplete* surfaces
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;

    // Wall-clock phase attribution. The components decompose the
    // block-loop wall time of one (average) core, so
    //   pack + compute + stall ~= total_seconds.
    // Each is the team's aggregate per-worker busy time in that phase
    // divided by p, with overlap on or off (with overlap on, packing runs
    // inside compute phases, so summing phase wall timers would
    // double-count); stall is the team wall time left over.
    double pack_seconds = 0;     ///< A/B panel packing (DRAM fetch)
    double compute_seconds = 0;  ///< micro-kernel macro-loop, C in place
    /// Always 0: the kernel writes user C itself, so no phase writes C
    /// back. Kept only because the benchmark ledger reads it.
    double flush_seconds = 0;
    double stall_seconds = 0;    ///< barrier waits / idle / dispatch cost
    double total_seconds = 0;

    /// Fraction of packing time the pipeline co-issued with block compute
    /// (packing of block i+1 claimed from the same work queue as block i's
    /// compute items), i.e. the share of the paper's Fig. 7 IO cost taken
    /// off the critical path — it overlaps with compute whenever spare
    /// hardware threads exist. The pipeline-fill pack of the first block
    /// is always exposed. 0 with overlap off (CakeExec::kSerial).
    double overlap_efficiency = 0;
    bool pipelined = false;  ///< overlap was on (pack(i+1) beside compute(i))
    /// True when a TunedPlanSource supplied at least one override that
    /// this multiply actually applied (i.e. the plan deviates from the
    /// pure analytic §4.3 configuration because of the tuning cache).
    bool tuned = false;
    /// Barrier-delimited team phases the block loop ran: the pipeline
    /// fill, one main phase per step and, with overlap off, a pack phase
    /// per later step that fetches. The schedule IR's num_phases. An int
    /// in the tail padding after the flags, so CakeStats keeps its size.
    int phases = 0;

    /// Achieved throughput for `shape` in GFLOP/s.
    [[nodiscard]] double gflops(const GemmShape& shape) const
    {
        return total_seconds > 0 ? shape.flops() / total_seconds / 1e9 : 0.0;
    }

    /// Average external-memory bandwidth over the run, GB/s.
    [[nodiscard]] double avg_dram_bw_gbs() const
    {
        const double bytes =
            static_cast<double>(dram_read_bytes + dram_write_bytes);
        return total_seconds > 0 ? bytes / total_seconds / 1e9 : 0.0;
    }
};

/// Reusable GEMM context: owns the packed-panel buffers so repeated
/// multiplies (e.g. DNN inference layers) do not reallocate.
/// Instantiated for float (CakeGemm), double (CakeGemmD) and the quantized
/// u8 x s8 -> s32 family (CakeGemmInt8); A, B and C are the family's
/// operand element types (kernel/kernel_family.hpp).
template <typename T>
class CakeGemmT {
public:
    using A = typename KernelFamily<T>::A;
    using B = typename KernelFamily<T>::B;
    using C = typename KernelFamily<T>::C;

    CakeGemmT(ThreadPool& pool, CakeOptions options = {});

    /// C (+)= op(A) * op(B) for row-major operands with explicit leading
    /// dims. With op_a == kTranspose, A is stored k x m (lda >= m); with
    /// op_b == kTranspose, B is stored n x k (ldb >= k).
    /// Accumulate semantics come from options().accumulate. C must share
    /// no byte with A's or B's storage: an overlap throws [C_ALIAS] before
    /// any work.
    void multiply(const A* a, index_t lda, const B* b, index_t ldb, C* c,
                  index_t ldc, index_t m, index_t n, index_t k);

    /// Full BLAS epilogue: C = alpha * op(A)*op(B) + beta * C.
    /// beta == 0 never reads C (it may hold garbage/NaN).
    void multiply_scaled(const A* a, index_t lda, const B* b, index_t ldb,
                         C* c, index_t ldc, index_t m, index_t n, index_t k,
                         C alpha, C beta)
        requires std::floating_point<T>;

    /// Pack a k x n B operand (weights) once into CB-block panel format
    /// for reuse across many multiplies — skips the per-call B pack
    /// entirely. Honours options().op_b at pack time (so a transposed
    /// weight matrix may be supplied); the returned PackedB is tied to
    /// this context's geometry.
    PackedB<T> pack_weights(const B* b, index_t ldb, index_t k, index_t n);

    /// C (+)= op(A) * B using pre-packed weights; semantics otherwise
    /// identical to multiply(). Throws if `b` was packed under different
    /// CB geometry (other p / mc / alpha / kernel / machine).
    void multiply_prepacked(const A* a, index_t lda, const PackedB<T>& b,
                            C* c, index_t ldc, index_t m);

    /// Stats of the most recent multiply().
    [[nodiscard]] const CakeStats& stats() const { return stats_; }

    [[nodiscard]] const CakeOptions& options() const { return options_; }

private:
    void multiply_impl(const A* a, index_t lda, const B* b, index_t ldb,
                       C* c, index_t ldc, index_t m, index_t n, index_t k,
                       C alpha_s, C beta_s, const PackedB<T>* prepacked);
    void run_block_loop(const detail::GemmCall<T>& call);

    ThreadPool& pool_;
    CakeOptions options_;
    bool p_explicit_ = false;  ///< user set options.p (cache must not override)
    MachineSpec machine_;
    MicroKernelT<T> kernel_;
    CakeStats stats_;

    AlignedBuffer<A> pack_a_[2];  ///< double-buffered packed-A panels
    AlignedBuffer<B> pack_b_[2];  ///< double-buffered packed-B panels
};

using CakeGemm = CakeGemmT<float>;
using CakeGemmD = CakeGemmT<double>;

extern template class CakeGemmT<float>;
extern template class CakeGemmT<double>;
extern template class CakeGemmT<U8S8S32>;

/// One-shot convenience wrappers.
void cake_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options = {}, CakeStats* stats = nullptr);
void cake_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options = {}, CakeStats* stats = nullptr);

/// Matrix-object convenience wrappers; return C = A * B.
Matrix cake_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const CakeOptions& options = {}, CakeStats* stats = nullptr);
MatrixD cake_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const CakeOptions& options = {},
                  CakeStats* stats = nullptr);

}  // namespace cake
