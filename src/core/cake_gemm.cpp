#include "core/cake_gemm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <sstream>
#include <string>

#include "analysis/racecheck.hpp"
#include "analysis/schedshake.hpp"
#include "common/checked.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/block_plan.hpp"
#include "core/fperror.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pack/pack.hpp"
#include "pack/pack_int8.hpp"

namespace cake {

namespace {

/// Per-tile micro-kernel latency histogram (src/obs). The id is resolved
/// once.
obs::MetricId tile_latency_hist()
{
    static const obs::MetricId id =
        obs::histogram("cake.kernel.tile_ns", obs::latency_bounds_ns());
    return id;
}

/// Publish one multiply's CakeStats into the obs metrics registry, so a
/// snapshot at the end of a bench/tool run carries the same phase
/// decomposition the per-call struct reports.
void publish_cake_stats(const CakeStats& s)
{
    if (!obs::metrics_enabled()) return;
    static const obs::MetricId multiplies =
        obs::counter("cake.gemm.multiplies");
    static const obs::MetricId blocks = obs::counter("cake.gemm.blocks");
    static const obs::MetricId a_packs = obs::counter("cake.gemm.a_packs");
    static const obs::MetricId b_packs = obs::counter("cake.gemm.b_packs");
    static const obs::MetricId c_flushes =
        obs::counter("cake.gemm.c_flushes");
    static const obs::MetricId dram_rd =
        obs::counter("cake.gemm.dram_read_bytes");
    static const obs::MetricId dram_wr =
        obs::counter("cake.gemm.dram_write_bytes");
    static const obs::MetricId pack_s = obs::gauge("cake.gemm.pack_s");
    static const obs::MetricId compute_s =
        obs::gauge("cake.gemm.compute_s");
    static const obs::MetricId stall_s = obs::gauge("cake.gemm.stall_s");
    static const obs::MetricId total_s = obs::gauge("cake.gemm.total_s");
    static const obs::MetricId overlap =
        obs::gauge("cake.gemm.overlap_efficiency");
    obs::counter_add(multiplies, 1);
    obs::counter_add(blocks,
                     static_cast<std::uint64_t>(s.blocks_executed));
    obs::counter_add(a_packs, static_cast<std::uint64_t>(s.a_packs));
    obs::counter_add(b_packs, static_cast<std::uint64_t>(s.b_packs));
    obs::counter_add(c_flushes, static_cast<std::uint64_t>(s.c_flushes));
    obs::counter_add(dram_rd, s.dram_read_bytes);
    obs::counter_add(dram_wr, s.dram_write_bytes);
    obs::gauge_set(pack_s, s.pack_seconds);
    obs::gauge_set(compute_s, s.compute_seconds);
    obs::gauge_set(stall_s, s.stall_seconds);
    obs::gauge_set(total_s, s.total_seconds);
    obs::gauge_set(overlap, s.overlap_efficiency);
}

}  // namespace

namespace detail {

/// Compile-time operations of a kernel family beyond its kernel: pack
/// layout, solver width and K limit. Kernel lookup and the tile runner are
/// the registry's, shared by every family (kernel/registry.hpp). The block
/// loop is written once against this interface; f32 and f64 share the
/// generic template, the quantized u8 x s8 -> s32 family specialises it
/// below.
template <typename T>
struct FamilyOps : KernelFamily<T> {
    using typename KernelFamily<T>::A;
    using typename KernelFamily<T>::B;

    /// Element width the §4.3 solver sizes blocks with.
    static constexpr index_t solver_elem_bytes = sizeof(T);
    /// PlanRequest::elem_bytes: the tuning-cache dtype bucket.
    static constexpr index_t plan_elem_bytes = sizeof(T);
    /// Stored operand widths the modelled DRAM traffic counts.
    static constexpr OperandBytes stored{sizeof(T), sizeof(T), sizeof(T)};
    static constexpr bool transposable = true;

    /// No K limit: floating-point accumulators cannot overflow.
    static void check_k(index_t) {}

    /// Pack rows [r0, r0 + rows) x K [k0, k0 + ki) of op(A).
    static void pack_a(bool ta, const A* a, index_t lda, index_t r0,
                       index_t k0, index_t rows, index_t ki, index_t mr,
                       A* dst)
    {
        if (ta) {
            pack_a_panel_transposed(a + k0 * lda + r0, lda, rows, ki, mr,
                                    dst);
        } else {
            pack_a_panel(a + r0 * lda + k0, lda, rows, ki, mr, dst);
        }
    }
    /// Pack K [k0, k0 + ki) x columns [c0, c0 + cols) of op(B).
    static void pack_b(bool tb, const B* b, index_t ldb, index_t k0,
                       index_t c0, index_t ki, index_t cols, index_t nr,
                       B* dst)
    {
        if (tb) {
            pack_b_panel_transposed(b + c0 * ldb + k0, ldb, ki, cols, nr,
                                    dst);
        } else {
            pack_b_panel(b + k0 * ldb + c0, ldb, ki, cols, nr, dst);
        }
    }
};

template <>
struct FamilyOps<U8S8S32> : KernelFamily<U8S8S32> {
    // Conservative sizing: the solver assumes a uniform element size and
    // the s32 partial-result surface dominates the LLC budget, so blocks
    // are sized as if every operand were 4 bytes (the 1-byte inputs give
    // the real run extra headroom). The tuning cache is keyed by the
    // stored input width, the i8 bucket.
    static constexpr index_t solver_elem_bytes = sizeof(C);
    static constexpr index_t plan_elem_bytes = sizeof(A);
    static constexpr OperandBytes stored{sizeof(A), sizeof(B), sizeof(C)};
    static constexpr bool transposable = false;

    /// |acc| <= K * 127^2 must fit the i32 accumulator.
    static void check_k(index_t k)
    {
        if (k > int8_safe_k()) {
            std::ostringstream os;
            os << "[I8_ACC_RANGE] int8 multiply with K=" << k
               << ": worst-case |i32 accumulator| " << int8_acc_range(k)
               << " exceeds int32 range (safe K <= " << int8_safe_k()
               << ")";
            throw Error(os.str());
        }
    }

    // Transposed operands are refused at construction, so ta/tb is false.
    static void pack_a(bool, const A* a, index_t lda, index_t r0,
                       index_t k0, index_t rows, index_t ki, index_t mr,
                       A* dst)
    {
        pack_a_panel_int8(a + r0 * lda + k0, lda, rows, ki, mr, dst);
    }
    static void pack_b(bool, const B* b, index_t ldb, index_t k0, index_t c0,
                       index_t ki, index_t cols, index_t nr, B* dst)
    {
        pack_b_panel_int8(b + k0 * ldb + c0, ldb, ki, cols, nr, dst);
    }
};

/// Packed elements per sliver row of a ki-deep block: ki padded to whole
/// kernel k-steps (k-quads for int8).
template <typename T>
index_t packed_depth(index_t ki)
{
    return KernelFamily<T>::k_step * kernel_steps<T>(ki);
}

/// run_tile for the alpha/beta pairs the kernel cannot apply itself: the
/// live m x n tile is computed into a stack tile (leading dimension nr,
/// sized by kMaxTileElems) and then alpha * s + beta * c is written to C.
/// beta = 0 never reads C. Out of line so the kernel-applied path of
/// run_tile keeps no stack frame.
template <typename T>
[[gnu::noinline]] void run_scaled_tile(const MicroKernelT<T>& kernel,
                                       index_t steps,
                                       const typename KernelFamily<T>::A* a,
                                       const typename KernelFamily<T>::B* b,
                                       typename KernelFamily<T>::C* c,
                                       index_t ldc, index_t m, index_t n,
                                       typename KernelFamily<T>::C alpha,
                                       typename KernelFamily<T>::C beta)
{
    using C = typename KernelFamily<T>::C;
    alignas(kPanelAlignment) C tile[kMaxTileElems];
    run_microkernel_tile(kernel, steps, a, b, tile, kernel.nr, m, n,
                         /*accumulate=*/false, nullptr);
    for (index_t i = 0; i < m; ++i) {
        const C* s = tile + i * kernel.nr;
        C* row = c + i * ldc;
        if (beta == C(0)) {
            for (index_t j = 0; j < n; ++j) row[j] = alpha * s[j];
        } else {
            for (index_t j = 0; j < n; ++j)
                row[j] = alpha * s[j] + beta * row[j];
        }
    }
}

/// C = alpha * A*B + beta * C for one (possibly partial) m x n tile of
/// user C over a ki-deep block. alpha = 1 with beta 0 or 1 — every int8
/// multiply and every unscaled float one — is the kernel's own overwrite
/// or accumulate, straight into user C: a full tile through the kernel's
/// `fn`, an edge tile through its `edge` entry. Any other pair goes
/// through run_scaled_tile. Kept out of line: run_microkernel_tile is an
/// inline template, and inlining it into the compute loop, its only
/// caller here, cost 10% on small f32 shapes and 3% on 1536^3 at p = 1
/// (bench/ledger).
template <typename T>
[[gnu::noinline]] void run_tile(const MicroKernelT<T>& kernel, index_t ki,
                                const typename KernelFamily<T>::A* a,
                                const typename KernelFamily<T>::B* b,
                                typename KernelFamily<T>::C* c, index_t ldc,
                                index_t m, index_t n,
                                typename KernelFamily<T>::C alpha,
                                typename KernelFamily<T>::C beta)
{
    using C = typename KernelFamily<T>::C;
    const index_t steps = kernel_steps<T>(ki);
    if (alpha == C(1) && (beta == C(0) || beta == C(1))) {
        run_microkernel_tile(kernel, steps, a, b, c, ldc, m, n,
                             /*accumulate=*/beta == C(1), nullptr);
        return;
    }
    run_scaled_tile(kernel, steps, a, b, c, ldc, m, n, alpha, beta);
}

/// Byte range [lo, hi) a rows x cols row-major operand with leading
/// dimension ld occupies.
struct ByteExtent {
    const unsigned char* lo = nullptr;
    const unsigned char* hi = nullptr;

    template <typename E>
    ByteExtent(const E* p, index_t rows, index_t cols, index_t ld)
        : lo(static_cast<const unsigned char*>(static_cast<const void*>(p))),
          hi(lo + static_cast<std::size_t>((rows - 1) * ld + cols) * sizeof(E))
    {
    }

    [[nodiscard]] bool overlaps(const ByteExtent& o) const
    {
        const std::less<const unsigned char*> before;
        return before(lo, o.hi) && before(o.lo, hi);
    }
};

/// [C_ALIAS]: the multiply writes user C while later blocks still pack A
/// and B, so C must share no byte with either operand's storage.
inline void check_c_alias(const ByteExtent& c, const ByteExtent& operand,
                          const char* name)
{
    if (!c.overlaps(operand)) return;
    std::ostringstream os;
    os << "[C_ALIAS] C's storage [" << static_cast<const void*>(c.lo) << ", "
       << static_cast<const void*>(c.hi) << ") overlaps " << name
       << "'s storage [" << static_cast<const void*>(operand.lo) << ", "
       << static_cast<const void*>(operand.hi)
       << "): C must not alias an input";
    throw Error(os.str());
}

/// One multiply's resolved arguments.
template <typename T>
struct GemmCall {
    using C = typename KernelFamily<T>::C;
    const typename KernelFamily<T>::A* a = nullptr;
    index_t lda = 0;
    const typename KernelFamily<T>::B* b = nullptr;
    index_t ldb = 0;
    C* c = nullptr;
    index_t ldc = 0;
    index_t m = 0, n = 0;
    C alpha = 1, beta = 0;
    const PackedB<T>* prepacked = nullptr;
    bool ta = false, tb = false;
    CbBlockParams params;
    const BlockPlan* plan = nullptr;  ///< resolved per-step decisions
};

/// CAKE_RACECHECK: retire a shadow-ownership region when the executor
/// scope exits, including through an exception unwinding out of the team.
/// Compiles away entirely in non-racecheck builds.
struct ScopedRegion {
    racecheck::RegionId id;

    explicit ScopedRegion(racecheck::RegionId region) : id(region) {}
    ScopedRegion(const ScopedRegion&) = delete;
    ScopedRegion& operator=(const ScopedRegion&) = delete;
    ~ScopedRegion() { racecheck::region_retire(id); }
};

}  // namespace detail

template <typename T>
CakeGemmT<T>::CakeGemmT(ThreadPool& pool, CakeOptions options)
    : pool_(pool), options_(std::move(options)),
      p_explicit_(options_.p > 0),
      machine_(options_.machine ? *options_.machine : host_machine()),
      kernel_(options_.isa ? microkernel_for_of<T>(*options_.isa)
                           : best_microkernel_of<T>())
{
    if (options_.p <= 0 || options_.p > pool_.size())
        options_.p = pool_.size();
    CAKE_CHECK_MSG(detail::FamilyOps<T>::transposable
                       || (options_.op_a == Op::kNone
                           && options_.op_b == Op::kNone),
                   "transposed operands not supported on the int8 path");
}

template <typename T>
void CakeGemmT<T>::multiply(const A* a, index_t lda, const B* b, index_t ldb,
                            C* c, index_t ldc, index_t m, index_t n,
                            index_t k)
{
    multiply_impl(a, lda, b, ldb, c, ldc, m, n, k, C(1),
                  options_.accumulate ? C(1) : C(0), nullptr);
}

template <typename T>
void CakeGemmT<T>::multiply_scaled(const A* a, index_t lda, const B* b,
                                   index_t ldb, C* c, index_t ldc, index_t m,
                                   index_t n, index_t k, C alpha_s, C beta_s)
    requires std::floating_point<T>
{
    multiply_impl(a, lda, b, ldb, c, ldc, m, n, k, alpha_s, beta_s, nullptr);
}

template <typename T>
PackedB<T> CakeGemmT<T>::pack_weights(const B* b, index_t ldb, index_t k,
                                      index_t n)
{
    using Ops = detail::FamilyOps<T>;
    CAKE_CHECK(k >= 1 && n >= 1);
    const bool tb = options_.op_b == Op::kTranspose;
    CAKE_CHECK_MSG(ldb >= (tb ? k : n), "ldb too small for op(B)");

    TilingOptions topts;
    topts.mc = options_.mc;
    topts.kc = options_.kc;
    topts.nc = options_.nc;
    topts.alpha = options_.alpha;
    topts.elem_bytes = Ops::solver_elem_bytes;
    PackedB<T> packed;
    packed.params_ =
        compute_cb_block(machine_, options_.p, kernel_.mr, kernel_.nr, topts);
    packed.k_ = k;
    packed.n_ = n;
    packed.kb_ = ceil_div(k, packed.params_.k_blk);
    packed.nb_ = ceil_div(n, packed.params_.n_blk);
    packed.stride_ = static_cast<std::size_t>(
        detail::packed_depth<T>(packed.params_.k_blk)
        * round_up(packed.params_.n_blk, kernel_.nr));
    packed.data_ = AlignedBuffer<B>(
        static_cast<std::size_t>(packed.kb_ * packed.nb_) * packed.stride_);

    const index_t total_panels = packed.kb_ * packed.nb_;
    pool_.parallel_for(0, total_panels, options_.p,
                       [&](index_t lo, index_t hi) {
        for (index_t slot = lo; slot < hi; ++slot) {
            const index_t k0 = (slot / packed.nb_) * packed.params_.k_blk;
            const index_t n0 = (slot % packed.nb_) * packed.params_.n_blk;
            Ops::pack_b(tb, b, ldb, k0, n0,
                        std::min(packed.params_.k_blk, k - k0),
                        std::min(packed.params_.n_blk, n - n0), kernel_.nr,
                        packed.data_.data()
                            + static_cast<std::size_t>(slot)
                                * packed.stride_);
        }
    });
    packed.verify_canaries();
    return packed;
}

template <typename T>
void CakeGemmT<T>::multiply_prepacked(const A* a, index_t lda,
                                      const PackedB<T>& b, C* c, index_t ldc,
                                      index_t m)
{
    CAKE_CHECK_MSG(!b.empty(), "PackedB is empty");
    multiply_impl(a, lda, nullptr, b.n(), c, ldc, m, b.n(), b.k(), C(1),
                  options_.accumulate ? C(1) : C(0), &b);
}

template <typename T>
void CakeGemmT<T>::multiply_impl(const A* a, index_t lda, const B* b,
                                 index_t ldb, C* c, index_t ldc, index_t m,
                                 index_t n, index_t k, C alpha_s, C beta_s,
                                 const PackedB<T>* prepacked)
{
    using Ops = detail::FamilyOps<T>;
    CAKE_CHECK(m >= 0 && n >= 0 && k >= 0);
    const bool ta = options_.op_a == Op::kTranspose;
    const bool tb = options_.op_b == Op::kTranspose;
    CAKE_CHECK_MSG(lda >= (ta ? m : k), "lda too small for op(A)");
    if (prepacked == nullptr) {
        CAKE_CHECK_MSG(ldb >= (tb ? k : n), "ldb too small for op(B)");
    }
    CAKE_CHECK(ldc >= n);
    Ops::check_k(k);
    if (m == 0 || n == 0) return;
    if (k > 0) {
        const detail::ByteExtent c_ext(c, m, n, ldc);
        detail::check_c_alias(c_ext,
                              ta ? detail::ByteExtent(a, k, m, lda)
                                 : detail::ByteExtent(a, m, k, lda),
                              "op(A)");
        if (prepacked == nullptr) {
            detail::check_c_alias(c_ext,
                                  tb ? detail::ByteExtent(b, n, k, ldb)
                                     : detail::ByteExtent(b, k, n, ldb),
                                  "op(B)");
        }
    }
    if (k == 0 || alpha_s == C(0)) {
        // Degenerate product contributes nothing: apply the beta epilogue.
        for (index_t i = 0; i < m; ++i) {
            C* row = c + i * ldc;
            if (beta_s == C(0)) std::fill(row, row + n, C(0));
            else if (beta_s != C(1))
                for (index_t j = 0; j < n; ++j) row[j] *= beta_s;
        }
        return;
    }

    Timer total_timer;
    stats_ = CakeStats{};

    int p = options_.p;
    TilingOptions topts;
    topts.mc = options_.mc;
    topts.kc = options_.kc;
    topts.nc = options_.nc;
    topts.alpha = options_.alpha;
    topts.elem_bytes = Ops::solver_elem_bytes;
    ScheduleKind schedule = options_.schedule;
    CakeExec exec = options_.exec;

    // Consult the plan oracle (typically the persisted tuning cache) before
    // the analytic solver. A tuned override applies only where the caller
    // left the knob at its default — explicit user settings always win —
    // and never on the prepacked-weights path, whose geometry was fixed at
    // pack_weights() time. Whatever survives still flows through the same
    // compute_cb_block validation as an analytic plan.
    if (options_.plan_source != nullptr && prepacked == nullptr) {
        PlanRequest req;
        req.m = m;
        req.n = n;
        req.k = k;
        req.elem_bytes = Ops::plan_elem_bytes;
        req.p = p;
        if (const auto tuned = options_.plan_source->lookup(req)) {
            auto take = [&](auto& knob, const auto& src) {
                if (!knob && src) {
                    knob = *src;
                    stats_.tuned = true;
                }
            };
            take(topts.mc, tuned->mc);
            take(topts.kc, tuned->kc);
            // alpha and nc are mutually exclusive at the solver: whichever
            // the user pinned suppresses the tuned value of the other.
            if (!topts.alpha) take(topts.nc, tuned->nc);
            if (!topts.nc) take(topts.alpha, tuned->alpha);
            if (!p_explicit_ && tuned->p && *tuned->p >= 1
                && *tuned->p <= pool_.size() && *tuned->p != p) {
                p = *tuned->p;
                stats_.tuned = true;
            }
            if (schedule == ScheduleKind::kKFirstSerpentine && tuned->schedule
                && *tuned->schedule != schedule) {
                schedule = *tuned->schedule;
                stats_.tuned = true;
            }
            if (exec == CakeExec::kAuto && tuned->exec
                && *tuned->exec != CakeExec::kAuto) {
                exec = *tuned->exec;
                stats_.tuned = true;
            }
            if (!options_.isa && tuned->isa
                && KernelFamily<T>::isa_ok(*tuned->isa)
                && *tuned->isa != kernel_.isa) {
                kernel_ = microkernel_for_of<T>(*tuned->isa);
                stats_.tuned = true;
            }
        } else if (!options_.isa
                   && kernel_.isa != best_microkernel_of<T>().isa) {
            // A previous multiply's tuned ISA must not leak into a shape
            // the oracle has no opinion about.
            kernel_ = best_microkernel_of<T>();
        }
    }

    const CbBlockParams params =
        compute_cb_block(machine_, p, kernel_.mr, kernel_.nr, topts);
    if (prepacked != nullptr) {
        CAKE_CHECK_MSG(prepacked->params() == params,
                       "PackedB geometry does not match this context");
    }

    stats_.params = params;

    detail::GemmCall<T> call;
    call.a = a;
    call.lda = lda;
    call.b = b;
    call.ldb = ldb;
    call.c = c;
    call.ldc = ldc;
    call.m = m;
    call.n = n;
    call.alpha = alpha_s;
    call.beta = beta_s;
    call.prepacked = prepacked;
    call.ta = ta;
    call.tb = tb;
    call.params = params;
    const bool overlap = exec_overlaps(exec, params.p);

    // Resolve the whole block loop up front: the block order, surface
    // sharing, pack-slot assignment, work items, the team's phases,
    // column visits and the modelled DRAM traffic are pure functions of
    // the schedule (src/core/block_plan.cpp). The executor and the
    // schedule-IR extractor consume this same plan.
    const GemmShape shape{m, n, k};
    BlockPlanInputs plan_in = plan_inputs(shape, params, schedule,
                                          /*beta_nonzero=*/beta_s != C(0));
    plan_in.ldc = ldc;
    plan_in.use_prepacked = prepacked != nullptr;
    plan_in.double_buffer = overlap;
    plan_in.bytes = Ops::stored;
    const BlockPlan plan =
        build_block_plan(block_order(schedule, shape, params), plan_in);
    call.plan = &plan;
    stats_.grid_mb = ceil_div(m, params.m_blk);
    stats_.grid_nb = plan_in.nb;
    stats_.grid_kb = plan_in.kb;
    stats_.blocks_executed = plan.stats.blocks_executed;
    stats_.a_packs = plan.stats.a_packs;
    stats_.b_packs = plan.stats.b_packs;
    stats_.c_flushes = plan.stats.c_flushes;
    stats_.c_partial_spills = plan.stats.c_partial_spills;
    stats_.dram_read_bytes = plan.stats.dram_read_bytes;
    stats_.dram_write_bytes = plan.stats.dram_write_bytes;
    stats_.pipelined = overlap;
    stats_.phases = static_cast<int>(plan.phases.size());

    // Pack buffers hold the largest block of this call, not of the plan:
    // a block never spans more than the call's m rows, n columns or k
    // depth.
    const index_t depth =
        detail::packed_depth<T>(std::min(params.k_blk, k));
    pack_a_[0].ensure(static_cast<std::size_t>(
        round_up(std::min(params.m_blk, m), kernel_.mr) * depth));
    if (overlap) pack_a_[1].ensure(pack_a_[0].size());
    if (prepacked == nullptr) {
        pack_b_[0].ensure(static_cast<std::size_t>(
            depth * round_up(std::min(params.n_blk, n), kernel_.nr)));
        if (overlap) pack_b_[1].ensure(pack_b_[0].size());
    }

    run_block_loop(call);

    // CAKE_CHECKED: the multiply is done — every packed surface's
    // front/back canaries must still be intact, or some strided write ran
    // outside its panel. No-ops in release builds.
    pack_a_[0].verify_canaries("packed-A buffer[0]");
    pack_a_[1].verify_canaries("packed-A buffer[1]");
    pack_b_[0].verify_canaries("packed-B buffer[0]");
    pack_b_[1].verify_canaries("packed-B buffer[1]");
    if (prepacked != nullptr) prepacked->verify_canaries();

    stats_.total_seconds = total_timer.seconds();
    publish_cake_stats(stats_);
}

// ---------------------------------------------------------------------------
// The block-loop executor: one persistent team for the whole block loop,
// for every kernel family and every schedule kind, GOTO's included. The
// team runs the plan's phases (BlockPlan::phases) in order, one barrier
// after each. With overlap on (CakeExec::kPipelined, or kAuto with
// p >= 2), while the team computes block i it also packs the surfaces of
// block i+1 that carried_surfaces() says are not carried over, into the
// other half of the double-buffered panel storage — so after pipeline
// fill, packing IO runs concurrently with compute instead of on the
// critical path (paper §2, Fig. 7). With overlap off (CakeExec::kSerial,
// the Fig. 7 ablation, or kAuto with p = 1)
// block i's surfaces are packed in a phase of their own right before its
// compute phase, single-buffered, so every fetch is exposed. C takes no
// phase of its own: every compute item runs the kernel on its band of
// user C, the column's first K block applying beta and later blocks
// accumulating (paper §3: partial C stays in local memory until its K
// range is done — on a CPU that is the cache, where the block's user-C
// rows already sit). Work within a phase is claimed in
// mr/nr-sliver items off an atomic counter so edge blocks never leave
// cores idle.
// ---------------------------------------------------------------------------
template <typename T>
void CakeGemmT<T>::run_block_loop(const detail::GemmCall<T>& call)
{
    using Ops = detail::FamilyOps<T>;
    const CbBlockParams& params = call.params;
    const int p = params.p;
    const index_t mr = kernel_.mr;
    const index_t nr = kernel_.nr;
    const bool use_prepacked = call.prepacked != nullptr;
    // Step and phase plan (src/core/block_plan.cpp): buffer slots, pack
    // needs, work items, phases and column visits are resolved up front by
    // build_block_plan; the team below only claims and executes items.
    const BlockPlan& plan = *call.plan;

    // ---- Team execution.
    const MicroKernelT<T> kernel = kernel_;
    A* const pa_slots[2] = {pack_a_[0].data(), pack_a_[1].data()};
    B* const pb_slots[2] = {pack_b_[0].data(), pack_b_[1].data()};
    // Capacities for the CAKE_CHECKED extent checks in the work items
    // below (both halves of each double buffer are allocated equal).
    const std::size_t pa_cap = pack_a_[0].size();
    const std::size_t pb_cap = use_prepacked
        ? call.prepacked->panel_stride()
        : pack_b_[0].size();
    const std::size_t user_c_cap =
        static_cast<std::size_t>((call.m - 1) * call.ldc + call.n);

    // CAKE_RACECHECK shadow regions. Each double-buffer half is its own
    // region, so the intended pack(i+1)/compute(i) overlap on *opposite*
    // halves stays silent while any same-half access pair without a
    // barrier edge between its phases traps. User C is tiled per CB block
    // in mr x nr tiles: every access to it is one compute item's band.
    // All of this compiles to nothing in non-racecheck builds.
    const index_t c_bands = ceil_div(params.m_blk, mr);
    const index_t c_cols = ceil_div(params.n_blk, nr);
    const index_t c_tile_rows = ceil_div(call.m, params.m_blk) * c_bands;
    const index_t c_tile_cols = ceil_div(call.n, params.n_blk) * c_cols;
    detail::ScopedRegion rc_pa0(racecheck::region_register(
        "packed-A half 0", ceil_div(params.m_blk, mr)));
    detail::ScopedRegion rc_pa1(racecheck::region_register(
        "packed-A half 1", ceil_div(params.m_blk, mr)));
    detail::ScopedRegion rc_pb0(racecheck::region_register(
        "packed-B half 0", ceil_div(params.n_blk, nr)));
    detail::ScopedRegion rc_pb1(racecheck::region_register(
        "packed-B half 1", ceil_div(params.n_blk, nr)));
    detail::ScopedRegion rc_c(racecheck::region_register(
        "user C", c_tile_rows * c_tile_cols, c_tile_cols));
    const racecheck::RegionId rc_pa_ids[2] = {rc_pa0.id, rc_pa1.id};
    const racecheck::RegionId rc_pb_ids[2] = {rc_pb0.id, rc_pb1.id};

    // Work-item granularity: kPackAGroup / kPackBGroup from
    // core/block_plan.hpp, shared with the schedule-IR extractor so the
    // verified operation stream is item-for-item the one dispatched here.

    // Phase work counters, double-buffered by phase parity: while phase q
    // drains counters[q & 1], worker 0 resets the other one (dead since
    // the barrier that ended phase q-1) for phase q+1.
    std::atomic<index_t> counters[2] = {};
    std::vector<double> worker_pack(static_cast<std::size_t>(p), 0.0);
    std::vector<double> worker_compute(static_cast<std::size_t>(p), 0.0);
    std::vector<double> worker_hidden(static_cast<std::size_t>(p), 0.0);

    Timer team_timer;
    pool_.run_team(p, [&](TeamContext& team, int tid) {
        using Clock = std::chrono::steady_clock;
        double pack_s = 0, compute_s = 0, hidden_s = 0;
        index_t phase = 0;

        // Claim items off the phase counter until exhausted, then cross
        // the phase barrier. Item errors are recorded (not thrown) so
        // every worker keeps reaching the same barriers; once an error is
        // recorded all remaining items drain as no-ops.
        auto run_phase = [&](index_t n_items, auto&& body) {
            std::atomic<index_t>& counter = counters[phase & 1];
            for (;;) {
                schedshake::interleave_point(
                    schedshake::Point::kPhaseClaim);
                const index_t item =
                    counter.fetch_add(1, std::memory_order_relaxed);
                if (item >= n_items) break;
                if (team.has_error()) continue;
                try {
                    body(item);
                } catch (...) {
                    team.record_error(std::current_exception());
                }
            }
            if (tid == 0) {
                counters[(phase + 1) & 1].store(0,
                                                std::memory_order_relaxed);
            }
            team.barrier();
            ++phase;
        };
        // Each work item is timed ONCE with a shared Clock::now() pair that
        // feeds both the phase stats and the emitted trace span, so the
        // per-worker span totals and CakeStats phase seconds agree exactly
        // (a second clock pair would skew short items by its own cost).
        // The obs push happens after the end reading — ring costs
        // stay outside both measurements.
        const bool tracing = obs::enabled();
        auto timed_item = [&](const char* span_name, obs::Phase obs_phase,
                              const BlockStep& st, index_t item, auto&& body) {
            const auto t0 = Clock::now();
            body();
            const auto t1 = Clock::now();
            if (tracing) {
                obs::emit_span(span_name, obs_phase, obs::to_trace_ns(t0),
                               obs::to_trace_ns(t1), st.coord.m, st.coord.n,
                               st.coord.k, item);
            }
            return std::chrono::duration<double>(t1 - t0).count();
        };

        // One group of mr slivers of step st's A surface into its half.
        auto pack_a_item = [&](const BlockStep& st, index_t item) {
            schedshake::interleave_point(schedshake::Point::kPackItem);
            const index_t s_end =
                std::min(st.bands, (item + 1) * kPackAGroup);
            racecheck::region_access_range(
                rc_pa_ids[st.a_slot], item * kPackAGroup, s_end,
                racecheck::AccessKind::kWrite,
                {st.step, st.coord.m, st.coord.n, st.coord.k,
                 racecheck::Phase::kPack});
            const index_t depth = detail::packed_depth<T>(st.ki);
            for (index_t s = item * kPackAGroup; s < s_end; ++s) {
                const index_t r0 = s * mr;
                require_extent(r0 * depth, mr * depth, pa_cap,
                               "packed-A sliver");
                Ops::pack_a(call.ta, call.a, call.lda, st.m0 + r0, st.k0,
                            std::min(mr, st.mi - r0), st.ki, mr,
                            pa_slots[st.a_slot] + r0 * depth);
            }
        };
        // One group of nr slivers of step st's B surface into its half.
        auto pack_b_item = [&](const BlockStep& st, index_t item) {
            schedshake::interleave_point(schedshake::Point::kPackItem);
            const index_t s_end = std::min(ceil_div(st.ni, nr),
                                           (item + 1) * kPackBGroup);
            racecheck::region_access_range(
                rc_pb_ids[st.b_slot], item * kPackBGroup, s_end,
                racecheck::AccessKind::kWrite,
                {st.step, st.coord.m, st.coord.n, st.coord.k,
                 racecheck::Phase::kPack});
            const index_t depth = detail::packed_depth<T>(st.ki);
            for (index_t s = item * kPackBGroup; s < s_end; ++s) {
                const index_t c0 = s * nr;
                require_extent(c0 * depth, nr * depth, pb_cap,
                               "packed-B sliver");
                Ops::pack_b(call.tb, call.b, call.ldb, st.k0, st.n0 + c0,
                            st.ki, std::min(nr, st.ni - c0), nr,
                            pb_slots[st.b_slot] + c0 * depth);
            }
        };
        // One mr row band of step st's block computation, in place in
        // user C: the first K block of a column visit applies beta (the
        // caller's, or 1 on a revisit); later ones accumulate.
        auto compute_item = [&](const BlockStep& st, const B* pb, index_t band) {
            const bool obs_tiles = obs::metrics_enabled();
            schedshake::interleave_point(schedshake::Point::kComputeItem);
            const index_t r = band * mr;
            const index_t mrows = std::min(mr, st.mi - r);
            {
                const racecheck::AccessSite site{st.step, st.coord.m,
                                                 st.coord.n, st.coord.k,
                                                 racecheck::Phase::kCompute};
                racecheck::region_access(rc_pa_ids[st.a_slot], band,
                                         racecheck::AccessKind::kRead, site);
                if (!use_prepacked) {
                    racecheck::region_access_range(
                        rc_pb_ids[st.b_slot], 0, ceil_div(st.ni, nr),
                        racecheck::AccessKind::kRead, site);
                }
                const index_t col0 = st.coord.n * c_cols;
                racecheck::region_access_block(
                    rc_c.id, st.coord.m * c_bands + band,
                    st.coord.m * c_bands + band + 1, col0,
                    col0 + ceil_div(st.ni, nr), racecheck::AccessKind::kWrite,
                    site);
            }
            const C beta = st.c_change && !st.revisit ? call.beta : C(1);
            const index_t c_band = (st.m0 + r) * call.ldc + st.n0;
            const index_t depth = detail::packed_depth<T>(st.ki);
            require_extent(r * depth, mr * depth, pa_cap,
                           "compute A sliver");
            const A* a_sliver = pa_slots[st.a_slot] + r * depth;
            for (index_t j = 0; j < st.ni; j += nr) {
                const index_t ncols = std::min(nr, st.ni - j);
                require_extent(j * depth, nr * depth, pb_cap,
                               "compute B sliver");
                const B* b_sliver = pb + j * depth;
                require_extent(c_band + j, (mrows - 1) * call.ldc + ncols,
                               user_c_cap, "compute C tile");
                const std::uint64_t tile_t0 =
                    obs_tiles ? obs::now_ns() : 0;
                detail::run_tile(kernel, st.ki, a_sliver, b_sliver,
                                 call.c + c_band + j, call.ldc, mrows, ncols,
                                 call.alpha, beta);
                if (obs_tiles) {
                    obs::histogram_observe(
                        tile_latency_hist(),
                        static_cast<double>(obs::now_ns() - tile_t0));
                }
            }
        };

        // `co_issued`: the item runs in a phase that also carries compute
        // items, i.e. the pipeline kept this fetch off the critical path
        // (it overlaps with compute whenever spare hardware threads exist).
        // Always false with overlap off.
        auto do_pack_item = [&](const BlockStep& st, index_t item,
                                bool co_issued) {
            const bool is_a = item < st.a_items;
            const double d = timed_item(
                is_a ? "pack.A" : "pack.B", obs::Phase::kPack, st,
                is_a ? item : item - st.a_items, [&] {
                    if (is_a) {
                        pack_a_item(st, item);
                    } else {
                        pack_b_item(st, item - st.a_items);
                    }
                });
            pack_s += d;
            if (co_issued) hidden_s += d;
        };

        // Pack items come first in a phase's index space so the next
        // block's DRAM fetch starts immediately and spreads over the
        // block's compute time (the constant-bandwidth property, §3).
        for (const BlockPhase& ph : plan.phases) {
            const BlockStep* pk = ph.pack < 0
                ? nullptr
                : &plan.steps[static_cast<std::size_t>(ph.pack)];
            const BlockStep* st = ph.compute < 0
                ? nullptr
                : &plan.steps[static_cast<std::size_t>(ph.compute)];
            const index_t packs =
                pk == nullptr ? 0 : pk->a_items + pk->b_items;
            index_t bands = 0;
            const B* pb = nullptr;
            if (st != nullptr) {
                bands = st->bands;
                pb = use_prepacked
                    ? call.prepacked->panel(st->coord.k, st->coord.n)
                    : pb_slots[st->b_slot];
            }
            run_phase(packs + bands, [&](index_t item) {
                if (item < packs) {
                    do_pack_item(*pk, item, /*co_issued=*/st != nullptr);
                    return;
                }
                compute_s += timed_item(
                    "compute", obs::Phase::kCompute, *st, item - packs,
                    [&] { compute_item(*st, pb, item - packs); });
            });
        }

        worker_pack[static_cast<std::size_t>(tid)] = pack_s;
        worker_compute[static_cast<std::size_t>(tid)] = compute_s;
        worker_hidden[static_cast<std::size_t>(tid)] = hidden_s;
    });
    const double team_wall = team_timer.seconds();

    double pack_total = 0, compute_total = 0, hidden_total = 0;
    for (int i = 0; i < p; ++i) {
        pack_total += worker_pack[static_cast<std::size_t>(i)];
        compute_total += worker_compute[static_cast<std::size_t>(i)];
        hidden_total += worker_hidden[static_cast<std::size_t>(i)];
    }
    stats_.pack_seconds = pack_total / p;
    stats_.compute_seconds = compute_total / p;
    stats_.stall_seconds =
        std::max(0.0, team_wall - (pack_total + compute_total) / p);
    stats_.overlap_efficiency =
        pack_total > 0 ? hidden_total / pack_total : 0.0;
}

template class CakeGemmT<float>;
template class CakeGemmT<double>;
template class CakeGemmT<U8S8S32>;

void cake_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options, CakeStats* stats)
{
    CakeGemm gemm(pool, options);
    gemm.multiply(a, options.op_a == Op::kTranspose ? m : k, b,
                  options.op_b == Op::kTranspose ? k : n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

void cake_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const CakeOptions& options, CakeStats* stats)
{
    CakeGemmD gemm(pool, options);
    gemm.multiply(a, options.op_a == Op::kTranspose ? m : k, b,
                  options.op_b == Op::kTranspose ? k : n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

Matrix cake_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const CakeOptions& options, CakeStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    cake_sgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

MatrixD cake_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const CakeOptions& options, CakeStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    MatrixD c(a.rows(), b.cols());
    cake_dgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

}  // namespace cake
