#include "gotoblas/goto_gemm.hpp"

#include <algorithm>
#include <cmath>

#include "common/checked.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

/// Publish one multiply's GotoStats into the obs metrics registry
/// (mirrors publish_cake_stats in src/core).
void publish_goto_stats(const GotoStats& s)
{
    if (!obs::metrics_enabled()) return;
    static const obs::MetricId multiplies =
        obs::counter("goto.gemm.multiplies");
    static const obs::MetricId passes = obs::counter("goto.gemm.c_passes");
    static const obs::MetricId a_packs = obs::counter("goto.gemm.a_packs");
    static const obs::MetricId b_packs = obs::counter("goto.gemm.b_packs");
    static const obs::MetricId dram_rd =
        obs::counter("goto.gemm.dram_read_bytes");
    static const obs::MetricId dram_wr =
        obs::counter("goto.gemm.dram_write_bytes");
    static const obs::MetricId pack_s = obs::gauge("goto.gemm.pack_s");
    static const obs::MetricId compute_s =
        obs::gauge("goto.gemm.compute_s");
    static const obs::MetricId stall_s = obs::gauge("goto.gemm.stall_s");
    static const obs::MetricId total_s = obs::gauge("goto.gemm.total_s");
    obs::counter_add(multiplies, 1);
    obs::counter_add(passes, static_cast<std::uint64_t>(s.c_passes));
    obs::counter_add(a_packs, static_cast<std::uint64_t>(s.a_packs));
    obs::counter_add(b_packs, static_cast<std::uint64_t>(s.b_packs));
    obs::counter_add(dram_rd, s.dram_read_bytes);
    obs::counter_add(dram_wr, s.dram_write_bytes);
    obs::gauge_set(pack_s, s.pack_seconds);
    obs::gauge_set(compute_s, s.compute_seconds);
    obs::gauge_set(stall_s, s.stall_seconds);
    obs::gauge_set(total_s, s.total_seconds);
}

/// Square mc = kc from the deepest private cache, exactly as the CAKE
/// solver does (§4.4: both algorithms reuse square A sub-blocks in L2).
index_t square_l2_block(const MachineSpec& machine, index_t mr,
                        double fraction)
{
    // Deepest private level below the LLC (same rule as the CAKE solver).
    const auto& levels = machine.caches.levels;
    const CacheLevel* priv = nullptr;
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
        if (levels[i].shared_by_cores == 1) priv = &levels[i];
    }
    const CacheLevel& l2 = priv != nullptr ? *priv : levels.front();
    const double budget_floats =
        fraction * static_cast<double>(l2.size_bytes) / sizeof(float);
    auto mc = static_cast<index_t>(std::sqrt(std::max(budget_floats, 1.0)));
    return std::max<index_t>(mc / mr * mr, mr);
}

}  // namespace

std::vector<GotoPass> build_goto_passes(index_t n, index_t k, index_t nc,
                                        index_t kc, bool accumulate)
{
    std::vector<GotoPass> passes;
    passes.reserve(static_cast<std::size_t>(ceil_div(n, nc))
                   * static_cast<std::size_t>(ceil_div(k, kc)));
    for (index_t jc = 0; jc < n; jc += nc) {
        for (index_t pc = 0; pc < k; pc += kc) {
            GotoPass pass;
            pass.jc = jc;
            pass.pc = pc;
            pass.ncur = std::min(nc, n - jc);
            pass.kcur = std::min(kc, k - pc);
            pass.acc = accumulate || pc > 0;
            passes.push_back(pass);
        }
    }
    return passes;
}

GotoBlocking goto_default_blocking(const MachineSpec& machine, index_t mr,
                                   index_t nr)
{
    GotoBlocking blocking;
    blocking.mc = square_l2_block(machine, mr, /*fraction=*/0.5);
    blocking.kc = blocking.mc;
    // GOTO fills the LLC with the kc x nc B panel (§4.4).
    const double llc_floats =
        0.9 * static_cast<double>(machine.llc_bytes()) / sizeof(float);
    blocking.nc = static_cast<index_t>(
        llc_floats / static_cast<double>(blocking.kc));
    blocking.nc = std::max<index_t>(blocking.nc / nr * nr, nr);
    return blocking;
}

template <typename T>
GotoGemmT<T>::GotoGemmT(ThreadPool& pool, GotoOptions options)
    : pool_(pool), options_(std::move(options)),
      machine_(options_.machine ? *options_.machine : host_machine()),
      kernel_(options_.isa ? microkernel_for_of<T>(*options_.isa)
                           : best_microkernel_of<T>())
{
    if (options_.p <= 0 || options_.p > pool_.size())
        options_.p = pool_.size();
}

template <typename T>
void GotoGemmT<T>::multiply(const T* a, index_t lda, const T* b, index_t ldb,
                            T* c, index_t ldc, index_t m, index_t n,
                            index_t k)
{
    CAKE_CHECK(m >= 0 && n >= 0 && k >= 0);
    CAKE_CHECK(lda >= k && ldb >= n && ldc >= n);
    if (m == 0 || n == 0) return;
    if (k == 0) {
        if (!options_.accumulate) {
            for (index_t i = 0; i < m; ++i)
                std::fill(c + i * ldc, c + i * ldc + n, T(0));
        }
        return;
    }

    Timer total_timer;
    const int p = options_.p;

    const GotoBlocking defaults =
        goto_default_blocking(machine_, kernel_.mr, kernel_.nr);
    const index_t mc = options_.mc ? *options_.mc : defaults.mc;
    CAKE_CHECK_MSG(mc >= kernel_.mr && mc % kernel_.mr == 0,
                   "mc must be a positive multiple of mr");
    const index_t kc = mc;
    index_t nc = defaults.nc;
    if (options_.nc) {
        nc = *options_.nc;
        CAKE_CHECK_MSG(nc >= kernel_.nr && nc % kernel_.nr == 0,
                       "nc must be a positive multiple of nr");
    }

    stats_ = GotoStats{};
    stats_.mc = mc;
    stats_.kc = kc;
    stats_.nc = nc;

    pack_b_.ensure(
        static_cast<std::size_t>(packed_b_size(kc, nc, kernel_.nr)));
    if (pack_a_.size() < static_cast<std::size_t>(p)) {
        pack_a_.resize(static_cast<std::size_t>(p));
        scratch_.resize(static_cast<std::size_t>(p));
    }
    for (auto& buf : pack_a_) {
        buf.ensure(
            static_cast<std::size_t>(packed_a_size(mc, kc, kernel_.mr)));
    }
    for (auto& s : scratch_) {
        s.ensure(static_cast<std::size_t>(kernel_.mr * kernel_.nr));
    }

    const MicroKernelT<T> kernel = kernel_;

    // The pass list is data (build_goto_passes) so the schedule-IR
    // extractor replays exactly the loop nest executed here.
    for (const GotoPass& pass :
         build_goto_passes(n, k, nc, kc, options_.accumulate)) {
        {
            const index_t jc = pass.jc;
            const index_t pc = pass.pc;
            const index_t ncur = pass.ncur, kcur = pass.kcur;
            const bool acc = pass.acc;

            // Pack the B panel into the LLC stand-in buffer.
            Timer pack_timer;
            const T* bsrc = b + pc * ldb + jc;
            pool_.parallel_for(0, ceil_div(ncur, kernel.nr), p,
                               [&](index_t s0, index_t s1) {
                obs::ScopedSpan span("pack.B", obs::Phase::kPack, -1,
                                     jc / nc, pc / kc, s0);
                const index_t c0 = s0 * kernel.nr;
                const index_t c1 = std::min(ncur, s1 * kernel.nr);
                pack_b_panel(bsrc + c0, ldb, kcur, c1 - c0, kernel.nr,
                             pack_b_.data() + c0 * kcur);
            });
            stats_.pack_seconds += pack_timer.seconds();

            // Parallel over M: each worker packs its own A block into its
            // private-L2 stand-in and runs the macro-kernel, streaming
            // partial C tiles directly to user (external) memory.
            Timer compute_timer;
            // Spanned panels: CAKE_CHECKED builds validate every sliver
            // slice against the pack-buffer capacities; release builds
            // compile these to the raw pointers.
            Span<const T> pb =
                make_span(static_cast<const T*>(pack_b_.data()),
                          pack_b_.size(), "GOTO packed-B panel");
            pool_.run(p, [&, kernel, pb, acc](int tid) {
                obs::ScopedSpan span("compute", obs::Phase::kCompute, -1,
                                     jc / nc, pc / kc, tid);
                AlignedBuffer<T>& pa_buf =
                    pack_a_[static_cast<std::size_t>(tid)];
                Span<const T> pa =
                    make_span(static_cast<const T*>(pa_buf.data()),
                              pa_buf.size(), "GOTO packed-A panel");
                T* scratch = scratch_[static_cast<std::size_t>(tid)].data();
                for (index_t ic = tid * mc; ic < m;
                     ic += static_cast<index_t>(p) * mc) {
                    const index_t mcur = std::min(mc, m - ic);
                    {
                        obs::ScopedSpan pack_span("pack.A",
                                                  obs::Phase::kPack, ic / mc,
                                                  jc / nc, pc / kc, tid);
                        pack_a_panel(a + ic * lda + pc, lda, mcur, kcur,
                                     kernel.mr, pa_buf.data());
                    }
                    for (index_t ir = 0; ir < mcur; ir += kernel.mr) {
                        const index_t mrows = std::min(kernel.mr, mcur - ir);
                        Span<const T> a_sliver = span_slice(
                            pa, (ir / kernel.mr) * kernel.mr * kcur,
                            kernel.mr * kcur);
                        for (index_t jr = 0; jr < ncur; jr += kernel.nr) {
                            const index_t ncols =
                                std::min(kernel.nr, ncur - jr);
                            Span<const T> b_sliver = span_slice(
                                pb, (jr / kernel.nr) * kernel.nr * kcur,
                                kernel.nr * kcur);
                            run_microkernel_tile(
                                kernel, kcur, span_data(a_sliver),
                                span_data(b_sliver),
                                c + (ic + ir) * ldc + jc + jr, ldc, mrows,
                                ncols, acc, scratch);
                        }
                    }
                }
            });
            stats_.compute_seconds += compute_timer.seconds();

            // External-traffic model for this (jc, pc) pass.
            ++stats_.c_passes;
            stats_.b_packs += 1;
            stats_.dram_read_bytes +=
                static_cast<std::uint64_t>(kcur) * ncur * sizeof(T);
            const index_t a_blocks = ceil_div(m, mc);
            stats_.a_packs += a_blocks;
            stats_.dram_read_bytes +=
                static_cast<std::uint64_t>(m) * kcur * sizeof(T);
            const auto c_bytes =
                static_cast<std::uint64_t>(m) * ncur * sizeof(T);
            stats_.dram_write_bytes += c_bytes;  // partial results stream out
            if (acc) stats_.dram_read_bytes += c_bytes;  // ... and back in
        }
    }

    // CAKE_CHECKED: all panels flushed — verify no pack overran a guard.
    pack_b_.verify_canaries("GOTO packed-B buffer");
    for (const auto& buf : pack_a_) {
        buf.verify_canaries("GOTO packed-A buffer");
    }
    for (const auto& s : scratch_) {
        s.verify_canaries("GOTO kernel scratch tile");
    }

    stats_.total_seconds = total_timer.seconds();
    stats_.stall_seconds =
        std::max(0.0, stats_.total_seconds - stats_.pack_seconds
                          - stats_.compute_seconds);
    publish_goto_stats(stats_);
}

template class GotoGemmT<float>;
template class GotoGemmT<double>;

void goto_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const GotoOptions& options, GotoStats* stats)
{
    GotoGemm gemm(pool, options);
    gemm.multiply(a, k, b, n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

void goto_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const GotoOptions& options, GotoStats* stats)
{
    GotoGemmD gemm(pool, options);
    gemm.multiply(a, k, b, n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

Matrix goto_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const GotoOptions& options, GotoStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    goto_sgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

MatrixD goto_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const GotoOptions& options, GotoStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    MatrixD c(a.rows(), b.cols());
    goto_dgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

}  // namespace cake
