#include "core/tiling.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

/// Deepest cache level private to one core, excluding the last level
/// (which always plays the shared "local memory" role even on single-core
/// hosts): where each core's square mc x kc A sub-block lives (L2 on the
/// desktop CPUs; L1 on the A53, whose L2 is the shared LLC).
const CacheLevel& private_cache(const MachineSpec& machine)
{
    const auto& levels = machine.caches.levels;
    CAKE_CHECK_MSG(!levels.empty(), "machine has no cache levels");
    const CacheLevel* best = nullptr;
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
        if (levels[i].shared_by_cores == 1) best = &levels[i];
    }
    return best != nullptr ? *best : levels.front();
}

/// Seconds for one core to run one mr x nr x kc micro-kernel invocation.
double tile_seconds(const MachineSpec& machine, index_t mr, index_t nr,
                    index_t kc)
{
    const double flops = 2.0 * static_cast<double>(mr)
        * static_cast<double>(nr) * static_cast<double>(kc);
    return flops / (machine.core_gflops * 1e9);
}

/// Largest alpha for which the LRU working set C + 2(A+B) fits the LLC
/// (§4.3). May be < 1, signalling mc must shrink.
double max_alpha_for_llc(const MachineSpec& machine, int p, index_t mc,
                         index_t kc, double llc_fraction, index_t elem_bytes)
{
    const double s_floats = llc_fraction
        * static_cast<double>(machine.llc_bytes())
        / static_cast<double>(elem_bytes);
    const double dp = static_cast<double>(p);
    const double dmc = static_cast<double>(mc);
    const double dkc = static_cast<double>(kc);
    const double a = dp * dmc * dkc;                          // A surface
    const double c_per_alpha = dp * dp * dmc * dmc;
    const double b_per_alpha = dp * dmc * dkc;
    // alpha*(C' + 2B') + 2A <= S  =>  alpha <= (S - 2A) / (C' + 2B')
    return (s_floats - 2.0 * a) / (c_per_alpha + 2.0 * b_per_alpha);
}

}  // namespace

std::size_t private_cache_bytes(const MachineSpec& machine)
{
    return private_cache(machine).size_bytes;
}

index_t square_private_block(const MachineSpec& machine, index_t mr,
                             double fraction, index_t elem_bytes)
{
    const double budget_elems = fraction
        * static_cast<double>(private_cache(machine).size_bytes)
        / static_cast<double>(elem_bytes);
    const auto mc =
        static_cast<index_t>(std::sqrt(std::max(budget_elems, 1.0)));
    return std::max<index_t>(mc / mr * mr, mr);
}

std::size_t CbBlockParams::surface_bytes() const
{
    const auto a = static_cast<std::size_t>(m_blk) * k_blk;
    const auto b = static_cast<std::size_t>(k_blk) * n_blk;
    const auto c = static_cast<std::size_t>(m_blk) * n_blk;
    return (a + b + c) * static_cast<std::size_t>(elem_bytes);
}

std::size_t CbBlockParams::lru_working_set_bytes() const
{
    const auto a = static_cast<std::size_t>(m_blk) * k_blk;
    const auto b = static_cast<std::size_t>(k_blk) * n_blk;
    const auto c = static_cast<std::size_t>(m_blk) * n_blk;
    return (c + 2 * (a + b)) * static_cast<std::size_t>(elem_bytes);
}

double CbBlockParams::arithmetic_intensity() const
{
    const double macs = static_cast<double>(m_blk)
        * static_cast<double>(n_blk) * static_cast<double>(k_blk);
    const double io_bytes =
        (static_cast<double>(m_blk) * static_cast<double>(k_blk)
         + static_cast<double>(k_blk) * static_cast<double>(n_blk))
        * static_cast<double>(elem_bytes);
    return 2.0 * macs / io_bytes;
}

double bandwidth_ratio(const MachineSpec& machine, int p, index_t mr,
                       index_t nr, index_t mc, index_t kc, index_t elem_bytes)
{
    (void)p;  // the ratio is per-core-count invariant: p cancels (§3.2)
    // DRAM demand of the block as alpha -> infinity:
    //   IO/T -> elem_bytes/2 * core_gflops * 1e9 / mc bytes/s.
    const double t_tile = tile_seconds(machine, mr, nr, kc);
    const double bw_floor = static_cast<double>(elem_bytes)
        * static_cast<double>(kc) * static_cast<double>(mr)
        * static_cast<double>(nr) / (static_cast<double>(mc) * t_tile);
    return machine.dram_bw_gbs * 1e9 / bw_floor;
}

double required_dram_bw_gbs(const MachineSpec& machine,
                            const CbBlockParams& params)
{
    const double io_bytes =
        (static_cast<double>(params.m_blk) * static_cast<double>(params.k_blk)
         + static_cast<double>(params.k_blk)
             * static_cast<double>(params.n_blk))
        * static_cast<double>(params.elem_bytes);
    const double tiles_per_core = static_cast<double>(
        ceil_div(params.mc, params.mr) * ceil_div(params.n_blk, params.nr));
    const double t =
        tiles_per_core * tile_seconds(machine, params.mr, params.nr, params.k_blk);
    return io_bytes / t / 1e9;
}

CbBlockParams compute_cb_block(const MachineSpec& machine, int p, index_t mr,
                               index_t nr, const TilingOptions& opts)
{
    CAKE_CHECK(p >= 1);
    CAKE_CHECK(mr >= 1 && nr >= 1);

    CAKE_CHECK_MSG(!(opts.alpha && opts.nc),
                   "alpha and nc overrides conflict: nc fixes the N extent "
                   "that alpha would derive");

    CbBlockParams params;
    params.p = p;
    params.mr = mr;
    params.nr = nr;

    // 1. Square per-core sub-block from the private cache budget.
    index_t mc;
    if (opts.mc) {
        mc = *opts.mc;
        CAKE_CHECK_MSG(mc >= mr && mc % mr == 0,
                       "mc override must be a positive multiple of mr");
    } else {
        mc = square_private_block(machine, mr, opts.l2_fraction,
                                  opts.elem_bytes);
    }
    if (opts.kc) {
        CAKE_CHECK_MSG(*opts.kc >= 1, "kc override must be >= 1");
    }
    // kc follows mc (square §4.1 sub-block) unless overridden; in the
    // shrink loop below it therefore tracks the shrinking mc.
    auto kc_of = [&](index_t mc_now) {
        return opts.kc ? *opts.kc : mc_now;
    };

    // 3a. Shrink mc until an alpha >= 1 block fits the LLC under the LRU
    //     rule (or mc bottoms out at one register tile).
    if (!opts.mc) {
        while (mc > mr
               && max_alpha_for_llc(machine, p, mc, kc_of(mc),
                                    opts.llc_fraction, opts.elem_bytes)
                   < 1.0) {
            mc -= mr;
        }
    }
    const index_t kc = kc_of(mc);

    // 2. alpha from the bandwidth-availability ratio (Eq. 2: alpha >= 1/(R-1))
    //    — or directly from a forced N extent.
    const double r =
        bandwidth_ratio(machine, p, mr, nr, mc, kc, opts.elem_bytes);
    double alpha;
    index_t n_blk;
    const double alpha_cap = std::max(
        1.0,
        max_alpha_for_llc(machine, p, mc, kc, opts.llc_fraction,
                          opts.elem_bytes));
    if (opts.nc) {
        CAKE_CHECK_MSG(*opts.nc >= 1, "nc override must be >= 1");
        n_blk = std::max(round_up(*opts.nc, nr), nr);
        // Derived stretch factor; may fall below 1 for a deliberately
        // narrow block — audit_cb_plan flags that as a GEOMETRY issue.
        alpha = static_cast<double>(n_blk)
            / (static_cast<double>(p) * static_cast<double>(mc));
    } else {
        if (opts.alpha) {
            alpha = *opts.alpha;
            CAKE_CHECK_MSG(alpha >= 1.0, "alpha must be >= 1");
        } else if (r > 1.0) {
            alpha = std::clamp(1.0 / (r - 1.0), 1.0, alpha_cap);
        } else {
            // DRAM can never match compute at this geometry; stretch the
            // block as far as local memory allows to maximise arithmetic
            // intensity.
            alpha = alpha_cap;
        }
        n_blk = std::max(
            round_up(static_cast<index_t>(std::llround(
                         alpha * static_cast<double>(p)
                         * static_cast<double>(mc))),
                     nr),
            nr);
    }

    params.elem_bytes = opts.elem_bytes;
    params.mc = mc;
    params.kc = kc;
    params.alpha = alpha;
    params.m_blk = static_cast<index_t>(p) * mc;
    params.k_blk = kc;
    params.n_blk = n_blk;
    return params;
}

}  // namespace cake
