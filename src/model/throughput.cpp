#include "model/throughput.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace model {
namespace {

index_t block_extent(index_t idx, index_t blk, index_t total)
{
    return std::min(blk, total - idx * blk);
}

}  // namespace

TrafficSummary cake_traffic(const GemmShape& shape,
                            const CbBlockParams& params, ScheduleKind kind,
                            bool accumulate)
{
    TrafficSummary t;
    if (shape.m == 0 || shape.n == 0 || shape.k == 0) return t;

    const index_t mb = ceil_div(shape.m, params.m_blk);
    const index_t nb = ceil_div(shape.n, params.n_blk);
    const index_t kb = ceil_div(shape.k, params.k_blk);
    const auto order =
        build_schedule(kind, mb, nb, kb, /*n_outermost=*/shape.n >= shape.m);

    std::vector<char> flushed(static_cast<std::size_t>(mb * nb), 0);
    BlockCoord last{-1, -1, -1};
    bool have_last = false;
    index_t cur_mi = 0, cur_ni = 0;

    // A visit reads C back once: a revisit at its start (the reload
    // below), a first visit with accumulate at its write-back.
    auto flush = [&](const BlockCoord& coord, index_t mi, index_t ni) {
        const std::size_t slot =
            static_cast<std::size_t>(coord.m * nb + coord.n);
        const bool revisit = flushed[slot] != 0;
        const auto bytes = static_cast<std::uint64_t>(mi)
            * static_cast<std::uint64_t>(ni) * sizeof(float);
        t.dram_write_bytes += bytes;
        if (accumulate && !revisit) t.dram_read_bytes += bytes;
        if (accumulate || revisit) {
            t.c_rmw_bytes += 2 * bytes;  // read + write round trip
        }
        flushed[slot] = 1;
        ++t.c_flushes;
    };

    for (const BlockCoord& coord : order) {
        const index_t mi = block_extent(coord.m, params.m_blk, shape.m);
        const index_t ni = block_extent(coord.n, params.n_blk, shape.n);
        const index_t ki = block_extent(coord.k, params.k_blk, shape.k);

        const SurfaceSharing carried = have_last
            ? carried_surfaces(kind, last, coord)
            : SurfaceSharing{};
        if (!carried.a) {
            ++t.a_packs;
            t.dram_read_bytes +=
                static_cast<std::uint64_t>(mi) * ki * sizeof(float);
        }
        if (!carried.b) {
            ++t.b_packs;
            t.dram_read_bytes +=
                static_cast<std::uint64_t>(ki) * ni * sizeof(float);
        }
        if (!carried.c) {
            if (have_last) flush(last, cur_mi, cur_ni);
            const std::size_t slot =
                static_cast<std::size_t>(coord.m * nb + coord.n);
            if (flushed[slot] != 0) {
                t.dram_read_bytes +=
                    static_cast<std::uint64_t>(mi) * ni * sizeof(float);
            }
            cur_mi = mi;
            cur_ni = ni;
        }
        last = coord;
        have_last = true;
    }
    if (have_last) flush(last, cur_mi, cur_ni);
    return t;
}

TrafficSummary goto_traffic(const GemmShape& shape, index_t mc, index_t nc,
                            bool accumulate)
{
    TrafficSummary t;
    if (shape.m == 0 || shape.n == 0 || shape.k == 0) return t;
    const index_t kc = mc;
    for (index_t jc = 0; jc < shape.n; jc += nc) {
        const index_t ncur = std::min(nc, shape.n - jc);
        for (index_t pc = 0; pc < shape.k; pc += kc) {
            const index_t kcur = std::min(kc, shape.k - pc);
            const bool acc = accumulate || pc > 0;
            ++t.b_packs;
            t.dram_read_bytes +=
                static_cast<std::uint64_t>(kcur) * ncur * sizeof(float);
            t.a_packs += ceil_div(shape.m, mc);
            t.dram_read_bytes +=
                static_cast<std::uint64_t>(shape.m) * kcur * sizeof(float);
            const auto c_bytes = static_cast<std::uint64_t>(shape.m) * ncur
                * sizeof(float);
            t.dram_write_bytes += c_bytes;
            if (acc) {
                t.dram_read_bytes += c_bytes;
                t.c_rmw_bytes += 2 * c_bytes;
            }
            ++t.c_flushes;
        }
    }
    return t;
}

namespace {

/// Internal (LLC <-> core) traffic in bytes for a macro-kernel sweep over
/// an mi x ni x ki block: every micro-kernel call streams a B sliver from
/// the LLC and reads+writes its C tile there; the A surface crosses once
/// into the private cache.
double block_internal_bytes(index_t mi, index_t ni, index_t ki,
                            const KernelShape& kernel)
{
    const double calls = static_cast<double>(ceil_div(mi, kernel.mr))
        * static_cast<double>(ceil_div(ni, kernel.nr));
    const double per_call = static_cast<double>(ki) * kernel.nr
        + 2.0 * kernel.mr * kernel.nr;
    return (calls * per_call + static_cast<double>(mi) * ki) * sizeof(float);
}

Prediction finalize(const MachineSpec& machine, int p, const GemmShape& shape,
                    std::uint64_t dram_bytes, std::uint64_t rmw_bytes,
                    double internal_bytes)
{
    Prediction pred;
    pred.dram_bytes = dram_bytes;
    pred.internal_bytes = internal_bytes;
    pred.t_compute = shape.flops() / (machine.peak_gflops(p) * 1e9);
    // Streaming traffic at peak bandwidth; partial-result RMW round trips
    // at the machine's effective RMW rate.
    pred.t_dram =
        static_cast<double>(dram_bytes - rmw_bytes)
            / (machine.dram_bw_gbs * 1e9)
        + static_cast<double>(rmw_bytes) / (machine.rmw_bw_gbs() * 1e9);
    pred.t_internal = internal_bytes / (machine.internal_bw_at(p) * 1e9);
    pred.seconds =
        std::max({pred.t_compute, pred.t_dram, pred.t_internal});
    if (pred.seconds == pred.t_compute) pred.bound = "compute";
    else if (pred.seconds == pred.t_dram) pred.bound = "dram";
    else pred.bound = "internal";
    pred.gflops = shape.flops() / pred.seconds / 1e9;
    pred.avg_dram_bw_gbs =
        static_cast<double>(dram_bytes) / pred.seconds / 1e9;
    return pred;
}

}  // namespace

Prediction predict_cake(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel,
                        const TilingOptions& topts)
{
    CAKE_CHECK(p >= 1);
    const CbBlockParams params =
        compute_cb_block(machine, p, kernel.mr, kernel.nr, topts);
    const TrafficSummary traffic = cake_traffic(shape, params);

    const index_t mb = ceil_div(shape.m, params.m_blk);
    const index_t nb = ceil_div(shape.n, params.n_blk);
    const index_t kb = ceil_div(shape.k, params.k_blk);
    double internal = 0;
    for (index_t im = 0; im < mb; ++im) {
        const index_t mi = block_extent(im, params.m_blk, shape.m);
        for (index_t in = 0; in < nb; ++in) {
            const index_t ni = block_extent(in, params.n_blk, shape.n);
            for (index_t ik = 0; ik < kb; ++ik) {
                const index_t ki = block_extent(ik, params.k_blk, shape.k);
                internal += block_internal_bytes(mi, ni, ki, kernel);
            }
        }
    }

    Prediction pred = finalize(machine, p, shape, traffic.total_bytes(),
                               traffic.c_rmw_bytes, internal);
    pred.cake_params = params;
    return pred;
}

Prediction predict_goto(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel)
{
    CAKE_CHECK(p >= 1);
    const GotoBlocking blocking =
        goto_default_blocking(machine, kernel.mr, kernel.nr);
    const TrafficSummary traffic =
        goto_traffic(shape, blocking.mc, blocking.nc);

    double internal = 0;
    for (index_t jc = 0; jc < shape.n; jc += blocking.nc) {
        const index_t ncur = std::min(blocking.nc, shape.n - jc);
        for (index_t pc = 0; pc < shape.k; pc += blocking.kc) {
            const index_t kcur = std::min(blocking.kc, shape.k - pc);
            for (index_t ic = 0; ic < shape.m; ic += blocking.mc) {
                const index_t mcur = std::min(blocking.mc, shape.m - ic);
                internal += block_internal_bytes(mcur, ncur, kcur, kernel);
            }
        }
    }
    return finalize(machine, p, shape, traffic.total_bytes(),
                    traffic.c_rmw_bytes, internal);
}

}  // namespace model
}  // namespace cake
