#include "memsim/trace.hpp"

#include <algorithm>
#include <vector>

#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace memsim {
namespace {

// Element width of the naive-ijk TLB study trace (f32). trace_cake
// scales by the plan's element width instead.
constexpr std::uint32_t kF = sizeof(float);

index_t block_extent(index_t idx, index_t blk, index_t total)
{
    return std::min(blk, total - idx * blk);
}

/// Build a hierarchy for `machine`/`p`, trace the plan, replay, report.
TraceReport replay(const MachineSpec& machine, int p, const GemmShape& shape,
                   const CbBlockParams& params, ScheduleKind kind)
{
    HierarchySim sim(machine, p);
    HierarchySink sink(sim);
    trace_cake(shape, params, kind, sink);
    TraceReport report;
    report.counters = sim.counters();
    report.stalls = attribute_stalls(report.counters);
    report.line_bytes = sim.line_bytes();
    return report;
}

}  // namespace

void trace_cake(const GemmShape& shape, const CbBlockParams& params,
                ScheduleKind kind, TraceSink& sink, const AddressMap& map)
{
    if (shape.m == 0 || shape.n == 0 || shape.k == 0) return;
    const int p = params.p;
    const index_t mr = params.mr;
    const index_t nr = params.nr;
    // Shadows the file-scope f32 constant: this trace is width-aware.
    const auto kF = static_cast<std::uint64_t>(params.elem_bytes);

    const index_t mb = ceil_div(shape.m, params.m_blk);
    const index_t nb = ceil_div(shape.n, params.n_blk);
    const auto order = block_order(kind, shape, params);

    std::vector<char> visited(static_cast<std::size_t>(mb * nb), 0);

    auto core_for_row = [&](index_t r) {
        return static_cast<int>(std::min<index_t>(r / params.mc, p - 1));
    };

    for (std::size_t t = 0; t < order.size(); ++t) {
        const BlockCoord& coord = order[t];
        const SurfaceSharing carried = t == 0
            ? SurfaceSharing{}
            : carried_surfaces(kind, order[t - 1], coord);
        const index_t mi = block_extent(coord.m, params.m_blk, shape.m);
        const index_t ni = block_extent(coord.n, params.n_blk, shape.n);
        const index_t ki = block_extent(coord.k, params.k_blk, shape.k);
        const index_t m0 = coord.m * params.m_blk;
        const index_t n0 = coord.n * params.n_blk;
        const index_t k0 = coord.k * params.k_blk;
        // The kernels compute C in place: a column's first K block
        // overwrites user C (beta = 0); every later block, revisits
        // included, reads it back and accumulates.
        const std::size_t slot =
            static_cast<std::size_t>(coord.m * nb + coord.n);
        const bool overwrite = visited[slot] == 0;
        visited[slot] = 1;

        // --- A surface fetch + pack (skipped when carried over, §2.2) ---
        if (!carried.a) {
            for (index_t r = 0; r < mi; ++r) {
                const int core = core_for_row(r);
                sink.access(core,
                            map.a
                                + static_cast<std::uint64_t>(
                                      (m0 + r) * shape.k + k0)
                                    * kF,
                            static_cast<std::uint32_t>(ki * kF), false);
                sink.access(core,
                            map.pack_a + static_cast<std::uint64_t>(r * ki) * kF,
                            static_cast<std::uint32_t>(ki * kF), true);
            }
        }
        // --- B surface fetch + pack ---
        if (!carried.b) {
            for (index_t q = 0; q < ki; ++q) {
                const int core = static_cast<int>(q % p);
                sink.access(core,
                            map.b
                                + static_cast<std::uint64_t>(
                                      (k0 + q) * shape.n + n0)
                                    * kF,
                            static_cast<std::uint32_t>(ni * kF), false);
                sink.access(core,
                            map.pack_b + static_cast<std::uint64_t>(q * ni) * kF,
                            static_cast<std::uint32_t>(ni * kF), true);
            }
        }

        // --- block computation: per-core micro-kernel sweep (edge blocks
        // split rows evenly, mirroring the driver) ---
        const index_t band =
            round_up(ceil_div(mi, static_cast<index_t>(p)), mr);
        for (int core = 0; core < p; ++core) {
            const index_t r_begin = std::min<index_t>(core * band, mi);
            const index_t r_end = std::min<index_t>((core + 1) * band, mi);
            for (index_t r = r_begin; r < r_end; r += mr) {
                const index_t mrows = std::min(mr, r_end - r);
                const std::uint64_t a_sliver = map.pack_a
                    + static_cast<std::uint64_t>((r / mr) * mr * ki) * kF;
                for (index_t j = 0; j < ni; j += nr) {
                    const index_t ncols = std::min(nr, ni - j);
                    const std::uint64_t b_sliver = map.pack_b
                        + static_cast<std::uint64_t>((j / nr) * nr * ki) * kF;
                    sink.access(core, a_sliver,
                                static_cast<std::uint32_t>(mr * ki * kF),
                                false);
                    sink.access(core, b_sliver,
                                static_cast<std::uint32_t>(nr * ki * kF),
                                false);
                    for (index_t i = 0; i < mrows; ++i) {
                        const std::uint64_t crow = map.c
                            + static_cast<std::uint64_t>(
                                  (m0 + r + i) * shape.n + n0 + j)
                                * kF;
                        if (!overwrite) {
                            sink.access(core, crow,
                                        static_cast<std::uint32_t>(ncols * kF),
                                        false);
                        }
                        sink.access(core, crow,
                                    static_cast<std::uint32_t>(ncols * kF),
                                    true);
                    }
                }
            }
        }
    }
}

void trace_naive_ijk(const GemmShape& shape, TraceSink& sink,
                     const AddressMap& map)
{
    for (index_t i = 0; i < shape.m; ++i) {
        for (index_t j = 0; j < shape.n; ++j) {
            // One inner product: row of A (unit stride) against a column
            // of B (stride n elements — one page per element when the row
            // exceeds a page).
            sink.access(0,
                        map.a + static_cast<std::uint64_t>(i * shape.k) * kF,
                        static_cast<std::uint32_t>(shape.k * kF), false);
            for (index_t p = 0; p < shape.k; ++p) {
                sink.access(0,
                            map.b
                                + static_cast<std::uint64_t>(p * shape.n + j)
                                    * kF,
                            kF, false);
            }
            sink.access(0,
                        map.c + static_cast<std::uint64_t>(i * shape.n + j) * kF,
                        kF, true);
        }
    }
}

TraceReport simulate_cake_memory(const MachineSpec& machine, int p,
                                 const GemmShape& shape,
                                 const TilingOptions& topts,
                                 ScheduleKind kind)
{
    // The model's kernel shape: AVX2-class 6x16 (paper's BLIS kernels).
    return replay(machine, p, shape, compute_cb_block(machine, p, 6, 16, topts),
                  kind);
}

TraceReport simulate_goto_memory(const MachineSpec& machine, int p,
                                 const GemmShape& shape)
{
    return replay(machine, p, shape, goto_plan_params(machine, p, 6, 16),
                  ScheduleKind::kGoto);
}

}  // namespace memsim
}  // namespace cake
