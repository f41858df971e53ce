#include "core/block_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cake {

BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in)
{
    CAKE_CHECK(!order.empty());
    CAKE_CHECK(in.m >= 1 && in.n >= 1 && in.k >= 1);
    CAKE_CHECK(in.nb >= 1 && in.kb >= 1 && in.ldc >= in.n);

    const CbBlockParams& params = in.params;
    const OperandBytes bytes = in.bytes.or_uniform(params.elem_bytes);
    const auto a_elem = static_cast<std::uint64_t>(bytes.a);
    const auto b_elem = static_cast<std::uint64_t>(bytes.b);
    const auto c_elem = static_cast<std::uint64_t>(bytes.c);
    const auto steps = static_cast<index_t>(order.size());

    BlockPlan plan;
    plan.steps.resize(static_cast<std::size_t>(steps));
    BlockPlanStats& stats = plan.stats;

    // Per-(m, n) column bookkeeping, evolved in schedule order: how many K
    // blocks have accumulated and whether a visit of the column already
    // retired (possible only under non-K-first ablation schedules).
    std::vector<index_t> k_done;
    std::vector<char> flushed;
    {
        index_t mb_max = 0;
        for (const BlockCoord& c : order) mb_max = std::max(mb_max, c.m + 1);
        k_done.assign(static_cast<std::size_t>(mb_max * in.nb), 0);
        flushed.assign(static_cast<std::size_t>(mb_max * in.nb), 0);
    }

    auto block_extent = [](index_t idx, index_t blk, index_t total) {
        return std::min(blk, total - idx * blk);
    };
    for (index_t t = 0; t < steps; ++t) {
        BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        st.coord = order[static_cast<std::size_t>(t)];
        st.step = t;
        st.mi = block_extent(st.coord.m, params.m_blk, in.m);
        st.ni = block_extent(st.coord.n, params.n_blk, in.n);
        st.ki = block_extent(st.coord.k, params.k_blk, in.k);
        st.m0 = st.coord.m * params.m_blk;
        st.n0 = st.coord.n * params.n_blk;
        st.k0 = st.coord.k * params.k_blk;

        const BlockStep* prev =
            t == 0 ? nullptr : &plan.steps[static_cast<std::size_t>(t - 1)];
        const SurfaceSharing shared = prev == nullptr
            ? SurfaceSharing{}
            : shared_surfaces(prev->coord, st.coord);

        st.a_slot = prev != nullptr ? prev->a_slot : 0;
        st.pack_a = !shared.a;
        if (in.double_buffer && prev != nullptr && st.pack_a) {
            st.a_slot = 1 - prev->a_slot;
        }
        if (st.pack_a) {
            ++stats.a_packs;
            stats.dram_read_bytes +=
                static_cast<std::uint64_t>(st.mi) * st.ki * a_elem;
        }

        st.b_slot = prev != nullptr ? prev->b_slot : 0;
        st.b_fresh = !shared.b;
        if (in.use_prepacked) {
            // Weights are already in panel format: no pack work, but the
            // surface still streams DRAM -> local memory once per block.
            st.pack_b = false;
            if (st.b_fresh) {
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.ki) * st.ni * b_elem;
            }
        } else {
            st.pack_b = st.b_fresh;
            if (in.double_buffer && prev != nullptr && st.pack_b) {
                st.b_slot = 1 - prev->b_slot;
            }
            if (st.pack_b) {
                ++stats.b_packs;
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.ki) * st.ni * b_elem;
            }
        }

        st.c_change = !shared.c;
        const std::size_t slot =
            static_cast<std::size_t>(st.coord.m * in.nb + st.coord.n);
        st.revisit = flushed[slot] != 0;
        const auto c_bytes = static_cast<std::uint64_t>(st.mi)
            * static_cast<std::uint64_t>(st.ni) * c_elem;
        if (st.c_change && st.revisit) {
            // Revisiting a retired column: its partial sum comes back from
            // external memory (non-K-first ablation schedules only).
            stats.dram_read_bytes += c_bytes;
        }
        ++k_done[slot];
        ++stats.blocks_executed;

        // The column's visit ends after this step: its write-back.
        st.c_last = t + 1 == steps
            || !shared_surfaces(st.coord,
                                order[static_cast<std::size_t>(t + 1)])
                    .c;
        if (!st.c_last) continue;
        flushed[slot] = 1;
        ++stats.c_flushes;
        stats.dram_write_bytes += c_bytes;
        // A first visit applies the caller's beta (a read-back iff beta !=
        // 0); a revisit accumulates, so it always reads back.
        if (st.revisit || in.beta_nonzero) stats.dram_read_bytes += c_bytes;
        if (k_done[slot] < in.kb) ++stats.c_partial_spills;
    }
    return plan;
}

}  // namespace cake
