// The CB-block execution plan: the per-step decisions (which surfaces to
// fetch, which double-buffer half holds them, whether a step opens a visit
// of its C column, applying beta to user C, and whether it retires the
// column) derived once, up front, as a pure function of the block
// schedule and the tiling parameters.
//
// The one block-loop executor in src/core/cake_gemm.cpp consumes this plan
// for every kernel family — with double-buffering disabled (every slot
// stays 0) when overlap is off, with slots alternating on each fresh fetch
// when it is on — and the schedule-IR extractor in src/analysis/schedir.cpp
// replays the *same* plan to emit the tile operations it verifies. That
// sharing is the point: the verifier proves properties of the data
// structure the runtime actually executes, not of a parallel
// reimplementation that could drift.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"

namespace cake {

// Work-item granularity shared by the pipelined executor and the IR
// extractor. Compute items stay one mr band each — the load-balancing unit
// that keeps every core busy on edge blocks — and accumulate straight into
// their band of user C. Pack items are grouped coarser:
// they are short memcpy-like bodies, and per-item counter and clock
// overhead would otherwise be measurable.
inline constexpr index_t kPackAGroup = 4;  ///< mr slivers per pack-A item
inline constexpr index_t kPackBGroup = 8;  ///< nr slivers per pack-B item

/// One schedule step's resolved execution decisions.
struct BlockStep {
    BlockCoord coord;
    index_t step = 0;  ///< schedule position (for diagnostics)
    index_t mi = 0, ni = 0, ki = 0;  ///< block extents (edge-clipped)
    index_t m0 = 0, n0 = 0, k0 = 0;  ///< element offsets into A/B/C
    int a_slot = 0, b_slot = 0;  ///< double-buffer half holding A / B
    bool pack_a = false;  ///< A not shared with the previous step: fetch it
    bool pack_b = false;  ///< B not shared: pack it (never set prepacked)
    bool b_fresh = false;  ///< B surface newly streamed (pack or prepacked)
    /// A visit of an (m, n) column starts at this step: its compute
    /// applies beta to the column's user-C rows (the caller's beta, or 1
    /// on a revisit) instead of accumulating into them.
    bool c_change = false;
    /// The column was visited and retired before this visit, so user C
    /// already holds its partial sum and the visit's beta is 1. Only the
    /// non-K-first ablation schedules revisit a column.
    bool revisit = false;
    /// The column's visit ends with this step: the modelled traffic
    /// counts its write-back to external memory here.
    bool c_last = false;
};

/// Stored width in bytes of each operand surface. The modelled traffic
/// counts A and B at the width the caller stores them and C at its
/// accumulator width (1, 1 and 4 for u8 x s8 -> s32). A zero field falls
/// back to the solver's uniform params.elem_bytes, which is every
/// operand's width for f32 and f64.
struct OperandBytes {
    index_t a = 0, b = 0, c = 0;

    /// This record with every zero field replaced by `elem_bytes`.
    [[nodiscard]] OperandBytes or_uniform(index_t elem_bytes) const
    {
        return {a > 0 ? a : elem_bytes, b > 0 ? b : elem_bytes,
                c > 0 ? c : elem_bytes};
    }
};

/// Modelled external-memory traffic and operation counts of a plan. The
/// executor copies these into CakeStats verbatim instead of re-deriving
/// them step by step.
struct BlockPlanStats {
    index_t blocks_executed = 0;
    index_t a_packs = 0;
    index_t b_packs = 0;
    index_t c_flushes = 0;         ///< column retirements (one per visit)
    index_t c_partial_spills = 0;  ///< retirements before the last K block
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;
};

/// The resolved plan for one multiply. The last step always has c_last
/// set: it retires the last live column.
struct BlockPlan {
    std::vector<BlockStep> steps;
    BlockPlanStats stats;
};

/// Inputs `build_block_plan` needs beyond the schedule itself. Only shape
/// and policy — no pointers, so the same plan describes a dry run.
struct BlockPlanInputs {
    CbBlockParams params;
    index_t m = 0, n = 0, k = 0;
    index_t ldc = 0;   ///< user-C leading dimension (validated: >= n)
    index_t nb = 0;    ///< grid width, for (m, n) -> column-slot mapping
    index_t kb = 0;    ///< grid depth, for partial-spill detection
    bool use_prepacked = false;  ///< B streams from panels, no pack ops
    bool beta_nonzero = false;   ///< first visits read user C back
    bool double_buffer = false;  ///< alternate pack slots on fresh fetches
    OperandBytes bytes;          ///< stored operand widths (traffic model)
};

/// Derive the execution plan for `order`. Every decision the executor
/// makes per step — surface sharing, slot assignment, column visits,
/// DRAM traffic accounting — is resolved here, in schedule order.
BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in);

}  // namespace cake
