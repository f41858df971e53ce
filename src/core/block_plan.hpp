// The CB-block execution plan: the per-step decisions (which surfaces to
// fetch, which double-buffer half holds them, how many work items each
// takes, whether a step opens a visit of its C column, applying beta to
// user C, and whether it retires the column) and the team's barrier-
// delimited phases, derived once, up front, as a pure function of the
// block order (core/schedule's block_order) and the tiling parameters.
//
// The one block-loop executor in src/core/cake_gemm.cpp runs the plan's
// phases for every kernel family — single-buffered with the pack of each
// fetching step in a phase of its own when overlap is off, double-buffered
// with pack(t+1) co-issued with compute(t) when it is on — and the
// schedule-IR extractor in src/analysis/schedir.cpp emits one IR phase per
// plan phase from the *same* plan. That sharing is the point: the verifier
// proves properties of the data structure the runtime actually executes,
// not of a parallel reimplementation that could drift.
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
    /// already holds its partial sum and the visit's beta is 1. Only
    /// N-innermost and GOTO revisit a column.
    bool revisit = false;
    /// The column's visit ends with this step: the modelled traffic
    /// counts its write-back to external memory here.
    bool c_last = false;
    /// c_last before the column's last K block: the write-back is a
    /// partial spill, not the finished result.
    bool c_partial = false;
    /// Work items: pack-A groups of kPackAGroup mr slivers (0 unless
    /// pack_a), pack-B groups of kPackBGroup nr slivers (0 unless pack_b)
    /// and mr compute bands.
    index_t a_items = 0, b_items = 0, bands = 0;
};

/// One barrier-delimited phase of the team: the pack items of step
/// `pack`, then the compute bands of step `compute` (-1: none).
struct BlockPhase {
    index_t pack = -1;
    index_t compute = -1;
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
    /// The user-C share of dram_read_bytes: revisit reloads and first-visit
    /// beta != 0 read-backs. Each is half of a read-modify-write round trip.
    std::uint64_t c_read_bytes = 0;

    [[nodiscard]] std::uint64_t total_bytes() const
    {
        return dram_read_bytes + dram_write_bytes;
    }
};

/// The resolved plan for one multiply. The last step always has c_last
/// set: it retires the last live column. `phases` is the team's phase
/// list: the pipeline fill packs step 0; then, with double_buffer, one
/// phase per step t computes t while packing t + 1 (1 + steps phases);
/// without it, every step t > 0 that packs gets a pack-only phase right
/// before the phase computing it.
struct BlockPlan {
    std::vector<BlockStep> steps;
    std::vector<BlockPhase> phases;
    BlockPlanStats stats;
};

/// Inputs `build_block_plan` needs beyond the schedule itself. Only shape
/// and policy — no pointers, so the same plan describes a dry run.
struct BlockPlanInputs {
    CbBlockParams params;
    /// The kind `order` was built for: its carry-over rule
    /// (carried_surfaces) decides what each step fetches and retires.
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    index_t m = 0, n = 0, k = 0;
    index_t ldc = 0;   ///< user-C leading dimension (validated: >= n)
    index_t nb = 0;    ///< grid width, for (m, n) -> column-slot mapping
    index_t kb = 0;    ///< grid depth, for partial-spill detection
    bool use_prepacked = false;  ///< B streams from panels, no pack ops
    bool beta_nonzero = false;   ///< first visits read user C back
    bool double_buffer = false;  ///< alternate pack slots on fresh fetches
    OperandBytes bytes;          ///< stored operand widths (traffic model)
};

/// The inputs of the plan of a multiply of `shape` under `params` and
/// `kind`: the grid of block_order, packed C (ldc = n), beta != 0 iff
/// `beta_nonzero`, no prepacked B, overlap off and every operand at
/// params.elem_bytes. Callers override the policy fields that differ.
BlockPlanInputs plan_inputs(const GemmShape& shape,
                            const CbBlockParams& params,
                            ScheduleKind kind = ScheduleKind::kKFirstSerpentine,
                            bool beta_nonzero = false);

/// Derive the execution plan for `order`. Every decision the executor
/// makes per step — surface sharing, slot assignment, work items, column
/// visits, DRAM traffic accounting — and its phase list are resolved
/// here, in schedule order.
BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in);

}  // namespace cake
