// Block scheduling: the K-first serpentine traversal of the CB-block grid
// (paper §2.2 and Algorithm 2). The schedule is materialised as data so the
// runtime, the memory simulator and the architecture simulator all execute
// exactly the same block order.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/tiling.hpp"

namespace cake {

/// Grid coordinates of one CB block inside the partitioned MM space.
struct BlockCoord {
    index_t m = 0;
    index_t n = 0;
    index_t k = 0;

    friend bool operator==(const BlockCoord&, const BlockCoord&) = default;
};

/// Which surfaces two consecutively scheduled blocks share.
struct SurfaceSharing {
    bool a = false;  ///< same (m, k): the A input surface stays local
    bool b = false;  ///< same (k, n): the B input surface stays local
    bool c = false;  ///< same (m, n): the partial-result surface stays local
};

enum class ScheduleKind {
    /// Paper Algorithm 2: K innermost (partial-result reuse), M middle,
    /// N outermost, with traversal direction flipped after each completed
    /// dimension so every consecutive pair of blocks shares a surface.
    kKFirstSerpentine,
    /// K innermost but always restarting each dimension at index 0 — the
    /// strawman the paper rejects (loses the A/B reuse at every turn).
    kKFirstNoFlip,
    /// N innermost: partial results for a C block leave local memory
    /// between reuses (GOTO-like traffic pattern); ablation baseline.
    kNInnermost,
    /// Generalised Hilbert curve over the (M, N) block plane, K innermost
    /// with its direction flipped per cell. Consecutive cells are always
    /// grid neighbours (for arbitrary rectangle extents), so every
    /// transition shares a surface — the serpentine's §2.2 property with
    /// a bounded 2D footprint at every curve prefix (SFC traversal of
    /// Georganas et al., see PAPERS.md).
    kHilbert,
    /// Morton (Z-order) curve over the (M, N) block plane, K innermost.
    /// Cache-oblivious recursive blocking, but the curve jumps at
    /// power-of-two boundaries: those transitions share nothing and
    /// refetch both A and B. Kept as the SFC ablation baseline.
    kMorton,
    /// The GOTO loop nest (§4.1, Fig. 5; Goto and van de Geijn): N
    /// outermost (jc), K middle (pc), M innermost (ic), every loop
    /// restarting at 0. Only the B panel is carried over from step to
    /// step (it fills the LLC): A is re-packed every pass and partial C
    /// goes back to user memory once per kc pass (carried_surfaces).
    kGoto,
};

const char* schedule_kind_name(ScheduleKind kind);

/// Every schedule kind, in declaration order. THE single registry: the
/// tuner's stage-2 search, the tuning-cache name parser, the cake_verify
/// sweeps and the simulator sweep all iterate this list, so a newly added
/// kind cannot be silently skipped by any consumer (tests pin each one).
const std::vector<ScheduleKind>& all_schedule_kinds();

/// Inverse of schedule_kind_name() over all_schedule_kinds(); nullopt for
/// an unknown name. Name round-trip is covered by tests for every kind.
std::optional<ScheduleKind> parse_schedule_kind(std::string_view name);

/// Build the block execution order for an Mb x Nb x Kb grid of CB blocks.
/// `m_outer_before_n`: per §2.2, when M > N the M dimension becomes the
/// outermost loop so the larger B surface is reused before A.
std::vector<BlockCoord> build_schedule(ScheduleKind kind, index_t mb,
                                       index_t nb, index_t kb,
                                       bool n_outermost = true);

/// 2.5D-style layered variant for the simulator's multi-core sweep: the K
/// grid is split into `k_layers` contiguous layers and the (M, N)
/// traversal of `kind` runs once per layer, reversed on alternate layers
/// so the seam column keeps its partial surface local across the switch.
/// k_layers <= 1 is exactly build_schedule(); more layers shrink the K
/// working set per pass (the replicated-C tradeoff of 2.5D algorithms) at
/// the price of one partial-C spill per column per extra layer.
std::vector<BlockCoord> build_layered_schedule(ScheduleKind kind, index_t mb,
                                               index_t nb, index_t kb,
                                               index_t k_layers,
                                               bool n_outermost = true);

/// THE block order of a multiply of `shape` under `params`: `kind` over
/// the ceil(m / m_blk) x ceil(n / n_blk) x ceil(k / k_blk) grid, with
/// the §2.2 orientation (N outermost iff n >= m, so when M > N the larger
/// B surface is reused before A), layered over `k_layers` K slabs when
/// more than one (build_layered_schedule). An empty extent or an unset
/// (< 1) block extent counts one block, so degenerate inputs still get a
/// well-formed one-block order (fperror bounds k = 0 calls). The
/// executor, the IR extractor, the traffic model, the simulators, memsim,
/// fperror and the auditor all take their order from here.
std::vector<BlockCoord> block_order(ScheduleKind kind, const GemmShape& shape,
                                    const CbBlockParams& params,
                                    index_t k_layers = 1);

/// Surfaces shared between consecutive schedule entries `prev` and `next`.
SurfaceSharing shared_surfaces(const BlockCoord& prev, const BlockCoord& next);

/// Surfaces a step of schedule `kind` carries over from the step before
/// it: the shared ones, except that a GOTO step keeps only the B panel
/// (its A block is private to one pass, and partial C streams to user
/// memory after every kc pass). THE carry-over rule: the block plan, the
/// traffic model and every verifier take it from here.
SurfaceSharing carried_surfaces(ScheduleKind kind, const BlockCoord& prev,
                                const BlockCoord& next);

/// Count of consecutive pairs in `order` sharing at least one surface.
/// For the serpentine schedule this equals order.size() - 1 (every step
/// reuses something); the no-flip variant falls short by the number of
/// dimension turns.
index_t count_shared_steps(const std::vector<BlockCoord>& order);

/// Total IO surface traffic of a schedule in *block surfaces* fetched from
/// (A, B) or written+refetched to (partial C) external memory, assuming one
/// surface of each kind fits in local memory at a time and `kind`'s
/// carry-over rule. Used by tests and the verifier to rank schedules
/// exactly as §2.2 argues.
struct ScheduleTraffic {
    index_t a_fetches = 0;
    index_t b_fetches = 0;
    index_t c_spills = 0;  ///< partial-C writeback+refetch round trips
};
ScheduleTraffic schedule_traffic(ScheduleKind kind,
                                 const std::vector<BlockCoord>& order);

}  // namespace cake
