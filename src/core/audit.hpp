// Static invariant auditor for CAKE schedule/tiling plans.
//
// Given a machine description, a core count, a micro-kernel shape and a
// GEMM shape, audit_cb_plan() re-derives every inequality the paper's CB
// theory promises (§4.2–§4.3) and every structural invariant the runtime
// silently relies on, and reports each violation with a precise, coded
// diagnostic:
//
//   SHAPE           GEMM dimensions must be positive
//   OVERRIDE        a TilingOptions override combination is invalid on its
//                   face (alpha+nc conflict, non-mr-multiple mc, kc/nc < 1,
//                   alpha < 1) — reported before the solver ever runs
//   ELEM_WIDTH      the element width is unsupported (not 1/2/4/8), or the
//                   solved plan carries a different width than requested —
//                   either way every §4.2/§4.3/Eq.-2 inequality would
//                   reason about the wrong dtype
//   SOLVER          the CB solver itself rejected the configuration
//   GEOMETRY        mc/kc/m_blk/n_blk/alpha internal consistency
//   L2_RESIDENCY    mc * kc * sizeof(T) <= private-cache share (§4.2)
//   LLC_LRU         C + 2(A + B) <= LLC share (§4.3 LRU rule)
//   PACK_CAPACITY   packed-panel buffer sizes cover every scheduled block
//   SCHEDULE        block order covers the grid exactly once; the
//                   serpentine order shares a surface at every step
//   BANDWIDTH       alpha satisfies the Eq. 2 IO/compute balance when the
//                   bandwidth-availability ratio allows one
//   DRAM_CAPACITY   the three operands fit main memory
//   I8_ACC_RANGE    int8 plans only: the worst-case i32 accumulator
//                   K * 127 * 127 provably fits int32 (core/fperror.hpp)
//
// The auditor is pure analysis — it never allocates panel memory or runs a
// kernel — so it can vet a preset x shape sweep in milliseconds in CI
// (tools/cake_audit) before any multiply executes.
#pragma once

#include <string>
#include <vector>

#include "common/issue.hpp"
#include "common/types.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"

namespace cake {

/// Outcome of auditing one (machine, p, kernel, shape) plan. Each issue's
/// message carries both sides of the violated inequality.
struct AuditReport : IssueList {
    CbBlockParams params;          ///< solved CB geometry (if solvable)
    index_t grid_mb = 0;           ///< CB-block grid extents for the shape
    index_t grid_nb = 0;
    index_t grid_kb = 0;
    bool solver_ok = false;        ///< compute_cb_block did not throw
};

/// Audit the full schedule/tiling plan CAKE would execute for `shape` on
/// `machine` with `p` cores and an mr x nr micro-kernel. `opts` follows
/// compute_cb_block — forcing mc/kc/nc/alpha audits the forced (possibly
/// deliberately corrupted) plan instead of the solver's own.
AuditReport audit_cb_plan(const MachineSpec& machine, int p, index_t mr,
                          index_t nr, const GemmShape& shape,
                          const TilingOptions& opts = {},
                          ScheduleKind schedule =
                              ScheduleKind::kKFirstSerpentine);

}  // namespace cake
