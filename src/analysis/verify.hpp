// Symbolic verifier for the schedule IR (src/analysis/schedir.hpp).
//
// verify_schedule_ir proves, by static analysis of the operation list —
// no arithmetic, no execution, valid for every interleaving the barrier
// structure permits — the properties the paper claims of the CAKE
// schedule, reporting violations as coded cake::Issue diagnostics
// (src/common/issue.hpp):
//
//   IR_MALFORMED   structural sanity: span indices in range, phases
//                  monotone, barrier arrays sized to the phase count
//   IR_COVER       exact cover — every user-C element receives exactly
//                  `expected_accums` accumulations (no lost or duplicated
//                  update anywhere in the schedule)
//   IR_ORDER       generation discipline — creating writes strictly
//                  precede every other access of their generation, and
//                  closing accesses strictly follow every write
//   IR_RACE_WW     two unordered ops write an overlapping rect of the
//                  same buffer generation
//   IR_RACE_RW     an op reads what an unordered op writes
//   IR_LIFETIME    double-buffer safety — some access to a generation is
//                  not ordered before the write that recycles its slot
//   IR_IO_MODEL    the IR's summed surface loads/stores disagree with the
//                  paper's analytic traffic model (Eq. 2 / §4.2-§4.3)
//                  re-derived independently from the block order
//   IR_IO_CONSTBW  an interior step of a fully-sharing schedule
//                  (serpentine or Hilbert) fetches a different byte count
//                  than the constant (m_blk + n_blk) * k_blk * elem the
//                  constant-bandwidth claim promises
//   IR_IO_MEMSIM   the IR's surface accesses disagree with the src/memsim
//                  address stream for the same plan (cross_check_memsim)
#pragma once

#include <string>
#include <vector>

#include "analysis/schedir.hpp"
#include "common/issue.hpp"

namespace cake {
namespace schedir {

/// Violated obligations: each issue's message names the ops, buffers and
/// byte counts involved.
struct VerifyReport : IssueList {};

/// Statically verify every obligation above except IR_IO_MEMSIM (which
/// needs the memory simulator and is split out so verification itself
/// stays pure). Stops adding issues per check after a few instances; a
/// corrupt IR yields its characteristic code, not thousands of echoes.
VerifyReport verify_schedule_ir(const ScheduleIR& ir);

/// Replay the same plan through src/memsim's address-stream generator
/// (trace_cake / trace_goto) with a counting sink, classify each access
/// by surface, and require exact byte agreement with io_totals(ir) for
/// a_read / b_read, and with the bytes of the IR's user-C spans for the C
/// reads and writes (the kernels accumulate in place, so every compute
/// touches user C). The trace layer is dtype-width-aware
/// (scaled by ir.elem_bytes), so any element width cross-checks; only
/// prepacked or beta != 0 IRs report IR_MALFORMED.
VerifyReport cross_check_memsim(const ScheduleIR& ir);

}  // namespace schedir
}  // namespace cake
