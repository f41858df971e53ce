#include "core/audit.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "core/fperror.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

void add_issue(AuditReport& report, const char* code, std::ostringstream& os)
{
    report.issues.push_back({code, os.str()});
    os.str("");
}

/// Edge extent of the last grid block along one dimension.
index_t edge_extent(index_t total, index_t blk)
{
    const index_t rem = total % blk;
    return rem == 0 ? blk : rem;
}

}  // namespace

AuditReport audit_cb_plan(const MachineSpec& machine, int p, index_t mr,
                          index_t nr, const GemmShape& shape,
                          const TilingOptions& opts, ScheduleKind schedule)
{
    AuditReport report;
    std::ostringstream os;

    if (shape.m < 1 || shape.n < 1 || shape.k < 1) {
        os << "GEMM shape " << shape.m << " x " << shape.n << " x "
           << shape.k << " must be positive in every dimension";
        add_issue(report, "SHAPE", os);
        return report;
    }

    // --- Override combinations the solver would reject outright. ---------
    // Reported here with their own code (instead of surfacing as an opaque
    // SOLVER throw) so callers assembling TilingOptions — the tuner's
    // candidate generator, CLI flag parsing — get a diagnosis they can act
    // on before ever invoking the solver.
    if (opts.alpha && opts.nc) {
        os << "alpha=" << *opts.alpha << " and nc=" << *opts.nc
           << " overrides conflict: nc fixes the N extent that alpha "
           << "would derive";
        add_issue(report, "OVERRIDE", os);
    }
    if (opts.mc && (*opts.mc < mr || *opts.mc % mr != 0)) {
        os << "mc override " << *opts.mc
           << " is not a positive multiple of mr=" << mr;
        add_issue(report, "OVERRIDE", os);
    }
    if (opts.kc && *opts.kc < 1) {
        os << "kc override " << *opts.kc << " must be >= 1";
        add_issue(report, "OVERRIDE", os);
    }
    if (opts.nc && *opts.nc < 1) {
        os << "nc override " << *opts.nc << " must be >= 1";
        add_issue(report, "OVERRIDE", os);
    }
    if (opts.alpha && *opts.alpha < 1.0) {
        os << "alpha override " << *opts.alpha << " must be >= 1";
        add_issue(report, "OVERRIDE", os);
    }
    if (opts.elem_bytes != 1 && opts.elem_bytes != 2 && opts.elem_bytes != 4
        && opts.elem_bytes != 8) {
        os << "elem_bytes=" << opts.elem_bytes
           << " is not a supported element width (1/2/4/8): every "
           << "width-dependent inequality below would be meaningless";
        add_issue(report, "ELEM_WIDTH", os);
    }
    if (!report.issues.empty()) return report;

    // --- Solve (or adopt the forced plan). -------------------------------
    try {
        report.params = compute_cb_block(machine, p, mr, nr, opts);
        report.solver_ok = true;
    } catch (const Error& e) {
        os << "CB solver rejected machine '" << machine.name << "' with p="
           << p << ", mr=" << mr << ", nr=" << nr << ": " << e.what();
        add_issue(report, "SOLVER", os);
        return report;
    }
    const CbBlockParams& cb = report.params;
    const auto elem = static_cast<std::size_t>(cb.elem_bytes);

    // --- Element-width consistency: the solved plan must carry the width
    // it was asked for, or every inequality below reasons about the wrong
    // dtype.
    if (cb.elem_bytes != opts.elem_bytes) {
        os << "solved plan carries elem_bytes=" << cb.elem_bytes
           << " but the request asked for " << opts.elem_bytes
           << ": width-dependent checks would audit the wrong dtype";
        add_issue(report, "ELEM_WIDTH", os);
    }

    // --- int8 path: the i32 accumulator must provably hold the worst
    // case |acc| <= K * 127 * 127 (quantize_unsigned clamps A to
    // [0, 127], quantize_signed clamps B to [-127, 127]).
    if (cb.elem_bytes == 1 && shape.k > int8_safe_k()) {
        os << "int8 plan with K=" << shape.k
           << ": worst-case |i32 accumulator| " << int8_acc_range(shape.k)
           << " exceeds int32 range (safe K <= " << int8_safe_k() << ")";
        add_issue(report, "I8_ACC_RANGE", os);
    }

    // --- Geometry consistency. -------------------------------------------
    if (cb.mc < mr || cb.mc % mr != 0) {
        os << "mc=" << cb.mc << " is not a positive multiple of mr=" << mr;
        add_issue(report, "GEOMETRY", os);
    }
    if (cb.kc != cb.mc && !opts.kc) {
        // A deliberate kc override (the autotuner searches this axis) is
        // exempt: the residency and LRU inequalities below still apply to
        // the rectangular sub-block, which is what actually matters.
        os << "kc=" << cb.kc << " != mc=" << cb.mc
           << " (the A sub-block must be square, §4.1)";
        add_issue(report, "GEOMETRY", os);
    }
    if (cb.m_blk != static_cast<index_t>(p) * cb.mc) {
        os << "m_blk=" << cb.m_blk << " != p*mc=" << p * cb.mc;
        add_issue(report, "GEOMETRY", os);
    }
    if (cb.n_blk < nr || cb.n_blk % nr != 0) {
        os << "n_blk=" << cb.n_blk << " is not a positive multiple of nr="
           << nr;
        add_issue(report, "GEOMETRY", os);
    }
    if (cb.alpha < 1.0) {
        os << "alpha=" << cb.alpha << " < 1 (the N stretch factor cannot "
           << "shrink the block, §4.2)";
        add_issue(report, "GEOMETRY", os);
    }

    // --- §4.2: per-core A sub-block must reside in the private cache. ----
    const std::size_t a_sub_bytes =
        static_cast<std::size_t>(cb.mc) * static_cast<std::size_t>(cb.kc)
        * elem;
    const double l2_share = opts.l2_fraction
        * static_cast<double>(private_cache_bytes(machine));
    if (static_cast<double>(a_sub_bytes) > l2_share) {
        os << "mc*kc*sizeof(T) = " << cb.mc << "*" << cb.kc << "*" << elem
           << " = " << a_sub_bytes << " bytes exceeds the private-cache "
           << "share " << opts.l2_fraction << " * "
           << private_cache_bytes(machine) << " = " << l2_share
           << " bytes (§4.2 residency)";
        add_issue(report, "L2_RESIDENCY", os);
    }

    // --- §4.3: LRU working set C + 2(A+B) must fit the LLC share. --------
    // n_blk is alpha*p*mc rounded UP to an nr multiple, so allow exactly
    // that rounding's worth of slack on top of the share.
    const std::size_t ws = cb.lru_working_set_bytes();
    const double llc_share = opts.llc_fraction
        * static_cast<double>(machine.llc_bytes());
    const double rounding_slack = static_cast<double>(nr - 1)
        * static_cast<double>(cb.m_blk + 2 * cb.k_blk)
        * static_cast<double>(elem);
    if (static_cast<double>(ws) > llc_share + rounding_slack) {
        os << "LRU working set C + 2(A+B) = " << ws
           << " bytes exceeds the LLC share " << opts.llc_fraction << " * "
           << machine.llc_bytes() << " = " << llc_share
           << " bytes (+ nr-rounding slack " << rounding_slack
           << ") (§4.3 LRU rule)";
        add_issue(report, "LLC_LRU", os);
    }

    // --- Pack buffers cover every block the schedule will execute. -------
    report.grid_mb = ceil_div(shape.m, cb.m_blk);
    report.grid_nb = ceil_div(shape.n, cb.n_blk);
    report.grid_kb = ceil_div(shape.k, cb.k_blk);
    const index_t pa_cap = packed_a_size(cb.m_blk, cb.k_blk, mr);
    const index_t pb_cap = packed_b_size(cb.k_blk, cb.n_blk, nr);
    const index_t mi_edge = edge_extent(shape.m, cb.m_blk);
    const index_t ni_edge = edge_extent(shape.n, cb.n_blk);
    const index_t ki_edge = edge_extent(shape.k, cb.k_blk);
    for (const index_t mi : {cb.m_blk, mi_edge}) {
        for (const index_t ki : {cb.k_blk, ki_edge}) {
            const index_t need = round_up(mi, mr) * ki;
            if (need > pa_cap) {
                os << "packed-A demand round_up(" << mi << ", " << mr
                   << ") * " << ki << " = " << need
                   << " elements exceeds the panel capacity " << pa_cap;
                add_issue(report, "PACK_CAPACITY", os);
            }
        }
    }
    for (const index_t ni : {cb.n_blk, ni_edge}) {
        for (const index_t ki : {cb.k_blk, ki_edge}) {
            const index_t need = ki * round_up(ni, nr);
            if (need > pb_cap) {
                os << "packed-B demand " << ki << " * round_up(" << ni
                   << ", " << nr << ") = " << need
                   << " elements exceeds the panel capacity " << pb_cap;
                add_issue(report, "PACK_CAPACITY", os);
            }
        }
    }

    // --- Schedule covers the grid exactly once, sharing as promised. -----
    const std::vector<BlockCoord> order =
        build_schedule(schedule, report.grid_mb, report.grid_nb,
                       report.grid_kb, /*n_outermost=*/shape.n >= shape.m);
    const index_t grid_size =
        report.grid_mb * report.grid_nb * report.grid_kb;
    if (static_cast<index_t>(order.size()) != grid_size) {
        os << "schedule emits " << order.size() << " blocks for a "
           << report.grid_mb << " x " << report.grid_nb << " x "
           << report.grid_kb << " grid of " << grid_size;
        add_issue(report, "SCHEDULE", os);
    } else {
        std::vector<char> seen(static_cast<std::size_t>(grid_size), 0);
        bool dup_or_oob = false;
        for (const BlockCoord& bc : order) {
            if (bc.m < 0 || bc.m >= report.grid_mb || bc.n < 0
                || bc.n >= report.grid_nb || bc.k < 0
                || bc.k >= report.grid_kb) {
                dup_or_oob = true;
                break;
            }
            const std::size_t idx = static_cast<std::size_t>(
                (bc.m * report.grid_nb + bc.n) * report.grid_kb + bc.k);
            if (seen[idx] != 0) {
                dup_or_oob = true;
                break;
            }
            seen[idx] = 1;
        }
        if (dup_or_oob) {
            os << "schedule visits a block outside the grid or twice";
            add_issue(report, "SCHEDULE", os);
        } else if ((schedule == ScheduleKind::kKFirstSerpentine
                    || schedule == ScheduleKind::kHilbert)
                   && order.size() > 1
                   && count_shared_steps(order)
                       != static_cast<index_t>(order.size()) - 1) {
            // The serpentine (Algorithm 2) and the Hilbert traversal
            // (grid-adjacent cells, K carried across every boundary) both
            // promise a shared surface on every consecutive step.
            os << schedule_kind_name(schedule)
               << " schedule shares a surface on only "
               << count_shared_steps(order) << " of " << order.size() - 1
               << " consecutive steps (full sharing promised)";
            add_issue(report, "SCHEDULE", os);
        }
    }

    // --- Eq. 2: alpha must cover the IO/compute balance when DRAM can. ---
    const double r =
        bandwidth_ratio(machine, p, mr, nr, cb.mc, cb.kc, cb.elem_bytes);
    if (r > 1.0) {
        const double alpha_target = std::max(1.0, 1.0 / (r - 1.0));
        // The solver may legitimately stop at the LLC-limited cap; only
        // flag plans whose alpha is below target while the LLC still has
        // room for a larger block.
        const bool llc_has_room = static_cast<double>(ws) + rounding_slack
            < 0.95 * llc_share;
        if (cb.alpha + 1e-9 < alpha_target && llc_has_room) {
            os << "alpha=" << cb.alpha << " < " << alpha_target
               << " required for IO time <= compute time at bandwidth "
               << "ratio R=" << r << " (Eq. 2), and the LLC share still "
               << "has room to stretch the block";
            add_issue(report, "BANDWIDTH", os);
        }
    }

    // --- Operands must fit main memory. ----------------------------------
    const double dm = static_cast<double>(shape.m);
    const double dn = static_cast<double>(shape.n);
    const double dk = static_cast<double>(shape.k);
    const double operand_bytes =
        (dm * dk + dk * dn + dm * dn) * static_cast<double>(elem);
    const double dram_bytes = machine.dram_gib * 1024.0 * 1024.0 * 1024.0;
    if (operand_bytes > dram_bytes) {
        os << "operands need " << operand_bytes / 1e9
           << " GB but the machine has only " << machine.dram_gib
           << " GiB of main memory";
        add_issue(report, "DRAM_CAPACITY", os);
    }

    return report;
}

}  // namespace cake
