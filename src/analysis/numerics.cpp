#include "analysis/numerics.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace numerics {

using schedir::Access;
using schedir::BufKind;
using schedir::Exec;
using schedir::OpKind;
using schedir::ScheduleIR;
using schedir::TileOp;
using schedir::TileSpan;

namespace {

using Col = std::pair<index_t, index_t>;  // (m, n) block column

bool is_acc_span(const ScheduleIR& ir, const TileSpan& s)
{
    return s.buffer >= 0
        && static_cast<std::size_t>(s.buffer) < ir.buffers.size()
        && ir.buffers[static_cast<std::size_t>(s.buffer)].kind
        == BufKind::kAccC;
}

void add_issue(NumericsReport& rep, const char* code, std::string message)
{
    rep.issues.push_back({code, std::move(message)});
}

/// Per-column accumulation structure reconstructed from the op stream.
struct ColumnWalk {
    std::set<index_t> kcoords;  ///< distinct K-block coordinates touched
    std::set<index_t> gens;     ///< accumulator generations used (CAKE)
};

/// K extent of block coordinate `kc` in a grid of `kb` blocks of width
/// `k_blk` covering depth `k`. Out-of-grid coordinates charge a full
/// block — conservative, and exactly what a deepened chain costs.
index_t k_extent(index_t kc, index_t kb, index_t k_blk, index_t k)
{
    if (kc < 0 || kc >= kb) return k_blk;
    return std::min(k_blk, k - kc * k_blk);
}

/// Number of maximal consecutive runs of column `col` in the block order.
index_t runs_in_order(const std::vector<BlockCoord>& order, const Col& col)
{
    index_t runs = 0;
    bool inside = false;
    for (const BlockCoord& bc : order) {
        const bool here = bc.m == col.first && bc.n == col.second;
        if (here && !inside) ++runs;
        inside = here;
    }
    return runs;
}

}  // namespace

NumericsReport verify_numerics(const ScheduleIR& ir, const DtypeDesc& dtype)
{
    NumericsReport rep;
    const bool is_goto = ir.exec == Exec::kGoto;

    // --- dtype consistency --------------------------------------------
    if (dtype.elem_bytes != ir.elem_bytes) {
        std::ostringstream os;
        os << "IR declares " << ir.elem_bytes << "-byte elements but is "
           << "analysed as " << dtype.name << " (" << dtype.elem_bytes
           << " bytes): every width-dependent bound would lie";
        add_issue(rep, "NUM_DTYPE", os.str());
    }
    if (ir.params.elem_bytes != ir.elem_bytes) {
        std::ostringstream os;
        os << "IR element width (" << ir.elem_bytes
           << ") disagrees with its own plan record (params.elem_bytes = "
           << ir.params.elem_bytes << ")";
        add_issue(rep, "NUM_DTYPE", os.str());
    }

    // --- reconstruct every column's accumulation chain ----------------
    const index_t k = ir.shape.k;
    const index_t k_blk = is_goto ? ir.blocking.kc : ir.params.k_blk;
    const index_t kb =
        is_goto ? (k_blk > 0 ? ceil_div(k, k_blk) : 1) : ir.kb;

    std::map<Col, ColumnWalk> columns;
    std::map<index_t, std::set<Col>> gen_columns;  // CAKE: gen -> columns
    std::set<index_t> compute_gens;                // gens that accumulated
    std::set<index_t> closed_gens;                 // gens a flush retired
    for (const TileOp& op : ir.ops) {
        if (op.kind == OpKind::kCompute) {
            const Col col{op.block.m, op.block.n};
            ColumnWalk& w = columns[col];
            w.kcoords.insert(op.block.k);
            if (!is_goto) {
                for (const TileSpan& s : op.spans) {
                    if (!is_acc_span(ir, s)) continue;
                    w.gens.insert(s.gen);
                    gen_columns[s.gen].insert(col);
                    compute_gens.insert(s.gen);
                }
            }
        } else if (op.kind == OpKind::kFlush && !is_goto) {
            for (const TileSpan& s : op.spans) {
                if (is_acc_span(ir, s) && s.closes_gen) {
                    closed_gens.insert(s.gen);
                }
            }
        }
    }

    // --- NUM_CHAIN: per-column FMA depth must be exactly K ------------
    index_t worst_expected_segments = 1;
    for (const auto& [col, walk] : columns) {
        index_t depth = 0;
        for (const index_t kc : walk.kcoords) {
            depth += k_extent(kc, kb, k_blk, k);
        }
        rep.ir_fma_depth = std::max(rep.ir_fma_depth, depth);
        if (depth != k) {
            std::ostringstream os;
            os << "C column (" << col.first << ", " << col.second
               << ") accumulates to FMA depth " << depth
               << " but the reduction dimension is " << k
               << ": the gamma_n rounding term is computed for the wrong "
               << "chain length";
            add_issue(rep, "NUM_CHAIN", os.str());
        }

        // --- NUM_TURNOVER: spill structure must match the schedule ----
        const index_t expected = is_goto
            ? kb
            : std::max<index_t>(runs_in_order(ir.order, col), 1);
        const index_t segments = is_goto
            ? static_cast<index_t>(walk.kcoords.size())
            : std::max<index_t>(
                  static_cast<index_t>(walk.gens.size()), 1);
        rep.ir_segments = std::max(rep.ir_segments, segments);
        worst_expected_segments =
            std::max(worst_expected_segments, expected);
        if (segments != expected) {
            std::ostringstream os;
            os << "C column (" << col.first << ", " << col.second
               << ") accumulates in " << segments
               << " segment(s) but the schedule order gives it " << expected
               << " run(s): a turnover was dropped or invented, so the "
               << "spill join-add count in the bound is wrong";
            add_issue(rep, "NUM_TURNOVER", os.str());
        }
    }
    for (const auto& [gen, cols] : gen_columns) {
        if (cols.size() > 1) {
            std::ostringstream os;
            os << "accumulator generation " << gen << " mixes "
               << cols.size()
               << " distinct C columns: a column turnover (write-back + "
               << "overwrite) between them was dropped";
            add_issue(rep, "NUM_TURNOVER", os.str());
        }
    }
    for (const index_t gen : compute_gens) {
        if (closed_gens.count(gen) == 0) {
            std::ostringstream os;
            os << "accumulator generation " << gen
               << " receives accumulations but no flush retires it: the "
               << "chain's result never reaches C";
            add_issue(rep, "NUM_TURNOVER", os.str());
        }
    }

    // --- the bound the (clean) plan promises --------------------------
    AccumChain chain;
    chain.fma_depth = k;
    chain.segments = worst_expected_segments;
    chain.extra_adds =
        (chain.segments - 1) + (ir.beta_nonzero ? 1 : 0);
    rep.bound = bound_for_chain(chain, dtype);

    // --- NUM_I8_RANGE: integer accumulator must provably fit ----------
    if (dtype.is_integer && !rep.bound.i32_safe) {
        std::ostringstream os;
        os << "int8 path with K = " << k << ": worst-case |accumulator| = "
           << rep.bound.acc_range << " exceeds int32 range (safe K <= "
           << int8_safe_k() << ")";
        add_issue(rep, "NUM_I8_RANGE", os.str());
    }
    return rep;
}

NumericsReport verify_numerics(const ScheduleIR& ir)
{
    const DtypeDesc* d = dtype_for_elem_bytes(ir.elem_bytes);
    if (d == nullptr) {
        NumericsReport rep;
        std::ostringstream os;
        os << "IR element width " << ir.elem_bytes
           << " maps to no known dtype";
        add_issue(rep, "NUM_DTYPE", os.str());
        return rep;
    }
    return verify_numerics(ir, *d);
}

const char* num_mutation_name(NumMutation m)
{
    switch (m) {
    case NumMutation::kDeepenAccum: return "deepen-accum";
    case NumMutation::kDropTurnover: return "drop-turnover";
    case NumMutation::kLyingDtype: return "lying-dtype";
    }
    return "?";
}

std::string apply_numerics_mutation(ScheduleIR& ir, NumMutation m)
{
    switch (m) {
    case NumMutation::kDeepenAccum: {
        // Duplicate one accumulation band at an out-of-grid K coordinate:
        // the column's chain is now deeper than the reduction dimension.
        for (std::size_t i = 0; i < ir.ops.size(); ++i) {
            if (ir.ops[i].kind != OpKind::kCompute) continue;
            TileOp extra = ir.ops[i];
            const index_t k_blk = ir.exec == Exec::kGoto
                ? ir.blocking.kc
                : ir.params.k_blk;
            extra.block.k = k_blk > 0
                ? ceil_div(ir.shape.k, k_blk)  // first out-of-grid coord
                : ir.kb;
            ir.ops.push_back(std::move(extra));
            return "NUM_CHAIN";
        }
        throw Error("apply_numerics_mutation: no compute op in this IR");
    }
    case NumMutation::kDropTurnover: {
        // Merge accumulator generation G into G-1: delete the write-backs
        // that retired G-1, then relabel G's accesses (its opening
        // overwrites included) as accumulations into G-1.
        // The merged generation now spans two schedule runs (usually two
        // distinct C columns) with no flush between them.
        if (ir.exec == Exec::kGoto) {
            throw Error(
                "apply_numerics_mutation: drop-turnover needs a CAKE IR "
                "(GOTO has no local accumulator)");
        }
        index_t target = -1;
        for (const TileOp& op : ir.ops) {
            for (const TileSpan& s : op.spans) {
                if (is_acc_span(ir, s) && s.gen >= 1
                    && (target < 0 || s.gen < target)) {
                    target = s.gen;
                }
            }
        }
        if (target < 0) {
            throw Error(
                "apply_numerics_mutation: IR has a single accumulator "
                "generation (needs >= 2 columns)");
        }
        auto acc_gen_of = [&ir](const TileOp& op) -> index_t {
            for (const TileSpan& s : op.spans) {
                if (is_acc_span(ir, s)) return s.gen;
            }
            return -1;
        };
        std::vector<TileOp> kept;
        kept.reserve(ir.ops.size());
        for (TileOp& op : ir.ops) {
            const index_t g = acc_gen_of(op);
            if (op.kind == OpKind::kFlush && g == target - 1) continue;
            for (TileSpan& s : op.spans) {
                if (is_acc_span(ir, s) && s.gen == target) {
                    s.gen = target - 1;
                    s.creates_gen = false;
                }
            }
            kept.push_back(std::move(op));
        }
        ir.ops = std::move(kept);
        return "NUM_TURNOVER";
    }
    case NumMutation::kLyingDtype: {
        // Flip the declared element width without touching the plan
        // record: every width-dependent quantity now lies.
        ir.elem_bytes = ir.elem_bytes == 8 ? 4 : 8;
        return "NUM_DTYPE";
    }
    }
    throw Error("apply_numerics_mutation: unknown mutation");
}

}  // namespace numerics
}  // namespace cake
