#include "analysis/verify.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "memsim/trace.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace schedir {

namespace {

std::string describe_op(const ScheduleIR& ir, const TileOp& op)
{
    std::ostringstream os;
    os << op_kind_name(op.kind) << " op (step " << op.step << ", block ("
       << op.block.m << ',' << op.block.n << ',' << op.block.k
       << "), phase " << op.phase;
    if (op.worker >= 0) os << ", worker " << op.worker << " seq " << op.seq;
    if (op.item >= 0) os << ", item " << op.item << " seq " << op.seq;
    os << ')';
    (void)ir;
    return os.str();
}

/// The happens-before structure the barrier skeleton induces: a barrier
/// separates every pair of consecutive phases, so two ops are ordered iff
/// their phases differ, or they share a statically assigned worker or a
/// work item inside one phase (program order).
bool ordered_before(const TileOp& a, const TileOp& b)
{
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.seq >= b.seq) return false;
    return (a.worker >= 0 && a.worker == b.worker)
        || (a.item >= 0 && a.item == b.item);
}

/// One (op, span) pair inside a generation group.
struct GroupEntry {
    std::size_t op = 0;
    std::size_t span = 0;
};

/// All accesses of one (buffer, slot, generation), the unit of the order /
/// race / lifetime obligations.
using GenKey = std::tuple<int, int, index_t>;
using GenGroups = std::map<GenKey, std::vector<GroupEntry>>;

GenGroups group_by_generation(const ScheduleIR& ir)
{
    GenGroups groups;
    for (std::size_t oi = 0; oi < ir.ops.size(); ++oi) {
        const TileOp& op = ir.ops[oi];
        for (std::size_t si = 0; si < op.spans.size(); ++si) {
            const TileSpan& s = op.spans[si];
            groups[{s.buffer, s.slot, s.gen}].push_back({oi, si});
        }
    }
    return groups;
}

// ---------------------------------------------------------------- checks

void check_malformed(const ScheduleIR& ir, VerifyReport& report)
{
    IssueSink sink{report};
    if (ir.shape.m < 1 || ir.shape.n < 1 || ir.shape.k < 1) {
        sink.add("IR_MALFORMED", "non-positive GEMM shape");
    }
    if (ir.expected_accums < 1) {
        sink.add("IR_MALFORMED", "expected_accums must be >= 1");
    }
    if (ir.num_phases < 1 || ir.ops.empty() || ir.buffers.empty()) {
        sink.add("IR_MALFORMED", "IR has no phases, ops or buffers");
    }
    for (const TileOp& op : ir.ops) {
        if (sink.full()) return;
        if (op.phase < 0 || op.phase >= ir.num_phases) {
            sink.add("IR_MALFORMED",
                     describe_op(ir, op) + ": phase out of range");
            continue;
        }
        for (const TileSpan& s : op.spans) {
            const bool buf_ok = s.buffer >= 0
                && s.buffer < static_cast<int>(ir.buffers.size());
            if (!buf_ok) {
                sink.add("IR_MALFORMED",
                         describe_op(ir, op) + ": span buffer out of range");
                break;
            }
            const Buffer& buf = ir.buffers[static_cast<std::size_t>(
                s.buffer)];
            if (s.slot < 0 || s.slot >= buf.slots || s.gen < 0
                || s.r0 > s.r1 || s.c0 > s.c1) {
                sink.add("IR_MALFORMED",
                         describe_op(ir, op) + ": bad span on " + buf.name);
                break;
            }
        }
    }
}

bool spans_overlap(const TileSpan& a, const TileSpan& b)
{
    return a.r0 < b.r1 && b.r0 < a.r1 && a.c0 < b.c1 && b.c0 < a.c1;
}

/// IR_ORDER: creating writes strictly precede every other access of their
/// generation's elements; closing reads strictly follow every write of the
/// elements they retire.
void check_order(const ScheduleIR& ir, const GenGroups& groups,
                 VerifyReport& report)
{
    IssueSink sink{report};
    for (const auto& [key, entries] : groups) {
        std::vector<GroupEntry> creators, closers, writers, others;
        for (const GroupEntry& e : entries) {
            const TileSpan& s = ir.ops[e.op].spans[e.span];
            if (s.creates_gen) {
                creators.push_back(e);
            } else {
                others.push_back(e);
            }
            if (s.closes_gen) closers.push_back(e);
            if (!s.creates_gen && !s.closes_gen
                && s.access != Access::kRead) {
                writers.push_back(e);
            }
        }
        const Buffer& buf =
            ir.buffers[static_cast<std::size_t>(std::get<0>(key))];
        auto span_of = [&](const GroupEntry& e) -> const TileSpan& {
            return ir.ops[e.op].spans[e.span];
        };
        for (const GroupEntry& c : creators) {
            for (const GroupEntry& o : others) {
                if (sink.full()) return;
                if (!spans_overlap(span_of(c), span_of(o))) continue;
                if (!ordered_before(ir.ops[c.op], ir.ops[o.op])) {
                    sink.add("IR_ORDER",
                             buf.name + " slot "
                                 + std::to_string(std::get<1>(key)) + " gen "
                                 + std::to_string(std::get<2>(key)) + ": "
                                 + describe_op(ir, ir.ops[o.op])
                                 + " not ordered after creating "
                                 + describe_op(ir, ir.ops[c.op]));
                }
            }
        }
        for (const GroupEntry& x : closers) {
            for (const GroupEntry& w : writers) {
                if (sink.full()) return;
                if (!spans_overlap(span_of(x), span_of(w))) continue;
                if (!ordered_before(ir.ops[w.op], ir.ops[x.op])) {
                    sink.add("IR_ORDER",
                             buf.name + " gen "
                                 + std::to_string(std::get<2>(key))
                                 + ": closing " + describe_op(ir, ir.ops[x.op])
                                 + " not ordered after "
                                 + describe_op(ir, ir.ops[w.op]));
                }
            }
        }
    }
}

/// IR_RACE_WW / IR_RACE_RW: within one phase, two unordered ops touch an
/// overlapping rect of the same generation and at least one writes.
void check_races(const ScheduleIR& ir, const GenGroups& groups,
                 VerifyReport& report)
{
    IssueSink sink{report};
    struct RectRef {
        index_t r0, r1, c0, c1;
        bool writes;
        std::size_t op;
    };
    for (const auto& [key, entries] : groups) {
        // Bucket by phase: cross-phase pairs are barrier-ordered.
        std::map<index_t, std::vector<RectRef>> by_phase;
        bool any_write = false;
        for (const GroupEntry& e : entries) {
            const TileOp& op = ir.ops[e.op];
            const TileSpan& s = op.spans[e.span];
            const bool w = s.access != Access::kRead;
            any_write = any_write || w;
            by_phase[op.phase].push_back(
                {s.r0, s.r1, s.c0, s.c1, w, e.op});
        }
        if (!any_write) continue;
        const Buffer& buf =
            ir.buffers[static_cast<std::size_t>(std::get<0>(key))];
        for (auto& [phase, rects] : by_phase) {
            (void)phase;
            if (rects.size() < 2) continue;
            std::sort(rects.begin(), rects.end(),
                      [](const RectRef& a, const RectRef& b) {
                          return a.r0 < b.r0;
                      });
            for (std::size_t i = 0; i < rects.size(); ++i) {
                for (std::size_t j = i + 1; j < rects.size()
                     && rects[j].r0 < rects[i].r1;
                     ++j) {
                    const RectRef& a = rects[i];
                    const RectRef& bq = rects[j];
                    if (sink.full()) return;
                    if (!(a.writes || bq.writes)) continue;
                    if (a.c1 <= bq.c0 || bq.c1 <= a.c0) continue;
                    if (a.op == bq.op) continue;
                    const TileOp& oa = ir.ops[a.op];
                    const TileOp& ob = ir.ops[bq.op];
                    if (ordered_before(oa, ob) || ordered_before(ob, oa)) {
                        continue;
                    }
                    const char* code = (a.writes && bq.writes)
                        ? "IR_RACE_WW"
                        : "IR_RACE_RW";
                    sink.add(code,
                             buf.name + " gen "
                                 + std::to_string(std::get<2>(key)) + ": "
                                 + describe_op(ir, oa) + " races "
                                 + describe_op(ir, ob));
                }
            }
        }
    }
}

/// IR_LIFETIME: every access to a generation is ordered before the writes
/// that recycle its slot (the next generation's creators). Adjacent
/// generations suffice: ordering is transitive along the chain.
void check_lifetimes(const ScheduleIR& ir, const GenGroups& groups,
                     VerifyReport& report)
{
    IssueSink sink{report};
    // (buffer, slot) -> sorted list of generations present.
    std::map<std::pair<int, int>, std::vector<index_t>> slot_gens;
    for (const auto& [key, entries] : groups) {
        (void)entries;
        slot_gens[{std::get<0>(key), std::get<1>(key)}].push_back(
            std::get<2>(key));
    }
    for (const auto& [slot_key, gens] : slot_gens) {
        for (std::size_t gi = 0; gi + 1 < gens.size(); ++gi) {
            const auto& cur = groups.at(
                {slot_key.first, slot_key.second, gens[gi]});
            const auto& next = groups.at(
                {slot_key.first, slot_key.second, gens[gi + 1]});
            const Buffer& buf = ir.buffers[static_cast<std::size_t>(
                slot_key.first)];
            for (const GroupEntry& ne : next) {
                if (!ir.ops[ne.op].spans[ne.span].creates_gen) continue;
                for (const GroupEntry& ce : cur) {
                    if (sink.full()) return;
                    if (ce.op == ne.op) continue;
                    if (!ordered_before(ir.ops[ce.op], ir.ops[ne.op])) {
                        sink.add(
                            "IR_LIFETIME",
                            buf.name + " slot "
                                + std::to_string(slot_key.second) + ": "
                                + describe_op(ir, ir.ops[ce.op])
                                + " (gen " + std::to_string(gens[gi])
                                + ") not ordered before recycling "
                                + describe_op(ir, ir.ops[ne.op]) + " (gen "
                                + std::to_string(gens[gi + 1]) + ")");
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------- coverage

/// Sparse 2D multiplicity map over half-open rects, resolved on a
/// compressed coordinate grid (2D difference array).
class CoverMap {
public:
    struct Cell {
        index_t r0, r1, c0, c1;
        long long count;
    };

    void add(index_t r0, index_t r1, index_t c0, index_t c1, long long w)
    {
        if (r0 >= r1 || c0 >= c1) return;
        rects_.push_back({r0, r1, c0, c1, w});
    }

    std::vector<Cell> resolve() const
    {
        std::vector<index_t> rs, cs;
        rs.reserve(rects_.size() * 2);
        cs.reserve(rects_.size() * 2);
        for (const Cell& r : rects_) {
            rs.push_back(r.r0);
            rs.push_back(r.r1);
            cs.push_back(r.c0);
            cs.push_back(r.c1);
        }
        std::sort(rs.begin(), rs.end());
        rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
        std::sort(cs.begin(), cs.end());
        cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
        if (rs.size() < 2 || cs.size() < 2) return {};
        auto ridx = [&](index_t v) {
            return static_cast<std::size_t>(
                std::lower_bound(rs.begin(), rs.end(), v) - rs.begin());
        };
        auto cidx = [&](index_t v) {
            return static_cast<std::size_t>(
                std::lower_bound(cs.begin(), cs.end(), v) - cs.begin());
        };
        std::vector<std::vector<long long>> diff(
            rs.size(), std::vector<long long>(cs.size(), 0));
        for (const Cell& r : rects_) {
            if (r.count == 0) continue;
            const std::size_t r0 = ridx(r.r0), r1 = ridx(r.r1);
            const std::size_t c0 = cidx(r.c0), c1 = cidx(r.c1);
            diff[r0][c0] += r.count;
            diff[r0][c1] -= r.count;
            diff[r1][c0] -= r.count;
            diff[r1][c1] += r.count;
        }
        std::vector<Cell> cells;
        cells.reserve((rs.size() - 1) * (cs.size() - 1));
        std::vector<long long> col_acc(cs.size(), 0);
        for (std::size_t i = 0; i + 1 < rs.size(); ++i) {
            long long acc = 0;
            for (std::size_t j = 0; j + 1 < cs.size(); ++j) {
                col_acc[j] += diff[i][j];
                acc += col_acc[j];
                cells.push_back(
                    {rs[i], rs[i + 1], cs[j], cs[j + 1], acc});
            }
            col_acc[cs.size() - 1] += diff[i][cs.size() - 1];
        }
        return cells;
    }

private:
    std::vector<Cell> rects_;
};

/// IR_COVER: every user-C element receives exactly expected_accums
/// accumulations: one per compute write into user C (an overwrite or an
/// accumulate; both executors compute C in place).
void check_cover(const ScheduleIR& ir, VerifyReport& report)
{
    IssueSink sink{report};
    int user_c = -1;
    for (std::size_t i = 0; i < ir.buffers.size(); ++i) {
        if (ir.buffers[i].kind == BufKind::kUserC) {
            user_c = static_cast<int>(i);
        }
    }
    if (user_c < 0) {
        sink.add("IR_MALFORMED", "IR has no user-C buffer");
        return;
    }

    CoverMap user_map;
    user_map.add(0, ir.shape.m, 0, ir.shape.n, 0);  // pin the full domain
    for (const TileOp& op : ir.ops) {
        if (op.kind != OpKind::kCompute) continue;
        for (const TileSpan& s : op.spans) {
            if (s.buffer == user_c && s.access != Access::kRead) {
                user_map.add(s.r0, s.r1, s.c0, s.c1, 1);
            }
        }
    }

    const auto expected = static_cast<long long>(ir.expected_accums);
    for (const CoverMap::Cell& cell : user_map.resolve()) {
        if (sink.full()) return;
        if (cell.count != expected) {
            std::ostringstream os;
            os << "user C [" << cell.r0 << ',' << cell.r1 << ")x["
               << cell.c0 << ',' << cell.c1 << ") accumulated "
               << cell.count << " times, expected " << expected;
            sink.add("IR_COVER", os.str());
        }
    }
}

// ------------------------------------------------------------ IO checks

index_t clip(index_t coord, index_t blk, index_t total)
{
    return std::min(blk, total - coord * blk);
}

/// IR_IO_MODEL: require byte-exact agreement between the IR's summed
/// traffic and the closed-form walk of the block order (io_model), which
/// is independent of build_block_plan. Also require the IR's fetch-event
/// counts to match schedule_traffic's surface counts.
void check_io_model(const ScheduleIR& ir, VerifyReport& report)
{
    IssueSink sink{report};
    const IoTotals got = io_totals(ir);
    const IoModel model = io_model(ir);
    const IoTotals& want = model.predicted;
    const auto reloads = static_cast<index_t>(
        std::count_if(model.steps.begin(), model.steps.end(),
                      [](const IoModelStep& st) { return st.reload; }));

    // Fetch-EVENT counts against the abstract schedule ranking.
    const ScheduleTraffic traffic = schedule_traffic(ir.schedule, ir.order);
    index_t a_events = 0, b_events = 0, reload_events = 0;
    {
        index_t max_a = -1, max_b = -1;
        for (const TileOp& op : ir.ops) {
            if (op.kind == OpKind::kStreamB) ++b_events;
            if (op.kind == OpKind::kCompute && op.dram_reload_bytes > 0) {
                ++reload_events;
            }
            for (const TileSpan& s : op.spans) {
                if (!s.creates_gen) continue;
                if (op.kind == OpKind::kPackA) {
                    max_a = std::max(max_a, s.gen);
                }
                if (op.kind == OpKind::kPackB) {
                    max_b = std::max(max_b, s.gen);
                }
            }
        }
        a_events = max_a + 1;
        if (!ir.use_prepacked) b_events = max_b + 1;
    }
    if (a_events != traffic.a_fetches || b_events != traffic.b_fetches
        || reload_events != traffic.c_spills) {
        std::ostringstream os;
        os << "fetch events (A " << a_events << ", B " << b_events
           << ", C spills " << reload_events
           << ") disagree with schedule_traffic (A "
           << traffic.a_fetches << ", B " << traffic.b_fetches
           << ", C " << traffic.c_spills << ')';
        sink.add("IR_IO_MODEL", os.str());
    }
    if (reloads != reload_events && sink.count == 0) {
        sink.add("IR_IO_MODEL", "reload walk disagrees with IR events");
    }

    const auto cmp = [&](const char* name, std::uint64_t g,
                         std::uint64_t w) {
        if (g == w || sink.full()) return;
        std::ostringstream os;
        os << name << ": IR models " << g << " bytes, analytic model says "
           << w;
        sink.add("IR_IO_MODEL", os.str());
    };
    cmp("A reads", got.a_read, want.a_read);
    cmp("B reads", got.b_read, want.b_read);
    cmp("C writebacks", got.c_write, want.c_write);
    cmp("C RMW reads", got.c_rmw_read, want.c_rmw_read);
    cmp("C reload reads", got.c_reload_read, want.c_reload_read);
}

/// IR_IO_CONSTBW: on the fully-sharing schedules (serpentine, and the
/// Hilbert traversal whose cells are always grid-adjacent with K carried
/// across) every interior k-advancing step of a full-size column fetches
/// exactly (m_blk + n_blk) * k_blk elements (at A's and B's stored
/// widths) — the constant-bandwidth block property of §3.
void check_constbw(const ScheduleIR& ir, VerifyReport& report)
{
    if (ir.schedule != ScheduleKind::kKFirstSerpentine
        && ir.schedule != ScheduleKind::kHilbert) {
        return;
    }
    IssueSink sink{report};
    std::map<index_t, std::uint64_t> fetch_of_step;
    for (const TileOp& op : ir.ops) {
        if (op.kind == OpKind::kPackA || op.kind == OpKind::kPackB
            || op.kind == OpKind::kStreamB) {
            fetch_of_step[op.step] += op.dram_read_bytes;
        }
    }
    const OperandBytes w = ir.bytes.or_uniform(ir.elem_bytes);
    const std::uint64_t constant =
        static_cast<std::uint64_t>(ir.params.m_blk * w.a
                                   + ir.params.n_blk * w.b)
        * static_cast<std::uint64_t>(ir.params.k_blk);
    for (std::size_t i = 1; i < ir.order.size(); ++i) {
        if (sink.full()) return;
        const BlockCoord& prev = ir.order[i - 1];
        const BlockCoord& cur = ir.order[i];
        if (cur.m != prev.m || cur.n != prev.n || cur.k == prev.k) continue;
        if (clip(cur.m, ir.params.m_blk, ir.shape.m) != ir.params.m_blk
            || clip(cur.n, ir.params.n_blk, ir.shape.n) != ir.params.n_blk
            || clip(cur.k, ir.params.k_blk, ir.shape.k)
                != ir.params.k_blk) {
            continue;
        }
        const auto step = static_cast<index_t>(i);
        const auto it = fetch_of_step.find(step);
        const std::uint64_t got = it == fetch_of_step.end() ? 0 : it->second;
        if (got != constant) {
            std::ostringstream os;
            os << schedule_kind_name(ir.schedule) << " step " << step
               << " fetches " << got
               << " bytes; constant-bandwidth block promises " << constant;
            sink.add("IR_IO_CONSTBW", os.str());
        }
    }
}

}  // namespace

IoModel io_model(const ScheduleIR& ir)
{
    IoModel model;
    IoTotals& t = model.predicted;
    // Each surface at its stored width (A and B as stored, C at the
    // accumulator width).
    const OperandBytes width = ir.bytes.or_uniform(ir.elem_bytes);
    const auto col_of = [&](const BlockCoord& c) {
        return static_cast<std::size_t>(c.m * ir.nb + c.n);
    };
    std::vector<char> flushed(static_cast<std::size_t>(ir.mb * ir.nb), 0);
    bool entered_flushed = false;
    // A visit writes its column back once when it ends, reading it first
    // iff it is a first visit under beta != 0 (a revisit's read is its
    // reload).
    const auto retire = [&](std::uint64_t c_bytes) {
        t.c_write += c_bytes;
        if (!entered_flushed && ir.beta_nonzero) t.c_rmw_read += c_bytes;
    };
    model.steps.reserve(ir.order.size());
    for (std::size_t i = 0; i < ir.order.size(); ++i) {
        const BlockCoord& cur = ir.order[i];
        const auto mi = static_cast<std::uint64_t>(
            clip(cur.m, ir.params.m_blk, ir.shape.m));
        const auto ni = static_cast<std::uint64_t>(
            clip(cur.n, ir.params.n_blk, ir.shape.n));
        const auto ki = static_cast<std::uint64_t>(
            clip(cur.k, ir.params.k_blk, ir.shape.k));
        IoModelStep st;
        st.a_bytes = mi * ki * static_cast<std::uint64_t>(width.a);
        st.b_bytes = ki * ni * static_cast<std::uint64_t>(width.b);
        st.c_bytes = mi * ni * static_cast<std::uint64_t>(width.c);
        if (i > 0) {
            st.carried = carried_surfaces(ir.schedule, ir.order[i - 1], cur);
        }
        if (!st.carried.a) t.a_read += st.a_bytes;
        if (!st.carried.b) t.b_read += st.b_bytes;
        if (!st.carried.c) {
            if (i > 0) {
                retire(model.steps.back().c_bytes);
                flushed[col_of(ir.order[i - 1])] = 1;
            }
            entered_flushed = flushed[col_of(cur)] != 0;
            st.reload = entered_flushed;
            if (st.reload) t.c_reload_read += st.c_bytes;
        }
        model.steps.push_back(st);
    }
    if (!model.steps.empty()) retire(model.steps.back().c_bytes);
    return model;
}

VerifyReport verify_schedule_ir(const ScheduleIR& ir)
{
    VerifyReport report;
    check_malformed(ir, report);
    if (!report.ok()) return report;  // don't analyse a broken structure

    const GenGroups groups = group_by_generation(ir);
    check_order(ir, groups, report);
    check_races(ir, groups, report);
    check_lifetimes(ir, groups, report);
    check_cover(ir, report);
    check_io_model(ir, report);
    check_constbw(ir, report);
    return report;
}

namespace {

/// Classifies each traced access by AddressMap region and totals the
/// user-surface bytes; pack-panel traffic is local memory.
class CountingSink final : public memsim::TraceSink {
public:
    std::uint64_t a_read = 0, b_read = 0, c_read = 0, c_write = 0;

    void access(int core, std::uint64_t addr, std::uint32_t bytes,
                bool write) override
    {
        (void)core;
        switch (addr >> 32) {
        case 1:
            if (!write) a_read += bytes;
            break;
        case 2:
            if (!write) b_read += bytes;
            break;
        case 3:
            (write ? c_write : c_read) += bytes;
            break;
        default:
            break;  // pack_a / pack_b: on-chip staging
        }
    }
};

}  // namespace

VerifyReport cross_check_memsim(const ScheduleIR& ir)
{
    VerifyReport report;
    IssueSink sink{report};
    if (ir.use_prepacked || ir.beta_nonzero) {
        sink.add("IR_MALFORMED",
                 "memsim cross-check requires a non-prepacked, "
                 "beta == 0 IR");
        return report;
    }
    CountingSink counts;
    memsim::trace_cake(ir.shape, ir.params, ir.schedule, counts);
    const IoTotals io = io_totals(ir);
    // The kernels read and write user C in place, so C is compared access
    // for access: the bytes of the IR's user-C spans (a read-modify-write
    // span reads and writes its whole rect) against the trace's user-C
    // accesses.
    const auto c_elem = static_cast<std::uint64_t>(
        ir.bytes.or_uniform(ir.elem_bytes).c);
    std::uint64_t c_read = 0, c_write = 0;
    for (const TileOp& op : ir.ops) {
        for (const TileSpan& s : op.spans) {
            if (ir.buffers[static_cast<std::size_t>(s.buffer)].kind
                != BufKind::kUserC) {
                continue;
            }
            const auto bytes = static_cast<std::uint64_t>(s.r1 - s.r0)
                * static_cast<std::uint64_t>(s.c1 - s.c0) * c_elem;
            if (s.access != Access::kWrite) c_read += bytes;
            if (s.access != Access::kRead) c_write += bytes;
        }
    }
    const auto cmp = [&](const char* name, std::uint64_t ir_bytes,
                         std::uint64_t trace_bytes) {
        if (ir_bytes == trace_bytes || sink.full()) return;
        std::ostringstream os;
        os << name << ": IR " << ir_bytes << " bytes, memsim trace issues "
           << trace_bytes;
        sink.add("IR_IO_MEMSIM", os.str());
    };
    cmp("A reads", io.a_read, counts.a_read);
    cmp("B reads", io.b_read, counts.b_read);
    cmp("C writes", c_write, counts.c_write);
    cmp("C reads", c_read, counts.c_read);
    return report;
}

}  // namespace schedir
}  // namespace cake
