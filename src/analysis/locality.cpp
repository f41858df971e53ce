#include "analysis/locality.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace cake {
namespace locality {

namespace {

using schedir::Access;
using schedir::OpKind;
using schedir::ScheduleIR;
using schedir::TileOp;
using schedir::TileSpan;

index_t clip(index_t coord, index_t blk, index_t total)
{
    return std::min(blk, total - coord * blk);
}

/// Surface identity in the combined reference stream: A surfaces are
/// (m, k), B surfaces (k, n), partial-C surfaces the (m, n) column.
enum SurfaceType { kSurfA = 0, kSurfB = 1, kSurfC = 2 };

struct StackEntry {
    int type = 0;
    index_t id = 0;
    std::uint64_t bytes = 0;
};

/// Everything the closed-form walk of ir.order derives: predicted
/// traffic, per-transition rows, typed fetch-step sets, and the
/// byte-weighted LRU stack statistics.
struct ClosedForm {
    schedir::IoTotals predicted;
    std::vector<Transition> transitions;
    index_t shared_transitions = 0;
    std::uint64_t shared_bytes = 0;
    std::set<index_t> a_fetch_steps;   ///< typed A stack distance > 0 / cold
    std::set<index_t> b_fetch_steps;   ///< typed B stack distance > 0 / cold
    std::set<index_t> reload_steps;    ///< C distance > 0 and evicted (flushed)
    StackHistogram hist;
    std::vector<LevelStats> levels;
};

ClosedForm walk_order(const ScheduleIR& ir, const CacheHierarchy& caches)
{
    ClosedForm cf;
    for (const CacheLevel& lv : caches.levels) {
        LevelStats ls;
        ls.name = 'L';
        ls.name += std::to_string(lv.level);
        ls.capacity_bytes = static_cast<std::uint64_t>(lv.size_bytes);
        cf.levels.push_back(std::move(ls));
    }

    // Each surface at its stored width (A and B as stored, C at the
    // accumulator width).
    const OperandBytes w = ir.bytes.or_uniform(ir.elem_bytes);
    const auto ea = static_cast<std::uint64_t>(w.a);
    const auto eb = static_cast<std::uint64_t>(w.b);
    const auto ec = static_cast<std::uint64_t>(w.c);
    const auto col_of = [&](const BlockCoord& c) { return c.m * ir.nb + c.n; };

    // Byte-weighted LRU stack over the combined surface stream; MRU at
    // the back. The distance of a reuse is the bytes of *other* surfaces
    // referenced since the last touch (exclusive stack distance).
    std::vector<StackEntry> stack;
    const auto touch = [&](int type, index_t id, std::uint64_t bytes) {
        std::uint64_t dist = 0;
        std::size_t pos = stack.size();
        for (std::size_t i = stack.size(); i-- > 0;) {
            if (stack[i].type == type && stack[i].id == id) {
                pos = i;
                break;
            }
            dist += stack[i].bytes;
        }
        if (pos == stack.size()) {
            ++cf.hist.cold;
            for (LevelStats& lv : cf.levels) ++lv.cold;
        } else {
            stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(pos));
            if (dist == 0) {
                ++cf.hist.immediate;
            } else {
                int bucket = 0;
                while ((dist >> (bucket + 1)) != 0) ++bucket;
                ++cf.hist.pow2[static_cast<std::size_t>(bucket)];
            }
            cf.hist.max_distance = std::max(cf.hist.max_distance, dist);
            for (LevelStats& lv : cf.levels) {
                if (dist + bytes <= lv.capacity_bytes) {
                    ++lv.hits;
                } else {
                    ++lv.misses;
                }
            }
        }
        stack.push_back({type, id, bytes});
    };

    // Partial-C eviction state: a column is refetched iff it was flushed
    // by an earlier column switch (same law check_io_model re-derives).
    std::vector<char> flushed(static_cast<std::size_t>(ir.mb * ir.nb), 0);
    bool entered_flushed = false;

    for (std::size_t i = 0; i < ir.order.size(); ++i) {
        const BlockCoord& cur = ir.order[i];
        const SurfaceSharing sh = i == 0
            ? SurfaceSharing{}
            : shared_surfaces(ir.order[i - 1], cur);
        const auto mi = static_cast<std::uint64_t>(
            clip(cur.m, ir.params.m_blk, ir.shape.m));
        const auto ni = static_cast<std::uint64_t>(
            clip(cur.n, ir.params.n_blk, ir.shape.n));
        const auto ki = static_cast<std::uint64_t>(
            clip(cur.k, ir.params.k_blk, ir.shape.k));
        const std::uint64_t a_bytes = mi * ki * ea;
        const std::uint64_t b_bytes = ki * ni * eb;
        const std::uint64_t c_bytes = mi * ni * ec;

        Transition tr;
        tr.step = static_cast<index_t>(i);
        if (sh.a) {
            tr.shared_bytes += a_bytes;
        } else {
            cf.predicted.a_read += a_bytes;
            tr.predicted_fetch += a_bytes;
            cf.a_fetch_steps.insert(tr.step);
        }
        if (sh.b) {
            tr.shared_bytes += b_bytes;
        } else {
            cf.predicted.b_read += b_bytes;
            tr.predicted_fetch += b_bytes;
            cf.b_fetch_steps.insert(tr.step);
        }
        if (sh.c) {
            tr.shared_bytes += c_bytes;
        } else {
            if (i > 0) {
                const BlockCoord& prev = ir.order[i - 1];
                const auto pm = static_cast<std::uint64_t>(
                    clip(prev.m, ir.params.m_blk, ir.shape.m));
                const auto pn = static_cast<std::uint64_t>(
                    clip(prev.n, ir.params.n_blk, ir.shape.n));
                cf.predicted.c_write += pm * pn * ec;
                if (entered_flushed || ir.beta_nonzero) {
                    cf.predicted.c_rmw_read += pm * pn * ec;
                }
                flushed[static_cast<std::size_t>(col_of(prev))] = 1;
            }
            entered_flushed =
                flushed[static_cast<std::size_t>(col_of(cur))] != 0;
            if (entered_flushed) {
                cf.predicted.c_reload_read += c_bytes;
                tr.predicted_fetch += c_bytes;
                cf.reload_steps.insert(tr.step);
            }
        }
        if (i > 0 && (sh.a || sh.b || sh.c)) ++cf.shared_transitions;
        cf.shared_bytes += tr.shared_bytes;

        touch(kSurfA, cur.m * ir.kb + cur.k, a_bytes);
        touch(kSurfB, cur.k * ir.nb + cur.n, b_bytes);
        touch(kSurfC, col_of(cur), c_bytes);

        cf.transitions.push_back(tr);
    }
    if (!ir.order.empty()) {
        const BlockCoord& last = ir.order.back();
        const auto pm = static_cast<std::uint64_t>(
            clip(last.m, ir.params.m_blk, ir.shape.m));
        const auto pn = static_cast<std::uint64_t>(
            clip(last.n, ir.params.n_blk, ir.shape.n));
        cf.predicted.c_write += pm * pn * ec;
        if (entered_flushed || ir.beta_nonzero) {
            cf.predicted.c_rmw_read += pm * pn * ec;
        }
    }
    return cf;
}

/// What the IR's operations actually do, grouped by the schedule step
/// they serve: fetch bytes, distinct packed generations (one per fetched
/// surface), stream ops, and reload reads.
struct IrEvents {
    std::map<index_t, std::uint64_t> fetch_of_step;
    std::set<index_t> a_gens, b_gens;           ///< distinct creating gens
    std::set<index_t> a_gen_steps, b_gen_steps; ///< steps with a creating op
    std::set<index_t> b_stream_steps;
    index_t b_stream_ops = 0;
    std::set<index_t> reload_steps;
};

IrEvents collect_ir_events(const ScheduleIR& ir)
{
    IrEvents ev;
    for (const TileOp& op : ir.ops) {
        switch (op.kind) {
        case OpKind::kPackA:
        case OpKind::kPackB:
            ev.fetch_of_step[op.step] += op.dram_read_bytes;
            for (const TileSpan& s : op.spans) {
                if (!s.creates_gen) continue;
                if (op.kind == OpKind::kPackA) {
                    ev.a_gens.insert(s.gen);
                    ev.a_gen_steps.insert(op.step);
                } else {
                    ev.b_gens.insert(s.gen);
                    ev.b_gen_steps.insert(op.step);
                }
            }
            break;
        case OpKind::kStreamB:
            ev.fetch_of_step[op.step] += op.dram_read_bytes;
            ev.b_stream_steps.insert(op.step);
            ++ev.b_stream_ops;
            break;
        case OpKind::kCompute:
            // A compute fetches only to reload a spilled partial; its
            // write-back read-modify-write read is write-side traffic.
            if (op.dram_reload_bytes > 0) {
                ev.fetch_of_step[op.step] += op.dram_reload_bytes;
                ev.reload_steps.insert(op.step);
            }
            break;
        }
    }
    return ev;
}

/// LOC_STACK helper: report the first steps where the IR's fetch events
/// and the stack-distance law disagree.
void diff_event_steps(const char* what, const std::set<index_t>& want,
                      const std::set<index_t>& got, IssueSink& sink)
{
    if (want == got) return;
    for (index_t step : want) {
        if (sink.full()) return;
        if (got.count(step) == 0) {
            std::ostringstream os;
            os << what << ": stack-distance law demands a fetch at step "
               << step << " but the IR has no fetch event there";
            sink.add("LOC_STACK", os.str());
        }
    }
    for (index_t step : got) {
        if (sink.full()) return;
        if (want.count(step) == 0) {
            std::ostringstream os;
            os << what << ": IR fetches at step " << step
               << " where the stack-distance law carries the surface over";
            sink.add("LOC_STACK", os.str());
        }
    }
}

}  // namespace

LocalityReport analyze_locality(const schedir::ScheduleIR& ir,
                                const CacheHierarchy& caches)
{
    CAKE_CHECK_MSG(ir.exec != schedir::Exec::kGoto,
                   "analyze_locality: CAKE IR required (the reuse law is "
                   "defined over ir.order, which GOTO does not populate)");
    LocalityReport rep;
    rep.schedule = ir.schedule;
    rep.steps = static_cast<index_t>(ir.order.size());

    ClosedForm cf = walk_order(ir, caches);
    const IrEvents ev = collect_ir_events(ir);

    rep.shared_transitions = cf.shared_transitions;
    rep.shared_bytes = cf.shared_bytes;
    rep.predicted = cf.predicted;
    rep.hist = cf.hist;
    rep.levels = std::move(cf.levels);

    // LOC_SURFACE: the bytes fetched at each step must equal the closed
    // form of that transition — step by step, not just in total.
    {
        IssueSink sink{rep};
        for (Transition& tr : cf.transitions) {
            const auto it = ev.fetch_of_step.find(tr.step);
            tr.ir_fetch = it == ev.fetch_of_step.end() ? 0 : it->second;
            if (tr.ir_fetch == tr.predicted_fetch || sink.full()) continue;
            std::ostringstream os;
            os << "step " << tr.step << ": IR ops fetch " << tr.ir_fetch
               << " bytes; the transition's unshared surfaces are "
               << tr.predicted_fetch << " bytes";
            sink.add("LOC_SURFACE", os.str());
        }
        // Fetch bytes at steps past the schedule (phantom steps).
        for (const auto& [step, bytes] : ev.fetch_of_step) {
            if (sink.full()) break;
            if (step >= 0 && step < rep.steps) continue;
            std::ostringstream os;
            os << "step " << step << ": IR fetches " << bytes
               << " bytes outside the " << rep.steps << "-step schedule";
            sink.add("LOC_SURFACE", os.str());
        }
    }
    rep.transitions = std::move(cf.transitions);

    // LOC_STACK: fetch events exactly where the typed LRU stack-distance
    // law demands one — counted (one generation / stream op / reload per
    // demanded fetch) and placed (at those steps and no others).
    {
        IssueSink sink{rep};
        const auto cmp_count = [&](const char* what, std::size_t got,
                                   std::size_t want) {
            if (got == want || sink.full()) return;
            std::ostringstream os;
            os << what << ": IR has " << got
               << " fetch events; the stack-distance law demands " << want;
            sink.add("LOC_STACK", os.str());
        };
        cmp_count("packed-A generations", ev.a_gens.size(),
                  cf.a_fetch_steps.size());
        diff_event_steps("packed-A", cf.a_fetch_steps, ev.a_gen_steps, sink);
        if (ir.use_prepacked) {
            cmp_count("B stream ops",
                      static_cast<std::size_t>(ev.b_stream_ops),
                      cf.b_fetch_steps.size());
            diff_event_steps("streamed-B", cf.b_fetch_steps,
                             ev.b_stream_steps, sink);
        } else {
            cmp_count("packed-B generations", ev.b_gens.size(),
                      cf.b_fetch_steps.size());
            diff_event_steps("packed-B", cf.b_fetch_steps, ev.b_gen_steps,
                             sink);
        }
        diff_event_steps("partial-C reload", cf.reload_steps,
                         ev.reload_steps, sink);
    }

    // LOC_TRAFFIC: the summed closed form must equal io_totals(ir)
    // byte-exactly. cross_check_memsim pins io_totals to the memsim
    // address stream, so this equality chains prediction -> simulation.
    {
        IssueSink sink{rep};
        const schedir::IoTotals got = schedir::io_totals(ir);
        const auto cmp = [&](const char* name, std::uint64_t g,
                             std::uint64_t w) {
            if (g == w || sink.full()) return;
            std::ostringstream os;
            os << name << ": closed form predicts " << w
               << " bytes; io_totals(ir) reports " << g;
            sink.add("LOC_TRAFFIC", os.str());
        };
        cmp("A reads", got.a_read, rep.predicted.a_read);
        cmp("B reads", got.b_read, rep.predicted.b_read);
        cmp("C writebacks", got.c_write, rep.predicted.c_write);
        cmp("C RMW reads", got.c_rmw_read, rep.predicted.c_rmw_read);
        cmp("C reload reads", got.c_reload_read,
            rep.predicted.c_reload_read);
    }
    return rep;
}

LocalityReport analyze_locality(const schedir::ScheduleIR& ir)
{
    return analyze_locality(ir, default_caches());
}

const char* loc_mutation_name(LocMutation m)
{
    switch (m) {
    case LocMutation::kTwistOrder: return "twist-order";
    case LocMutation::kSkewFetch: return "skew-fetch";
    case LocMutation::kPhantomFetch: return "phantom-fetch";
    case LocMutation::kInflateFlush: return "inflate-flush";
    }
    return "?";
}

std::string apply_locality_mutation(schedir::ScheduleIR& ir, LocMutation m)
{
    CAKE_CHECK_MSG(ir.exec != schedir::Exec::kGoto,
                   "apply_locality_mutation: CAKE IR required");
    switch (m) {
    case LocMutation::kTwistOrder: {
        // Swap the last block of one column with the first of the next.
        // The IR's ops still serve the original order, so the closed form
        // of the twisted order disagrees with them step by step. Needs
        // kb >= 2 so the new neighbours differ in K (guaranteed byte
        // mismatch, not just a relabeling).
        if (ir.kb < 2) {
            throw Error("kTwistOrder: needs kb >= 2");
        }
        for (std::size_t i = 1; i < ir.order.size(); ++i) {
            const BlockCoord& a = ir.order[i - 1];
            const BlockCoord& b = ir.order[i];
            if (a.m == b.m && a.n == b.n) continue;
            std::swap(ir.order[i - 1], ir.order[i]);
            return "LOC_SURFACE";
        }
        throw Error("kTwistOrder: schedule has a single column");
    }
    case LocMutation::kSkewFetch: {
        // Move one pack-A op's fetch bytes to a pack-A op at a different
        // step: totals and generations unchanged (no LOC_TRAFFIC, no
        // LOC_STACK), but two steps now fetch the wrong byte count.
        TileOp* src = nullptr;
        for (TileOp& op : ir.ops) {
            if (op.kind == OpKind::kPackA && op.dram_read_bytes > 0) {
                src = &op;
                break;
            }
        }
        if (src != nullptr) {
            for (TileOp& op : ir.ops) {
                if (op.kind == OpKind::kPackA && op.step != src->step) {
                    op.dram_read_bytes += src->dram_read_bytes;
                    src->dram_read_bytes = 0;
                    return "LOC_SURFACE";
                }
            }
        }
        throw Error("kSkewFetch: needs pack-A ops at two different steps");
    }
    case LocMutation::kPhantomFetch: {
        // Add a zero-byte B fetch *event* (a fresh packed generation, or
        // an extra stream op when prepacked): per-step bytes and totals
        // unchanged, but the event count now exceeds what the stack-
        // distance law allows.
        index_t max_gen = -1;
        const TileOp* site = nullptr;
        for (const TileOp& op : ir.ops) {
            if (op.kind == OpKind::kStreamB && site == nullptr) site = &op;
            if (op.kind != OpKind::kPackB) continue;
            for (const TileSpan& s : op.spans) {
                if (!s.creates_gen) continue;
                if (s.gen > max_gen) {
                    max_gen = s.gen;
                    site = &op;
                }
            }
        }
        if (site == nullptr) {
            throw Error("kPhantomFetch: IR has no B fetch op");
        }
        TileOp phantom = *site;
        phantom.dram_read_bytes = 0;
        phantom.dram_write_bytes = 0;
        if (phantom.kind == OpKind::kPackB) {
            TileSpan span;
            for (const TileSpan& s : phantom.spans) {
                if (s.creates_gen) span = s;
            }
            span.gen = max_gen + 1;
            span.closes_gen = false;
            phantom.spans.assign(1, span);
        }
        ir.ops.push_back(std::move(phantom));
        return "LOC_STACK";
    }
    case LocMutation::kInflateFlush: {
        // One retiring compute writes one extra element back: io_totals'
        // C writebacks drift from the closed form by elem_bytes.
        for (TileOp& op : ir.ops) {
            if (op.kind == OpKind::kCompute && op.dram_write_bytes > 0) {
                op.dram_write_bytes +=
                    static_cast<std::uint64_t>(ir.elem_bytes);
                return "LOC_TRAFFIC";
            }
        }
        throw Error("kInflateFlush: IR has no retiring compute op");
    }
    }
    throw Error("apply_locality_mutation: unknown mutation");
}

}  // namespace locality
}  // namespace cake
