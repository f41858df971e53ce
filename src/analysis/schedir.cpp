#include "analysis/schedir.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/block_plan.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace schedir {

const char* exec_name(Exec exec)
{
    switch (exec) {
    case Exec::kSerial: return "serial";
    case Exec::kPipelined: return "pipelined";
    case Exec::kGoto: return "goto";
    }
    return "?";
}

const char* op_kind_name(OpKind kind)
{
    switch (kind) {
    case OpKind::kPackA: return "packA";
    case OpKind::kPackB: return "packB";
    case OpKind::kStreamB: return "streamB";
    case OpKind::kCompute: return "compute";
    }
    return "?";
}

const char* mutation_name(Mutation m)
{
    switch (m) {
    case Mutation::kDropOp: return "drop-op";
    case Mutation::kDupOp: return "dup-op";
    case Mutation::kReorderAccum: return "reorder-accum";
    case Mutation::kOverlapBands: return "overlap-bands";
    case Mutation::kSplitWriteback: return "split-writeback";
    case Mutation::kShrinkGeneration: return "shrink-generation";
    case Mutation::kDropFlush: return "drop-flush";
    }
    return "?";
}

namespace {

/// CAKE buffer indices (extract_cake_ir's layout).
constexpr int kBufUserA = 0;
constexpr int kBufUserB = 1;
constexpr int kBufUserC = 2;
constexpr int kBufPackA = 3;
constexpr int kBufPackB = 4;

/// One ThreadPool::parallel_for worker chunk, mirroring the runtime's
/// contiguous split (thread_pool.cpp): width = min(p, total), chunk =
/// ceil(total / width), worker tid owns [tid*chunk, min(total, +chunk)).
struct Chunk {
    int tid = 0;
    index_t lo = 0, hi = 0;
};

std::vector<Chunk> parallel_chunks(index_t total, int p)
{
    std::vector<Chunk> chunks;
    if (total <= 0) return chunks;
    const auto width =
        static_cast<int>(std::min<index_t>(p, std::max<index_t>(total, 1)));
    const index_t chunk = ceil_div(total, width);
    for (int tid = 0; tid < width; ++tid) {
        const index_t lo = tid * chunk;
        const index_t hi = std::min(total, lo + chunk);
        if (lo < hi) chunks.push_back({tid, lo, hi});
    }
    return chunks;
}

/// Builds phases and ops in emission order; a barrier ends every phase.
struct IrBuilder {
    ScheduleIR ir;

    void next_phase() { ++ir.num_phases; }

    TileOp& add_op(OpKind kind, index_t step, const BlockCoord& block,
                   int worker, index_t seq = 0)
    {
        TileOp op;
        op.kind = kind;
        op.phase = ir.num_phases - 1;
        op.step = step;
        op.block = block;
        op.worker = worker;
        op.seq = seq;
        ir.ops.push_back(std::move(op));
        return ir.ops.back();
    }
};

TileSpan make_span(int buffer, int slot, index_t gen, Access access,
                   index_t r0, index_t r1, index_t c0, index_t c1,
                   bool creates = false, bool closes = false)
{
    TileSpan s;
    s.buffer = buffer;
    s.slot = slot;
    s.gen = gen;
    s.access = access;
    s.r0 = r0;
    s.r1 = r1;
    s.c0 = c0;
    s.c1 = c1;
    s.creates_gen = creates;
    s.closes_gen = closes;
    return s;
}

}  // namespace

ScheduleIR extract_cake_ir(const GemmShape& shape,
                           const CbBlockParams& params, ScheduleKind kind,
                           Exec exec, bool use_prepacked, bool beta_nonzero,
                           OperandBytes bytes)
{
    CAKE_CHECK_MSG(exec != Exec::kGoto,
                   "extract_cake_ir handles serial/pipelined only");
    CAKE_CHECK(shape.m >= 1 && shape.n >= 1 && shape.k >= 1);
    const bool overlap = exec == Exec::kPipelined;
    const index_t mr = params.mr;
    const index_t nr = params.nr;
    bytes = bytes.or_uniform(params.elem_bytes);
    const auto a_elem = static_cast<std::uint64_t>(bytes.a);
    const auto b_elem = static_cast<std::uint64_t>(bytes.b);
    const auto c_elem = static_cast<std::uint64_t>(bytes.c);

    IrBuilder b;
    ScheduleIR& ir = b.ir;
    ir.exec = exec;
    ir.schedule = kind;
    ir.shape = shape;
    ir.params = params;
    ir.p = params.p;
    ir.mb = ceil_div(shape.m, params.m_blk);
    ir.nb = ceil_div(shape.n, params.n_blk);
    ir.kb = ceil_div(shape.k, params.k_blk);
    ir.elem_bytes = params.elem_bytes;
    ir.bytes = bytes;
    ir.n_outermost = shape.n >= shape.m;
    ir.use_prepacked = use_prepacked;
    ir.beta_nonzero = beta_nonzero;
    ir.expected_accums = ir.kb;
    ir.order = build_schedule(kind, ir.mb, ir.nb, ir.kb, ir.n_outermost);

    // The SAME plan the executor consumes (core/block_plan.cpp).
    BlockPlanInputs pin;
    pin.params = params;
    pin.m = shape.m;
    pin.n = shape.n;
    pin.k = shape.k;
    pin.ldc = shape.n;
    pin.nb = ir.nb;
    pin.kb = ir.kb;
    pin.use_prepacked = use_prepacked;
    pin.beta_nonzero = beta_nonzero;
    pin.double_buffer = overlap;
    pin.bytes = bytes;
    const BlockPlan plan = build_block_plan(ir.order, pin);

    const int pack_slots = overlap ? 2 : 1;
    ir.buffers = {
        {"user A", BufKind::kUserA, 1},
        {"user B", BufKind::kUserB, 1},
        {"user C", BufKind::kUserC, 1},
        {"packed A", BufKind::kPackA, pack_slots},
        {"packed B", BufKind::kPackB, pack_slots},
    };

    // Pack-generation and column-visit (user-C generation) ordinals per
    // step, in plan order.
    const auto steps = static_cast<index_t>(plan.steps.size());
    std::vector<index_t> a_gen_of(static_cast<std::size_t>(steps), 0);
    std::vector<index_t> b_gen_of(static_cast<std::size_t>(steps), 0);
    std::vector<index_t> c_gen_of(static_cast<std::size_t>(steps), 0);
    {
        index_t ag = -1, bg = -1, cg = -1;
        for (index_t t = 0; t < steps; ++t) {
            const BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
            if (st.pack_a) ++ag;
            if (st.pack_b) ++bg;
            if (st.c_change) ++cg;
            a_gen_of[static_cast<std::size_t>(t)] = std::max<index_t>(ag, 0);
            b_gen_of[static_cast<std::size_t>(t)] = std::max<index_t>(bg, 0);
            c_gen_of[static_cast<std::size_t>(t)] = cg;
        }
    }

    // --- shared op emitters -------------------------------------------
    // Pack a range of mr slivers of step st's A surface (sliver-indexed
    // rows of the packed-A panel; element rows of user A).
    auto emit_pack_a = [&](const BlockStep& st, index_t s0, index_t s1,
                           int worker) {
        const index_t r0 = s0 * mr;
        const index_t r1 = std::min(st.mi, s1 * mr);
        TileOp& op = b.add_op(OpKind::kPackA, st.step, st.coord, worker);
        op.spans.push_back(make_span(kBufUserA, 0, 0, Access::kRead,
                                     st.m0 + r0, st.m0 + r1, st.k0,
                                     st.k0 + st.ki));
        op.spans.push_back(make_span(
            kBufPackA, st.a_slot, a_gen_of[static_cast<std::size_t>(st.step)],
            Access::kWrite, s0, s1, 0, 1, /*creates=*/true));
        op.dram_read_bytes = static_cast<std::uint64_t>(r1 - r0)
            * static_cast<std::uint64_t>(st.ki) * a_elem;
    };
    auto emit_pack_b = [&](const BlockStep& st, index_t s0, index_t s1,
                           int worker) {
        const index_t c0 = s0 * nr;
        const index_t c1 = std::min(st.ni, s1 * nr);
        TileOp& op = b.add_op(OpKind::kPackB, st.step, st.coord, worker);
        op.spans.push_back(make_span(kBufUserB, 0, 0, Access::kRead, st.k0,
                                     st.k0 + st.ki, st.n0 + c0, st.n0 + c1));
        op.spans.push_back(make_span(
            kBufPackB, st.b_slot, b_gen_of[static_cast<std::size_t>(st.step)],
            Access::kWrite, s0, s1, 0, 1, /*creates=*/true));
        op.dram_read_bytes = static_cast<std::uint64_t>(c1 - c0)
            * static_cast<std::uint64_t>(st.ki) * b_elem;
    };
    // Prepacked B: no pack work, but the panel still streams from
    // external memory once per fresh surface.
    auto emit_stream_b = [&](const BlockStep& st) {
        TileOp& op = b.add_op(OpKind::kStreamB, st.step, st.coord, -1);
        op.spans.push_back(make_span(kBufUserB, 0, 0, Access::kRead, st.k0,
                                     st.k0 + st.ki, st.n0,
                                     st.n0 + st.ni));
        op.dram_read_bytes = static_cast<std::uint64_t>(st.ki)
            * static_cast<std::uint64_t>(st.ni) * b_elem;
    };
    // Compute band `band` of step st: reads the packed surfaces and writes
    // the band's rows of user C in place. The first K block of a column
    // visit opens the visit's generation (a plain write on a first visit
    // with beta = 0, else a read-modify-write); the last closes it and
    // carries the band's modelled write-back (read back as well when beta
    // != 0 or the column was visited before). The first band of a revisit
    // carries the spilled-partial refetch bytes.
    auto emit_compute = [&](const BlockStep& st, index_t band) {
        const index_t r0 = band * mr;
        const index_t r1 = std::min(st.mi, r0 + mr);
        TileOp& op = b.add_op(OpKind::kCompute, st.step, st.coord, -1);
        op.item = band;
        op.spans.push_back(make_span(
            kBufPackA, st.a_slot, a_gen_of[static_cast<std::size_t>(st.step)],
            Access::kRead, band, band + 1, 0, 1));
        if (!use_prepacked) {
            op.spans.push_back(make_span(
                kBufPackB, st.b_slot,
                b_gen_of[static_cast<std::size_t>(st.step)], Access::kRead,
                0, ceil_div(st.ni, nr), 0, 1));
        }
        const bool overwrite = st.c_change && !st.revisit && !beta_nonzero;
        op.spans.push_back(make_span(
            kBufUserC, 0, c_gen_of[static_cast<std::size_t>(st.step)],
            overwrite ? Access::kWrite : Access::kReadWrite, st.m0 + r0,
            st.m0 + r1, st.n0, st.n0 + st.ni, /*creates=*/st.c_change,
            /*closes=*/st.c_last));
        if (st.c_change && st.revisit && band == 0) {
            op.dram_reload_bytes = static_cast<std::uint64_t>(st.mi)
                * static_cast<std::uint64_t>(st.ni) * c_elem;
        }
        if (st.c_last) {
            const auto bytes = static_cast<std::uint64_t>(r1 - r0)
                * static_cast<std::uint64_t>(st.ni) * c_elem;
            op.dram_write_bytes = bytes;
            if (st.revisit || beta_nonzero) op.dram_read_bytes = bytes;
        }
    };

    // Step st's fresh A/B surfaces as pack-group work items.
    auto emit_packs = [&](const BlockStep& st) {
        if (st.pack_a) {
            const index_t slivers = ceil_div(st.mi, mr);
            for (index_t s0 = 0; s0 < slivers; s0 += kPackAGroup) {
                emit_pack_a(st, s0, std::min(slivers, s0 + kPackAGroup), -1);
            }
        }
        if (st.pack_b) {
            const index_t slivers = ceil_div(st.ni, nr);
            for (index_t s0 = 0; s0 < slivers; s0 += kPackBGroup) {
                emit_pack_b(st, s0, std::min(slivers, s0 + kPackBGroup), -1);
            }
        }
    };

    // Persistent team, dynamically claimed work items (worker = -1),
    // spin-barrier phase boundaries. Mirrors run_block_loop's phase
    // structure exactly: the pipeline fill, then per step, with overlap
    // off, a pack phase for step t and a main phase computing step t
    // (and, with overlap on, packing step t+1).
    b.next_phase();  // pipeline fill
    emit_packs(plan.steps[0]);
    for (index_t t = 0; t < steps; ++t) {
        const BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        if (!overlap && t > 0 && (st.pack_a || st.pack_b)) {
            b.next_phase();  // overlap off: pack step t
            emit_packs(st);
        }
        b.next_phase();  // main: compute step t
        // Pack items first, as in the executor.
        if (overlap && t + 1 < steps) {
            emit_packs(plan.steps[static_cast<std::size_t>(t + 1)]);
        }
        if (use_prepacked && st.b_fresh) emit_stream_b(st);
        for (index_t band = 0; band < ceil_div(st.mi, mr); ++band) {
            emit_compute(st, band);
        }
    }
    return std::move(b.ir);
}

ScheduleIR extract_goto_ir(const GemmShape& shape,
                           const GotoBlocking& blocking, int p, index_t mr,
                           index_t nr, bool accumulate, index_t elem_bytes)
{
    CAKE_CHECK(shape.m >= 1 && shape.n >= 1 && shape.k >= 1);
    CAKE_CHECK(p >= 1 && mr >= 1 && nr >= 1);
    CAKE_CHECK(elem_bytes >= 1);
    const index_t mc = blocking.mc;
    const index_t kc = blocking.kc;
    const index_t nc = blocking.nc;
    const auto elem = static_cast<std::uint64_t>(elem_bytes);

    IrBuilder b;
    ScheduleIR& ir = b.ir;
    ir.exec = Exec::kGoto;
    ir.shape = shape;
    ir.blocking = blocking;
    ir.p = p;
    ir.params.mr = mr;  // kernel shape, for the memsim cross-check
    ir.params.nr = nr;
    ir.params.elem_bytes = elem_bytes;  // keep the dtype fields consistent
    ir.elem_bytes = elem_bytes;
    ir.beta_nonzero = accumulate;
    ir.expected_accums = ceil_div(shape.k, kc);
    ir.buffers = {
        {"user A", BufKind::kUserA, 1},
        {"user B", BufKind::kUserB, 1},
        {"user C", BufKind::kUserC, 1},
        {"packed A (per-core)", BufKind::kPackA, p},
        {"packed B", BufKind::kPackB, 1},
    };

    // Per-slot (= per-core) A generation counters; one B generation per
    // (jc, pc) pass.
    std::vector<index_t> a_gen(static_cast<std::size_t>(p), -1);
    index_t b_gen = -1;
    index_t pass_idx = 0;

    // The SAME pass list GotoGemmT::multiply iterates.
    for (const GotoPass& pass :
         build_goto_passes(shape.n, shape.k, nc, kc, accumulate)) {
        const BlockCoord pc_coord{-1, pass.jc / nc, pass.pc / kc};
        ++b_gen;
        b.next_phase();  // pack B
        for (const Chunk& c : parallel_chunks(ceil_div(pass.ncur, nr), p)) {
            const index_t c0 = c.lo * nr;
            const index_t c1 = std::min(pass.ncur, c.hi * nr);
            TileOp& op =
                b.add_op(OpKind::kPackB, pass_idx, pc_coord, c.tid);
            op.spans.push_back(make_span(
                kBufUserB, 0, 0, Access::kRead, pass.pc,
                pass.pc + pass.kcur, pass.jc + c0, pass.jc + c1));
            op.spans.push_back(make_span(kBufPackB, 0, b_gen,
                                         Access::kWrite, c.lo, c.hi, 0, 1,
                                         /*creates=*/true));
            op.dram_read_bytes = static_cast<std::uint64_t>(c1 - c0)
                * static_cast<std::uint64_t>(pass.kcur) * elem;
        }

        b.next_phase();  // pack A + compute
        for (int tid = 0; tid < p; ++tid) {
            index_t seq = 0;
            for (index_t ic = tid * mc; ic < shape.m;
                 ic += static_cast<index_t>(p) * mc) {
                const index_t mcur = std::min(mc, shape.m - ic);
                BlockCoord blk = pc_coord;
                blk.m = ic / mc;
                ++a_gen[static_cast<std::size_t>(tid)];
                const index_t ag = a_gen[static_cast<std::size_t>(tid)];
                {
                    TileOp& op =
                        b.add_op(OpKind::kPackA, pass_idx, blk, tid, seq++);
                    op.spans.push_back(make_span(
                        kBufUserA, 0, 0, Access::kRead, ic, ic + mcur,
                        pass.pc, pass.pc + pass.kcur));
                    op.spans.push_back(make_span(
                        kBufPackA, tid, ag, Access::kWrite, 0,
                        ceil_div(mcur, mr), 0, 1, /*creates=*/true));
                    op.dram_read_bytes = static_cast<std::uint64_t>(mcur)
                        * static_cast<std::uint64_t>(pass.kcur) * elem;
                }
                {
                    TileOp& op = b.add_op(OpKind::kCompute, pass_idx, blk,
                                          tid, seq++);
                    op.spans.push_back(make_span(kBufPackA, tid, ag,
                                                 Access::kRead, 0,
                                                 ceil_div(mcur, mr), 0, 1));
                    op.spans.push_back(make_span(
                        kBufPackB, 0, b_gen, Access::kRead, 0,
                        ceil_div(pass.ncur, nr), 0, 1));
                    // GOTO streams partial C straight to user memory:
                    // a plain write on the first reduction pass, RMW on
                    // every later one.
                    op.spans.push_back(make_span(
                        kBufUserC, 0, 0,
                        pass.acc ? Access::kReadWrite : Access::kWrite, ic,
                        ic + mcur, pass.jc, pass.jc + pass.ncur));
                    const auto c_bytes = static_cast<std::uint64_t>(mcur)
                        * static_cast<std::uint64_t>(pass.ncur) * elem;
                    op.dram_write_bytes = c_bytes;
                    if (pass.acc) op.dram_read_bytes = c_bytes;
                }
            }
        }
        ++pass_idx;
    }
    return std::move(b.ir);
}

IoTotals io_totals(const ScheduleIR& ir)
{
    IoTotals t;
    for (const TileOp& op : ir.ops) {
        switch (op.kind) {
        case OpKind::kPackA:
            t.a_read += op.dram_read_bytes;
            break;
        case OpKind::kPackB:
        case OpKind::kStreamB:
            t.b_read += op.dram_read_bytes;
            break;
        case OpKind::kCompute:
            t.c_write += op.dram_write_bytes;
            t.c_rmw_read += op.dram_read_bytes;
            t.c_reload_read += op.dram_reload_bytes;
            break;
        }
    }
    return t;
}

std::string apply_mutation(ScheduleIR& ir, Mutation m)
{
    // The user-C span of `op` that satisfies `pred`, or nullptr. Only
    // compute ops touch user C.
    auto user_c_span = [](TileOp& op, auto pred) -> TileSpan* {
        for (TileSpan& s : op.spans) {
            if (s.buffer == kBufUserC && pred(s)) return &s;
        }
        return nullptr;
    };
    const auto any = [](const TileSpan&) { return true; };
    const auto closes = [](const TileSpan& s) { return s.closes_gen; };
    auto find_op = [&](OpKind kind) -> std::size_t {
        for (std::size_t i = 0; i < ir.ops.size(); ++i) {
            if (ir.ops[i].kind == kind) return i;
        }
        throw Error(std::string("apply_mutation: no ")
                        + op_kind_name(kind) + " op in this IR");
    };
    switch (m) {
    case Mutation::kDropOp: {
        // Lose one accumulation: the affected C elements fall short.
        const std::size_t i = find_op(OpKind::kCompute);
        ir.ops.erase(ir.ops.begin() + static_cast<std::ptrdiff_t>(i));
        return "IR_COVER";
    }
    case Mutation::kDupOp: {
        // Apply one accumulation twice.
        const std::size_t i = find_op(OpKind::kCompute);
        ir.ops.push_back(ir.ops[i]);
        return "IR_COVER";
    }
    case Mutation::kReorderAccum: {
        // Move an accumulation after the compute that retires its rows:
        // the closing access no longer follows every write.
        for (TileOp& f : ir.ops) {
            const TileSpan* closed = user_c_span(f, closes);
            if (closed == nullptr || f.phase + 1 >= ir.num_phases) continue;
            for (TileOp& c : ir.ops) {
                const TileSpan* s = user_c_span(c, [](const TileSpan& x) {
                    return !x.creates_gen && !x.closes_gen;
                });
                if (s != nullptr && s->gen == closed->gen
                    && s->r0 < closed->r1 && closed->r0 < s->r1) {
                    c.phase = f.phase + 1;
                    return "IR_ORDER";
                }
            }
        }
        throw Error(
            "apply_mutation: no mid-schedule band retirement to reorder "
            "past");
    }
    case Mutation::kOverlapBands: {
        // Reach one compute band a row into its neighbour's user-C rows:
        // the two band items of one phase now write a shared row.
        for (TileOp& c : ir.ops) {
            TileSpan* s = user_c_span(c, any);
            if (s == nullptr) continue;
            for (TileOp& d : ir.ops) {
                const TileSpan* n = user_c_span(d, any);
                if (n != nullptr && d.phase == c.phase && n->gen == s->gen
                    && n->r0 == s->r1) {
                    ++s->r1;
                    return "IR_RACE_WW";
                }
            }
        }
        throw Error("apply_mutation: no step computes two bands");
    }
    case Mutation::kSplitWriteback: {
        // Claim a retiring band's closing read of user C as an item of its
        // own: it reads the rows while their compute may still write them.
        for (std::size_t i = 0; i < ir.ops.size(); ++i) {
            TileOp& f = ir.ops[i];
            TileSpan* closed = f.item >= 0 ? user_c_span(f, closes) : nullptr;
            if (closed == nullptr) continue;
            TileOp writeback = f;
            writeback.item = -1;
            writeback.dram_reload_bytes = 0;
            writeback.spans.assign(1, *closed);
            writeback.spans[0].access = Access::kRead;
            writeback.spans[0].creates_gen = false;
            closed->closes_gen = false;
            f.dram_read_bytes = 0;
            f.dram_write_bytes = 0;
            ir.ops.push_back(std::move(writeback));
            return "IR_RACE_RW";
        }
        throw Error("apply_mutation: no band retirement in this IR");
    }
    case Mutation::kShrinkGeneration: {
        // Collapse the double buffers: pack(t+1) recycles the very slot
        // compute(t) is still reading.
        if (ir.exec != Exec::kPipelined) {
            throw Error(
                "apply_mutation: shrink-generation needs a pipelined IR");
        }
        bool shrunk = false;
        for (std::size_t bi = 0; bi < ir.buffers.size(); ++bi) {
            Buffer& buf = ir.buffers[bi];
            if ((buf.kind == BufKind::kPackA
                 || buf.kind == BufKind::kPackB)
                && buf.slots > 1) {
                buf.slots = 1;
                shrunk = true;
                for (TileOp& op : ir.ops) {
                    for (TileSpan& s : op.spans) {
                        if (s.buffer == static_cast<int>(bi)) s.slot = 0;
                    }
                }
            }
        }
        if (!shrunk) {
            throw Error(
                "apply_mutation: IR has no double-buffered pack panel");
        }
        return "IR_LIFETIME";
    }
    case Mutation::kDropFlush: {
        // Lose a retiring compute: its band misses its last accumulation
        // and its write-back.
        for (std::size_t i = 0; i < ir.ops.size(); ++i) {
            if (user_c_span(ir.ops[i], closes) != nullptr) {
                ir.ops.erase(ir.ops.begin() + static_cast<std::ptrdiff_t>(i));
                return "IR_COVER";
            }
        }
        throw Error("apply_mutation: no band retirement in this IR");
    }
    }
    throw Error("apply_mutation: unknown mutation");
}

}  // namespace schedir
}  // namespace cake
