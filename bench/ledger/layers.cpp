// The per-layer pass of cake_ledger. Each metric is timed from outside,
// around calls into one module's public functions, at the plan geometry
// the timed window's CakeStats report. Metric names are <module>.<metric>;
// README.md gives the end-to-end metric each one should move.
#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/block_plan.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "kernel/kernel_int8.hpp"
#include "kernel/kernel_ir.hpp"
#include "kernel/registry.hpp"
#include "ledger.hpp"
#include "machine/bw_probe.hpp"
#include "machine/machine.hpp"
#include "model/kernel_peak.hpp"
#include "model/throughput.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "pack/pack.hpp"
#include "pack/pack_int8.hpp"

namespace ledger {
namespace {

/// Median rate, in work units per second, over 15 timed batches of `fn`.
/// The repetitions per batch are doubled until one batch takes >= 2 ms.
template <class Fn>
double median_rate(double work_per_rep, Fn&& fn)
{
    long reps = 1;
    for (;;) {
        cake::Timer t;
        for (long r = 0; r < reps; ++r) fn();
        if (t.seconds() >= 0.002 || reps >= (1L << 24)) break;
        reps *= 2;
    }
    std::vector<double> rates;
    for (int b = 0; b < 15; ++b) {
        cake::Timer t;
        for (long r = 0; r < reps; ++r) fn();
        rates.push_back(work_per_rep * static_cast<double>(reps) / t.seconds());
    }
    return cake::median(rates);
}

/// Effective core clock: the median of 21 bursts of a dependent chain of
/// 1-cycle register-register adds. The empty asm keeps every add in the
/// chain; the addend is a register the compiler cannot see the value of,
/// not an immediate, because some cores fold immediate adds at rename in
/// zero cycles.
double measure_clock_ghz()
{
    constexpr long kIters = 1L << 17;  // 8 adds each: ~0.5 ms per burst
    std::uint64_t y = 1;
    asm volatile("" : "+r"(y));
    std::vector<double> ghz;
    std::uint64_t x = 0;
    for (int burst = 0; burst < 21; ++burst) {
        cake::Timer t;
        for (long i = 0; i < kIters; ++i) {
#define LEDGER_ADD x += y; asm volatile("" : "+r"(x));
            LEDGER_ADD LEDGER_ADD LEDGER_ADD LEDGER_ADD
            LEDGER_ADD LEDGER_ADD LEDGER_ADD LEDGER_ADD
#undef LEDGER_ADD
        }
        ghz.push_back(8.0 * static_cast<double>(kIters) / t.seconds() / 1e9);
    }
    asm volatile("" : : "r"(x));
    return cake::median(ghz);
}

double ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

template <class T>
cake::AlignedBuffer<T> filled(std::size_t n, int lo, int hi, cake::Rng& rng)
{
    cake::AlignedBuffer<T> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<T>(
            lo + static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(hi - lo + 1))));
    }
    return buf;
}

/// kernel.*: the micro-kernel on one A/B sliver pair at depth `kc`,
/// repeated in place on one core, plus a half-size edge tile.
template <class F>
void kernel_metrics(index_t kc, double clock_ghz, Report& r)
{
    cake::Rng rng(7);
    double full = 0, edge = 0;
    std::string name;
    if constexpr (std::is_same_v<F, I8>) {
        const cake::Int8MicroKernel& k = cake::best_int8_microkernel();
        name = k.name;
        const index_t kq = cake::int8_kq(kc);
        const auto mr = static_cast<std::size_t>(k.mr);
        const auto nr = static_cast<std::size_t>(k.nr);
        const auto depth = static_cast<std::size_t>(kq * 4);
        // Small values: the in-place accumulation must not overflow i32.
        auto a = filled<std::uint8_t>(mr * depth, 0, 1, rng);
        auto b = filled<std::int8_t>(nr * depth, -1, 1, rng);
        cake::AlignedBuffer<std::int32_t> c(mr * nr, true), scratch(mr * nr);
        full = median_rate(2.0 * k.mr * k.nr * kq * 4, [&] {
            k.fn(kq, a.data(), b.data(), c.data(), k.nr, true);
        });
        const index_t em = (k.mr + 1) / 2, en = (k.nr + 1) / 2;
        edge = median_rate(2.0 * em * en * kq * 4, [&] {
            cake::run_int8_tile(k, kq, a.data(), b.data(), c.data(), k.nr, em,
                                en, true, scratch.data());
        });
    } else {
        const cake::MicroKernel& k = cake::best_microkernel();
        name = k.name;
        const auto mr = static_cast<std::size_t>(k.mr);
        const auto nr = static_cast<std::size_t>(k.nr);
        const auto depth = static_cast<std::size_t>(kc);
        auto a = filled<float>(mr * depth, -1, 1, rng);
        auto b = filled<float>(nr * depth, -1, 1, rng);
        cake::AlignedBuffer<float> c(mr * nr, true), scratch(mr * nr);
        full = median_rate(2.0 * k.mr * k.nr * kc, [&] {
            k.fn(kc, a.data(), b.data(), c.data(), k.nr, true);
        });
        const index_t em = (k.mr + 1) / 2, en = (k.nr + 1) / 2;
        edge = median_rate(2.0 * em * en * kc, [&] {
            cake::run_microkernel_tile(k, kc, a.data(), b.data(), c.data(),
                                       k.nr, em, en, true, scratch.data());
        });
    }
    const cake::KernelIr* ir = cake::kernel_ir_for(name);
    const double roof =
        ir != nullptr ? cake::model::kernel_peak_gflops(*ir, clock_ghz) : 0.0;
    r.notes.push_back("kernel " + name + " at kc " + std::to_string(kc));
    r.layer.push_back({"kernel.gflops_core", full / 1e9, "GFLOP/s"});
    r.layer.push_back({"kernel.roof_gflops_core", roof, "GFLOP/s"});
    r.layer.push_back({"kernel.roof_frac", ratio(full / 1e9, roof), "frac"});
    r.layer.push_back({"kernel.edge_gflops_core", edge / 1e9, "GFLOP/s"});
}

/// pack.*: one block's A and B panels packed, and one block's C surface
/// written back, on one core at the plan's edge-clipped block extents.
template <class F>
void pack_metrics(const Operands<F>& op, const GemmShape& s,
                  const cake::CbBlockParams& pp, double read_gbs_1t,
                  Report& r)
{
    const index_t mi = std::min(pp.m_blk, s.m);
    const index_t ki = std::min(pp.k_blk, s.k);
    const index_t ni = std::min(pp.n_blk, s.n);
    cake::AlignedBuffer<typename F::C> cbuf(static_cast<std::size_t>(mi * ni),
                                            true);
    cake::AlignedBuffer<typename F::C> cdst(static_cast<std::size_t>(mi * s.n));
    double a_bps = 0, b_bps = 0;
    const double a_bytes = static_cast<double>(mi * ki) * sizeof(typename F::A);
    const double b_bytes = static_cast<double>(ki * ni) * sizeof(typename F::B);
    if constexpr (std::is_same_v<F, I8>) {
        cake::AlignedBuffer<std::uint8_t> pa(static_cast<std::size_t>(
            cake::packed_a_int8_size(mi, ki, pp.mr)));
        cake::AlignedBuffer<std::int8_t> pb(static_cast<std::size_t>(
            cake::packed_b_int8_size(ki, ni, pp.nr)));
        a_bps = median_rate(a_bytes, [&] {
            cake::pack_a_panel_int8(op.a.data(), s.k, mi, ki, pp.mr,
                                    pa.data());
        });
        b_bps = median_rate(b_bytes, [&] {
            cake::pack_b_panel_int8(op.b.data(), s.n, ki, ni, pp.nr,
                                    pb.data());
        });
    } else {
        cake::AlignedBuffer<float> pa(
            static_cast<std::size_t>(cake::packed_a_size(mi, ki, pp.mr)));
        cake::AlignedBuffer<float> pb(
            static_cast<std::size_t>(cake::packed_b_size(ki, ni, pp.nr)));
        a_bps = median_rate(a_bytes, [&] {
            cake::pack_a_panel(op.a.data(), s.k, mi, ki, pp.mr, pa.data());
        });
        b_bps = median_rate(b_bytes, [&] {
            cake::pack_b_panel(op.b.data(), s.n, ki, ni, pp.nr, pb.data());
        });
    }
    const double flush_bps = median_rate(
        static_cast<double>(mi * ni) * sizeof(typename F::C), [&] {
            cake::unpack_c_block(cbuf.data(), mi, ni, cdst.data(), s.n, false);
        });
    r.notes.push_back("pack block " + std::to_string(mi) + "x"
                      + std::to_string(ki) + "x" + std::to_string(ni));
    r.layer.push_back({"pack.a_gbs", a_bps / 1e9, "GB/s"});
    r.layer.push_back({"pack.b_gbs", b_bps / 1e9, "GB/s"});
    r.layer.push_back(
        {"pack.b_read_frac", ratio(b_bps / 1e9, read_gbs_1t), "frac"});
    r.layer.push_back({"pack.flush_gbs", flush_bps / 1e9, "GB/s"});
}

/// core.plan_us: solver + schedule + block plan for every shape of the
/// cycle, with the MachineSpec built once outside the timing.
double plan_us(const std::vector<GemmShape>& shapes,
               const cake::CbBlockParams& pp)
{
    const cake::MachineSpec machine = cake::host_machine();
    cake::TilingOptions topts;
    topts.elem_bytes = 4;
    std::size_t sink = 0;
    const double rate = median_rate(static_cast<double>(shapes.size()), [&] {
        for (const GemmShape& s : shapes) {
            const cake::CbBlockParams p = cake::compute_cb_block(
                machine, pp.p, pp.mr, pp.nr, topts);
            cake::BlockPlanInputs in;
            in.params = p;
            in.m = s.m;
            in.n = s.n;
            in.k = s.k;
            in.ldc = s.n;
            in.nb = cake::ceil_div(s.n, p.n_blk);
            in.kb = cake::ceil_div(s.k, p.k_blk);
            in.double_buffer = true;
            const auto order = cake::build_schedule(
                cake::ScheduleKind::kKFirstSerpentine,
                cake::ceil_div(s.m, p.m_blk), in.nb, in.kb, s.n >= s.m);
            sink += cake::build_block_plan(order, in).steps.size();
        }
    });
    asm volatile("" : : "r"(sink));
    return 1e6 / rate;
}

/// threading.barrier_us: one TeamContext::barrier crossing of the full
/// team, timed by member 0 over 1000 crossings; median of 15 teams.
double barrier_us(cake::ThreadPool& pool)
{
    constexpr int kCrossings = 1000;
    std::vector<double> per;
    for (int rep = 0; rep < 15; ++rep) {
        double s = 0;
        pool.run_team(pool.size(), [&](cake::TeamContext& team, int tid) {
            team.barrier();
            cake::Timer t;
            for (int i = 0; i < kCrossings; ++i) team.barrier();
            if (tid == 0) s = t.seconds();
        });
        per.push_back(s / kCrossings * 1e6);
    }
    return cake::median(per);
}

/// The calls of `ctx` over about `seconds`, after a warm-up pass over the
/// cycle; every call is counted and sampled like the window.
template <class F, class Ctx>
Samples ablation(Ctx& ctx, const LayerInputs<F>& in, double seconds)
{
    for (std::size_t i = 0; i < in.op.shapes.size(); ++i) {
        (void)in.chk.call(ctx, in.op, i, true);
    }
    Samples out(std::size_t{1} << 16);
    run_loop(ctx, in.op, seconds, in.chk, in.probe, out, no_hook);
    return out;
}

/// Measured ops per call-second of `ctx`, as ablation() runs it.
template <class F, class Ctx>
double ablation_gops(Ctx& ctx, const LayerInputs<F>& in, double seconds)
{
    const Samples out = ablation(ctx, in, seconds);
    return out.gops(in.op.shapes, out.seconds());
}

}  // namespace

template <class F>
void run_layers(const LayerInputs<F>& in, Report& r)
{
    const std::vector<GemmShape>& shapes = in.op.shapes;
    const std::size_t rep = representative_shape(shapes);
    const GemmShape& s = shapes[rep];
    const cake::CbBlockParams& pp = in.per_shape[rep].params;
    const Samples& win = in.window;
    const double win_gops = win.gops(shapes, win.seconds());
    const double ablation_s = 0.6;

    // The threading layer and the p = 4 ablations run on their own team.
    cake::ThreadPool team(kLayerWidth);
    cake::CakeOptions team_opts;
    team_opts.p = kLayerWidth;
    typename F::Ctx team_ctx(team, team_opts);

    // machine.*: denominators first, so the roofs rest on this run's clock.
    const double clock = measure_clock_ghz();
    const std::size_t llc = cake::host_machine().llc_bytes();
    const std::size_t scan_total = 4 * llc;
    const double read_1t =
        cake::measure_scan_bandwidth_gbs(team, 1, scan_total, 2);
    const double read_p = cake::measure_scan_bandwidth_gbs(
        team, kLayerWidth, scan_total / kLayerWidth, 2);
    r.notes.push_back("scan arrays: " + std::to_string(scan_total >> 20)
                      + " MiB at 1 thread, " + std::to_string(kLayerWidth)
                      + " x "
                      + std::to_string((scan_total / kLayerWidth) >> 20)
                      + " MiB at p; LLC " + std::to_string(llc >> 20)
                      + " MiB");
    r.notes.push_back("plan geometry p=" + std::to_string(pp.p)
                      + " mc=" + std::to_string(pp.mc)
                      + " kc=" + std::to_string(pp.kc)
                      + " m_blk=" + std::to_string(pp.m_blk)
                      + " n_blk=" + std::to_string(pp.n_blk) + " for "
                      + std::to_string(s.m) + "x" + std::to_string(s.n) + "x"
                      + std::to_string(s.k));

    kernel_metrics<F>(std::min(pp.k_blk, s.k), clock, r);
    pack_metrics(in.op, s, pp, read_1t, r);

    // core.*: phase shares are medians over the timed window's calls.
    const std::vector<PhaseSplit>& ph = in.phases;
    auto med = [&](double PhaseSplit::*field) {
        std::vector<double> xs;
        xs.reserve(ph.size());
        for (const PhaseSplit& x : ph) xs.push_back(x.*field);
        return cake::median(xs);
    };
    double ops = 0, compute_s = 0;
    for (std::size_t i = 0; i < std::min(ph.size(), win.count); ++i) {
        ops += shapes[win.shape[i]].flops();
        compute_s += ph[i].compute_s;
    }
    long a_packs = 0, b_packs = 0, c_flushes = 0;
    double dram_bytes = 0, cycle_ops = 0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const cake::CakeStats& st = in.per_shape[i];
        a_packs += st.a_packs;
        b_packs += st.b_packs;
        c_flushes += st.c_flushes;
        dram_bytes +=
            static_cast<double>(st.dram_read_bytes + st.dram_write_bytes);
        cycle_ops += shapes[i].flops();
    }
    cake::CakeOptions serial_opts = team_opts;
    serial_opts.exec = cake::CakeExec::kSerial;
    typename F::Ctx serial(team, serial_opts);
    const double serial_gops = ablation_gops(serial, in, ablation_s);

    r.layer.push_back({"core.pack_share", med(&PhaseSplit::pack), "frac"});
    r.layer.push_back(
        {"core.compute_share", med(&PhaseSplit::compute), "frac"});
    r.layer.push_back({"core.flush_share", med(&PhaseSplit::flush), "frac"});
    r.layer.push_back({"core.stall_share", med(&PhaseSplit::stall), "frac"});
    r.layer.push_back(
        {"core.overlap_eff", med(&PhaseSplit::overlap), "frac"});
    r.layer.push_back({"core.compute_gflops_core",
                       ratio(ops, compute_s * pp.p) / 1e9, "GFLOP/s"});
    r.layer.push_back({"core.plan_us", plan_us(shapes, pp), "us"});
    r.layer.push_back({"core.serial_gflops", serial_gops, "GFLOP/s"});
    r.layer.push_back(
        {"core.a_packs", static_cast<double>(a_packs), "count"});
    r.layer.push_back(
        {"core.b_packs", static_cast<double>(b_packs), "count"});
    r.layer.push_back(
        {"core.c_flushes", static_cast<double>(c_flushes), "count"});
    r.layer.push_back({"core.dram_bytes_per_flop",
                       ratio(dram_bytes, cycle_ops), "B/FLOP"});

    // threading.*: the window's team is the caller alone, so the team
    // layer is measured on the p = 4 team.
    const double dispatch_us = 1e6 / median_rate(1.0, [&] {
        team.run_team(kLayerWidth, [](cake::TeamContext&, int) {});
    });
    const Samples untraced = ablation(team_ctx, in, 2 * ablation_s);
    const double team_gops = untraced.gops(shapes, untraced.seconds());

    // gotoblas.*: same kernels and team width, reference only (f32 has
    // GOTO).
    if constexpr (std::is_same_v<F, F32>) {
        cake::ThreadPool one(kThreads);
        cake::GotoOptions go;
        go.p = kThreads;
        cake::GotoGemm gotoblas(one, go);
        const double goto_gops = ablation_gops(gotoblas, in, ablation_s);
        r.reference.push_back({"gotoblas.gflops", goto_gops, "GFLOP/s"});
        r.reference.push_back(
            {"gotoblas.cake_ratio", ratio(win_gops, goto_gops), "x"});
    }

    // model.pred_ratio: predicted over measured median seconds, per shape.
    std::vector<double> pred_ratio;
    cake::TilingOptions topts;
    topts.elem_bytes = 4;
    const std::vector<double> measured = win.shape_medians(shapes.size());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        if (measured[i] <= 0) continue;
        const cake::model::Prediction pred = cake::model::predict_cake(
            cake::host_machine(), pp.p, shapes[i], {pp.mr, pp.nr}, topts);
        pred_ratio.push_back(pred.seconds / measured[i]);
    }

    // Traced pass: the src/obs tracer armed through its public API, on the
    // p = 4 team so that barrier waits exist. No end-to-end number comes
    // from here.
    cake::obs::reset();
    cake::obs::enable(std::size_t{1} << 13);  // newest events per thread
    cake::obs::ensure_thread_ring();
    team.run(kLayerWidth, [](int) { cake::obs::ensure_thread_ring(); });
    Samples traced(std::size_t{1} << 16);
    run_loop(team_ctx, in.op, in.seconds / 10, in.chk, in.probe, traced,
             no_hook);
    cake::obs::disable();
    const cake::obs::TraceDump dump = cake::obs::collect();
    const cake::obs::ProfileReport prof = cake::obs::profile(dump);
    double barrier_s = 0, busy_s = 0;
    for (const cake::obs::WorkerProfile& w : prof.workers) {
        barrier_s += w.barrier_s;
        busy_s += w.busy_s();
    }
    const double barrier_share = ratio(barrier_s, barrier_s + busy_s);
    const double traced_p50 = quantile(traced.seconds(), 0.5);
    r.notes.push_back("traced pass: " + std::to_string(traced.count)
                      + " calls, " + std::to_string(prof.total_events)
                      + " events kept, " + std::to_string(prof.total_dropped)
                      + " dropped");
    if (!in.trace_dir.empty()) {
        const std::string path =
            in.trace_dir + "/" + in.spec.name + ".perfetto.json";
        if (!cake::obs::write_perfetto_json_file(dump, path)) {
            throw cake::Error("cannot write " + path);
        }
        r.notes.push_back("perfetto trace " + path);
    }
    cake::obs::reset();

    r.layer.push_back({"threading.dispatch_us", dispatch_us, "us"});
    r.layer.push_back({"threading.barrier_us", barrier_us(team), "us"});
    r.layer.push_back(
        {"threading.barrier_wait_share", barrier_share, "frac"});
    r.layer.push_back({"threading.team_gflops", team_gops, "GFLOP/s"});
    r.layer.push_back({"threading.scaling_eff",
                       ratio(team_gops, kLayerWidth * win_gops), "frac"});
    r.layer.push_back({"machine.clock_ghz", clock, "GHz"});
    r.layer.push_back({"machine.read_gbs_1t", read_1t, "GB/s"});
    r.layer.push_back({"machine.read_gbs_p", read_p, "GB/s"});
    r.layer.push_back({"machine.probe_ms",
                       cake::median(win.probe_s) * 1e3, "ms"});
    r.layer.push_back(
        {"model.pred_ratio", cake::median(pred_ratio), "x"});
    r.layer.push_back({"obs.trace_overhead",
                       traced_p50 / quantile(untraced.seconds(), 0.5) - 1,
                       "frac"});
}

template void run_layers<F32>(const LayerInputs<F32>&, Report&);
template void run_layers<I8>(const LayerInputs<I8>&, Report&);

}  // namespace ledger
