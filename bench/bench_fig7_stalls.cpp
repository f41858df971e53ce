// Figure 7 reproduction: where the memory system spends its time.
//
//  (a) Intel i9-10900K, large square MM, all 10 cores: stall time
//      attributed to L1/L2/L3/DRAM for CAKE vs the GOTO baseline (the
//      paper's MKL). Paper result: CAKE stalls on *local* memory, MKL on
//      *main* memory.
//  (b) ARM Cortex-A53, square MM, 4 cores: cache hits and DRAM requests
//      for CAKE vs the GOTO baseline (the paper's ARMPL). Paper result:
//      ARMPL performs ~2.5x more DRAM requests.
//
// The paper measures 10000^2 (Intel) and 3000^2 (ARM) with PMU counters;
// we replay the executor's CAKE plan and its GOTO plan (goto_plan_params,
// ScheduleKind::kGoto) through the line-accurate cache simulator at
// proportionally scaled sizes (the hierarchy is simulated at
// full size, so per-level hit *shares* are preserved).
// Section (d) complements the simulation with *measured* host numbers: the
// wall-clock phase attribution (pack / compute / stall seconds) reported
// by CakeStats and GotoStats, with CAKE's packing overlap off and on and
// GOTO run as a plan of the same executor — the stall column is the time the block loop spent neither fetching
// nor computing, i.e. the host-visible analogue of the memory stalls above.
//
// Flags:
//   --trace-dir DIR  re-run each section (d) engine once under the src/obs
//                    tracer, write DIR/fig7d_<engine>.trace.json and add
//                    barrier-stall / trace columns ("-" when off)
#include <iostream>

#include "common/csv.hpp"
#include "bench_io.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "machine/machine.hpp"
#include "core/cake_gemm.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "memsim/trace.hpp"

int main(int argc, char** argv)
{
    using namespace cake;
    bench::TraceCapture capture = bench::TraceCapture::from_args(argc, argv);

    {
        std::cout << "=== Figure 7a: memory request stalls on Intel i9 "
                     "(CAKE vs GOTO/MKL) ===\n"
                  << "Scaled problem: 2304^3 (paper: 10000^3), p = 10.\n\n";
        const MachineSpec intel = intel_i9_10900k();
        const GemmShape shape{2304, 2304, 2304};
        Timer t;
        const auto cake = memsim::simulate_cake_memory(intel, 10, shape);
        const auto gto = memsim::simulate_goto_memory(intel, 10, shape);

        Table table({"engine", "L1 stall (Gcycles)", "L2 stall",
                     "L3 stall", "DRAM stall", "DRAM accesses (M)"});
        auto row = [&](const char* name, const memsim::TraceReport& r) {
            table.add_row({name, format_number(r.stalls.l1 / 1e9, 4),
                           format_number(r.stalls.l2 / 1e9, 4),
                           format_number(r.stalls.llc / 1e9, 4),
                           format_number(r.stalls.dram / 1e9, 4),
                           format_number(
                               static_cast<double>(r.counters.dram_accesses)
                                   / 1e6,
                               4)});
        };
        row("CAKE", cake);
        row("GOTO (MKL stand-in)", gto);
        bench::print_table(table, "fig7a_stalls_intel");
        const double ratio = static_cast<double>(gto.stalls.dram)
            / static_cast<double>(cake.stalls.dram);
        std::cout << "\nGOTO spends " << format_number(ratio, 3)
                  << "x more stall time on main memory than CAKE;\n"
                  << "CAKE's stalls concentrate in local memory (paper "
                     "Fig. 7a shape).  ["
                  << format_number(t.seconds(), 3) << " s]\n\n";
    }

    {
        std::cout << "=== Figure 7b: cache and DRAM accesses on ARM "
                     "Cortex-A53 (CAKE vs GOTO/ARMPL) ===\n"
                  << "Scaled problem: 768^3 (paper: 3000^3), p = 4.\n\n";
        const MachineSpec arm = arm_cortex_a53();
        const GemmShape shape{768, 768, 768};
        const auto cake = memsim::simulate_cake_memory(arm, 4, shape);
        const auto gto = memsim::simulate_goto_memory(arm, 4, shape);

        Table table({"engine", "L1 hits (M)", "L2 hits (M)",
                     "DRAM requests (M)"});
        auto row = [&](const char* name, const memsim::TraceReport& r) {
            table.add_row(
                {name,
                 format_number(static_cast<double>(r.counters.l1_hits) / 1e6,
                               5),
                 format_number(static_cast<double>(r.counters.llc_hits) / 1e6,
                               5),
                 format_number(
                     static_cast<double>(r.counters.dram_accesses) / 1e6,
                     5)});
        };
        row("CAKE", cake);
        row("GOTO (ARMPL stand-in)", gto);
        bench::print_table(table, "fig7b_accesses_arm");
        const double ratio = static_cast<double>(gto.counters.dram_accesses)
            / static_cast<double>(cake.counters.dram_accesses);
        std::cout << "\nGOTO performs " << format_number(ratio, 3)
                  << "x more DRAM requests than CAKE (paper reports ~2.5x "
                     "for ARMPL).\n\n";
    }

    {
        std::cout << "=== §4 visualised: DRAM traffic by operand region "
                     "(Intel, 2304^3, p=4; C exceeds the 20 MiB L3) "
                     "===\n\n";
        const MachineSpec intel = intel_i9_10900k();
        const GemmShape shape{2304, 2304, 2304};
        const memsim::AddressMap map;
        const std::uint64_t span = 1ULL << 32;
        auto regions = [&] {
            return std::vector<memsim::MemRegion>{
                {map.a, span, "A"},
                {map.b, span, "B"},
                {map.c, span, "C"},
                {map.pack_a, span, "packed A"},
                {map.pack_b, span, "packed B"}};
        };

        memsim::HierarchySim cake_sim(intel, 4);
        cake_sim.set_regions(regions());
        memsim::HierarchySink cake_sink(cake_sim);
        const CbBlockParams params = compute_cb_block(intel, 4, 6, 16);
        memsim::trace_cake(shape, params, ScheduleKind::kKFirstSerpentine,
                           cake_sink);

        memsim::HierarchySim goto_sim(intel, 4);
        goto_sim.set_regions(regions());
        memsim::HierarchySink goto_sink(goto_sim);
        memsim::trace_cake(shape, goto_plan_params(intel, 4, 6, 16),
                           ScheduleKind::kGoto, goto_sink);

        Table table({"region", "CAKE DRAM fills (K)", "GOTO DRAM fills (K)"});
        const auto cake_rows = cake_sim.dram_accesses_by_region();
        const auto goto_rows = goto_sim.dram_accesses_by_region();
        for (std::size_t r = 0; r < cake_rows.size(); ++r) {
            table.add_row(
                {cake_rows[r].first,
                 format_number(
                     static_cast<double>(cake_rows[r].second) / 1e3, 4),
                 format_number(
                     static_cast<double>(goto_rows[r].second) / 1e3, 4)});
        }
        bench::print_table(table, "fig7c_traffic_by_region");
        std::cout
            << "\nShape check: GOTO's dominant DRAM traffic is the C row —\n"
               "partial results streaming out and back once per kc pass\n"
               "(§4.1); CAKE's C traffic is the output written once, its\n"
               "remaining fills being the A/B input surfaces.\n";
    }

    {
        std::cout << "\n=== Figure 7d: measured host phase attribution "
                     "(wall-clock seconds per average core) ===\n\n";
        const int p = host_machine().cores;
        ThreadPool pool(p);
        Rng rng(1);
        // Five CB blocks along K at p = 4 on a 4-core host (cake_audit
        // --machine host --p 4 --mr 14 --nr 32 --shape 1024x1024x2048:
        // block 2016x2016x504, grid 1x1x5), so overlap on has blocks to
        // pack while others compute; a single-block shape packs only the
        // pipeline fill and always reads overlap eff 0.
        const GemmShape shape{1024, 1024, 2048};
        Matrix a(shape.m, shape.k);
        Matrix b(shape.k, shape.n);
        a.fill_random(rng);
        b.fill_random(rng);
        Matrix out(shape.m, shape.n);
        std::cout << "Problem: " << shape.m << " x " << shape.n << " x "
                  << shape.k << ", p = " << p << ".\n\n";

        Table table({"engine", "pack (ms)", "compute (ms)", "stall (ms)",
                     "total (ms)", "overlap eff",
                     "barrier/p (ms)", "trace"});
        // The measured run stays untraced; --trace-dir adds one traced
        // re-run per engine for the stall-attribution columns.
        auto trace_cols = [&](const bench::TraceResult& trace)
            -> std::pair<std::string, std::string> {
            if (!trace.captured) return {"-", "-"};
            return {format_number(trace.barrier_s / p * 1e3, 4), trace.path};
        };
        auto run_cake = [&](const char* label, const char* key,
                            CakeExec exec) -> double {
            CakeOptions opts;
            opts.exec = exec;
            CakeGemm gemm(pool, opts);
            gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(),
                          shape.n, shape.m, shape.n, shape.k);  // warm-up
            gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(),
                          shape.n, shape.m, shape.n, shape.k);
            const CakeStats s = gemm.stats();
            bench::TraceResult trace;
            if (capture.on()) {
                capture.begin();
                gemm.multiply(a.data(), shape.k, b.data(), shape.n,
                              out.data(), shape.n, shape.m, shape.n,
                              shape.k);
                trace = capture.end(std::string("fig7d_") + key);
            }
            const auto [barrier, path] = trace_cols(trace);
            table.add_row({label, format_number(s.pack_seconds * 1e3, 4),
                           format_number(s.compute_seconds * 1e3, 4),
                           format_number(s.stall_seconds * 1e3, 4),
                           format_number(s.total_seconds * 1e3, 4),
                           format_number(s.overlap_efficiency, 3), barrier,
                           path});
            return s.overlap_efficiency;
        };
        run_cake("CAKE overlap off", "cake_serial", CakeExec::kSerial);
        const double overlap_eff = run_cake(
            "CAKE overlap on", "cake_pipelined", CakeExec::kPipelined);
        {
            GotoGemm gemm(pool);
            gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(),
                          shape.n, shape.m, shape.n, shape.k);  // warm-up
            gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(),
                          shape.n, shape.m, shape.n, shape.k);
            const GotoStats s = gemm.stats();
            bench::TraceResult trace;
            if (capture.on()) {
                capture.begin();
                gemm.multiply(a.data(), shape.k, b.data(), shape.n,
                              out.data(), shape.n, shape.m, shape.n,
                              shape.k);
                trace = capture.end("fig7d_goto");
            }
            const auto [barrier, path] = trace_cols(trace);
            table.add_row({"GOTO (MKL stand-in)",
                           format_number(s.pack_seconds * 1e3, 4),
                           format_number(s.compute_seconds * 1e3, 4),
                           format_number(s.stall_seconds * 1e3, 4),
                           format_number(s.total_seconds * 1e3, 4),
                           format_number(s.overlap_efficiency, 3), barrier,
                           path});
        }
        bench::print_table(table, "fig7d_phase_attribution");
        std::cout
            << "\nShape check: the three phase columns decompose the "
               "wall time\n(pack + compute + stall ~= total); with "
               "overlap on, overlap eff > 0\nreports the share of packing "
               "co-issued with compute (hidden from the\ncritical path "
               "when spare hardware threads exist); the benchmark "
               "ledger's\ncore.overlap_eff, core.serial_gflops and "
               "threading.team_gflops\ncompare overlap off and on over "
               "its workloads (bench/ledger).\n";
        if (!(overlap_eff > 0)) {
            std::cout << "Shape check FAILED: CAKE overlap on reports "
                         "overlap eff 0, so no packing ran beside compute.\n";
            return 1;
        }
        std::cout << "Shape check holds: CAKE overlap on co-issued "
                  << format_number(overlap_eff, 3)
                  << " of its packing with compute.\n";
    }
    return 0;
}
