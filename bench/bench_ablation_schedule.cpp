// Ablation: block-schedule variants (§2.2). Compares the paper's K-first
// serpentine traversal against (i) the no-flip strawman the paper rejects
// ("no A or B surfaces would be reused") and (ii) an N-innermost order
// that spills partial results — on surface-fetch counts, modelled DRAM
// traffic, real driver traffic, and simulated cache traffic.
#include <iostream>

#include "common/csv.hpp"
#include "bench_io.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "machine/machine.hpp"
#include "kernel/registry.hpp"
#include "memsim/trace.hpp"
#include "model/throughput.hpp"
#include "pack/pack.hpp"

#include <numeric>

int main()
{
    using namespace cake;
    const MachineSpec intel = intel_i9_10900k();
    const int p = 4;
    const GemmShape shape{960, 960, 960};

    std::cout << "=== Ablation: block schedules on a "
              << shape.m << "^3 problem (Intel preset geometry, p=4) ===\n\n";

    // Force small blocks so the grid has many blocks in every dimension.
    // mc must align with both the model's 6-row kernel and whatever kernel
    // the host driver dispatches to.
    TilingOptions topts;
    topts.mc = std::lcm<index_t>(6, best_microkernel().mr) * 2;
    topts.alpha = 1.0;
    const CbBlockParams params = compute_cb_block(intel, p, 6, 16, topts);
    const index_t mb = ceil_div(shape.m, params.m_blk);
    const index_t nb = ceil_div(shape.n, params.n_blk);
    const index_t kb = ceil_div(shape.k, params.k_blk);
    std::cout << "CB grid: " << mb << " x " << nb << " x " << kb
              << " blocks of " << params.m_blk << " x " << params.k_blk
              << " x " << params.n_blk << "\n\n";

    ThreadPool pool(host_machine().cores);
    Rng rng(3);
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(shape.m, shape.n);

    Table table({"schedule", "A fetches", "B fetches", "C spills",
                 "model DRAM (MB)", "driver DRAM (MB)",
                 "memsim DRAM @2688^3, 4MiB LLC (MB)"});
    for (ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        const auto order = build_schedule(kind, mb, nb, kb);
        const auto st = schedule_traffic(kind, order);
        const auto traffic = model::cake_traffic(shape, params, kind);

        CakeOptions options;
        options.p = p;
        options.mc = topts.mc;
        options.alpha = topts.alpha;
        options.schedule = kind;
        CakeStats stats;
        cake_sgemm(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k,
                   pool, options, &stats);

        // The cache-simulator comparison uses an LLC-stressed variant
        // (4 MiB L3): with 20 MiB, partial-C revisits under n-innermost
        // are only 8 blocks apart and hide entirely in cache, masking the
        // schedule differences the model charges for.
        MachineSpec stressed = intel;
        stressed.caches.levels.back().size_bytes = 4 * 1024 * 1024;
        const GemmShape big{2688, 2688, 2688};
        const auto mem =
            memsim::simulate_cake_memory(stressed, p, big, topts, kind);

        table.add_row(
            {schedule_kind_name(kind), std::to_string(st.a_fetches),
             std::to_string(st.b_fetches), std::to_string(st.c_spills),
             format_number(static_cast<double>(traffic.total_bytes()) / 1e6,
                           4),
             format_number(static_cast<double>(stats.dram_read_bytes
                                               + stats.dram_write_bytes)
                               / 1e6,
                           4),
             format_number(mem.dram_gb() * 1e3, 4)});
    }
    bench::print_table(table, "ablation_schedule");
    std::cout
        << "\nShape check: the serpentine schedule fetches the fewest\n"
           "surfaces and never spills partial results; the no-flip variant\n"
           "loses reuse at every dimension turn; N-innermost pays the\n"
           "partial-result round trips the paper charges at 2x (§2.2).\n";
    return 0;
}
