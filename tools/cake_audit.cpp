// cake_audit: static invariant checker for CAKE schedule/tiling plans.
//
// Re-derives the paper's cache-capacity and bandwidth inequalities
// (§4.2 residency, §4.3 LRU rule, Eq. 2 alpha balance) plus the
// structural invariants the runtime relies on (pack-buffer capacity,
// schedule coverage) for a given machine x core-count x kernel x shape
// plan — without allocating panels or running a kernel. Exit code 0 iff
// every audited plan is clean; each violation prints one line with a
// stable code and both sides of the violated inequality.
//
// Usage:
//   cake_audit --machine intel --shape 2000x2000x2000
//   cake_audit --machine arm --p 4 --mr 6 --nr 16 --f64
//   cake_audit --machine intel --mc 600 --shape 2000x2000x2000   (corrupt)
//   cake_audit --sweep            (all Table-2 presets x shape classes)
#include <iostream>
#include <optional>
#include <string>

#include "cli.hpp"
#include "common/issue.hpp"
#include "core/audit.hpp"
#include "machine/machine.hpp"

namespace {

using cake::index_t;

struct Options {
    std::string machine = "intel";
    int p = 0;  // 0 = all preset cores
    index_t mr = 6;
    index_t nr = 16;
    cake::GemmShape shape{2000, 2000, 2000};
    bool f64 = false;
    std::optional<index_t> mc;
    std::optional<double> alpha;
    bool sweep = false;
};

constexpr const char* kUsage =
    "usage: cake_audit [--machine intel|amd|arm|host] [--p N]\n"
    "                  [--mr N] [--nr N] [--shape MxNxK]\n"
    "                  [--f64] [--mc N] [--alpha X] [--sweep]\n";

Options parse_args(int argc, char** argv)
{
    const cake::cli::Args cli{argc, argv, "cake_audit", kUsage};
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--machine") {
            opt.machine = cli.next(i, "--machine");
        } else if (arg == "--p") {
            opt.p = cli.integer(cli.next(i, "--p"), "--p");
        } else if (arg == "--mr") {
            opt.mr = cli.index(cli.next(i, "--mr"), "--mr");
        } else if (arg == "--nr") {
            opt.nr = cli.index(cli.next(i, "--nr"), "--nr");
        } else if (arg == "--shape") {
            opt.shape = cli.shape(cli.next(i, "--shape"));
        } else if (arg == "--f64") {
            opt.f64 = true;
        } else if (arg == "--mc") {
            opt.mc = cli.index(cli.next(i, "--mc"), "--mc");
        } else if (arg == "--alpha") {
            opt.alpha = cli.number(cli.next(i, "--alpha"), "--alpha");
        } else if (arg == "--sweep") {
            opt.sweep = true;
        } else if (arg == "--help" || arg == "-h") {
            cli.error("help requested");
        } else {
            cli.error("unknown argument '" + arg + "'");
        }
    }
    return opt;
}

/// Audit one plan; print PASS/FAIL plus per-issue diagnostics.
bool audit_one(const cake::MachineSpec& machine, int p, index_t mr,
               index_t nr, const cake::GemmShape& shape,
               const cake::TilingOptions& topts)
{
    const cake::AuditReport report =
        cake::audit_cb_plan(machine, p, mr, nr, shape, topts);
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << machine.name
              << "  p=" << p << "  " << mr << "x" << nr << "  "
              << (topts.elem_bytes == 8 ? "f64" : "f32") << "  " << shape.m
              << "x" << shape.n << "x" << shape.k;
    if (report.solver_ok) {
        std::cout << "  block=" << report.params.m_blk << "x"
                  << report.params.n_blk << "x" << report.params.k_blk
                  << " (mc=" << report.params.mc
                  << ", alpha=" << report.params.alpha << ")"
                  << "  grid=" << report.grid_mb << "x" << report.grid_nb
                  << "x" << report.grid_kb;
    }
    std::cout << "\n";
    cake::print_issues(std::cout, report.issues);
    return report.ok();
}

/// Audit all Table-2 presets across the sweep corpus (square, K-skewed,
/// N-panel) in both precisions.
bool run_sweep()
{
    bool all_ok = true;
    for (const cake::MachineSpec& machine : cake::table2_machines()) {
        for (const bool f64 : {false, true}) {
            cake::TilingOptions topts;
            topts.elem_bytes = f64 ? 8 : 4;
            for (const cake::GemmShape& shape : cake::cli::kSweepShapes) {
                all_ok &= audit_one(machine, machine.cores,
                                    cake::cli::kSweepMr,
                                    cake::cli::sweep_nr(topts.elem_bytes),
                                    shape, topts);
            }
        }
    }
    return all_ok;
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);

    bool ok = false;
    try {
        if (opt.sweep) {
            ok = run_sweep();
        } else {
            const cake::MachineSpec machine =
                cake::machine_by_name(opt.machine);
            cake::TilingOptions topts;
            topts.elem_bytes = opt.f64 ? 8 : 4;
            topts.mc = opt.mc;
            topts.alpha = opt.alpha;
            const int p = opt.p > 0 ? opt.p : machine.cores;
            ok = audit_one(machine, p, opt.mr, opt.nr, opt.shape, topts);
        }
    } catch (const std::exception& e) {
        std::cerr << "cake_audit: " << e.what() << "\n";
        return 2;
    }
    return ok ? 0 : 1;
}
