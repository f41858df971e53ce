// cake_verify: schedule-IR extraction + symbolic dataflow verification.
//
// Extracts the declarative schedule IR of a CAKE (serial or pipelined) or
// GOTO multiply — a dry run, no arithmetic — and statically proves exact
// cover, race freedom, double-buffer lifetime safety and the paper's Eq.-2
// IO accounting, cross-checking the byte totals against the src/memsim
// address stream. Exit code 0 iff every verified plan is clean; each
// violation prints one line with a stable IR_* code.
//
// Usage:
//   cake_verify --machine intel --shape 2000x2000x2000 --exec pipelined
//   cake_verify --kind ninner --exec serial --f64
//   cake_verify --sweep       (Table-2 presets x kinds x executors)
//   cake_verify --mutations   (every corruption rejected with its code)
//
// --numerics switches to the static numerics verifier
// (analysis/numerics.hpp): the same flags select the plan, but the proof
// is the per-plan floating-point error bound rather than the dataflow.
//   cake_verify --numerics [--dtype f32|f64|f16|bf16|i8]
//   cake_verify --numerics --sweep       (presets x {f32,f64,i8} x execs)
//   cake_verify --numerics --mutations   (numerics corruptions rejected)
//
// --locality switches to the static reuse-distance analyzer
// (analysis/locality.hpp): the proof is that the schedule's DRAM traffic
// obeys the typed stack-distance law, byte-exact against io_totals and
// (on the shallow-K f32 serial configs) the memsim address stream.
//   cake_verify --locality [--kind hilbert] [--exec serial]
//   cake_verify --locality --sweep       (presets x dtypes x all kinds)
//   cake_verify --locality --mutations   (locality corruptions rejected)
//
// --kernels switches to the kernel-IR static checker
// (analysis/kernelcheck.hpp): every registered micro-kernel (all ISAs x
// f32/f64/i8) is proved covered, spill-free and honestly modelled, and —
// where the host CPU can run it — lane-fingerprinted against the kernel
// binary.
//   cake_verify --kernels [--sweep]      (all registered kernels)
//   cake_verify --kernels --mutations    (kernel-IR corruptions rejected)
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/kernelcheck.hpp"
#include "analysis/locality.hpp"
#include "analysis/numerics.hpp"
#include "analysis/schedir.hpp"
#include "analysis/verify.hpp"
#include "cli.hpp"
#include "common/issue.hpp"
#include "core/fperror.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "kernel/kernel_ir.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"

namespace {

using cake::DtypeDesc;
using cake::index_t;
using cake::schedir::Exec;
using cake::schedir::ScheduleIR;

struct Options {
    std::string machine = "intel";
    int p = 0;  // 0 = all preset cores
    index_t mr = 6;
    index_t nr = 16;
    cake::GemmShape shape{2000, 2000, 2000};
    bool f64 = false;
    std::optional<index_t> mc;
    cake::ScheduleKind kind = cake::ScheduleKind::kKFirstSerpentine;
    Exec exec = Exec::kPipelined;
    bool memsim = false;
    bool sweep = false;
    bool mutations = false;
    bool numerics = false;
    bool locality = false;
    bool kernels = false;
    std::string dtype;  // empty = follow --f64
};

constexpr const char* kUsage =
    "usage: cake_verify [--machine intel|amd|arm|host] [--p N]\n"
    "                   [--mr N] [--nr N] [--shape MxNxK] [--f64]\n"
    "                   [--mc N]\n"
    "                   [--kind serpentine|noflip|ninner|hilbert|morton]\n"
    "                   [--exec serial|pipelined|goto] [--memsim]\n"
    "                   [--sweep] [--mutations]\n"
    "                   [--numerics [--dtype f32|f64|f16|bf16|i8]]\n"
    "                   [--locality] [--kernels]\n";

Options parse_args(const cake::cli::Args& cli)
{
    Options opt;
    for (int i = 1; i < cli.argc; ++i) {
        const std::string arg = cli.argv[i];
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
        } else if (arg == "--kind") {
            const std::string v = cli.next(i, "--kind");
            // Registry names first (the canonical spelling every consumer
            // shares), then the historical shorthands.
            if (const auto kind = cake::parse_schedule_kind(v)) {
                opt.kind = *kind;
            } else if (v == "serpentine") {
                opt.kind = cake::ScheduleKind::kKFirstSerpentine;
            } else if (v == "noflip") {
                opt.kind = cake::ScheduleKind::kKFirstNoFlip;
            } else if (v == "ninner") {
                opt.kind = cake::ScheduleKind::kNInnermost;
            } else {
                cli.error("unknown --kind '" + v + "'");
            }
        } else if (arg == "--exec") {
            const std::string v = cli.next(i, "--exec");
            if (v == "serial") {
                opt.exec = Exec::kSerial;
            } else if (v == "pipelined") {
                opt.exec = Exec::kPipelined;
            } else if (v == "goto") {
                opt.exec = Exec::kGoto;
            } else {
                cli.error("unknown --exec '" + v + "'");
            }
        } else if (arg == "--memsim") {
            opt.memsim = true;
        } else if (arg == "--sweep") {
            opt.sweep = true;
        } else if (arg == "--mutations") {
            opt.mutations = true;
        } else if (arg == "--numerics") {
            opt.numerics = true;
        } else if (arg == "--locality") {
            opt.locality = true;
        } else if (arg == "--kernels") {
            opt.kernels = true;
        } else if (arg == "--dtype") {
            opt.dtype = cli.next(i, "--dtype");
            if (cake::find_dtype(opt.dtype) == nullptr) {
                cli.error("unknown --dtype '" + opt.dtype + "'");
            }
        } else if (arg == "--help" || arg == "-h") {
            cli.error("help requested");
        } else {
            cli.error("unknown argument '" + arg + "'");
        }
    }
    return opt;
}

/// "<machine>  <dtype>  MxNxK  [<kind>  ]<exec>": the kind is omitted for
/// GOTO, which has no CB-block order.
std::string plan_label(const std::string& machine, const DtypeDesc& dtype,
                       const cake::GemmShape& shape, cake::ScheduleKind kind,
                       Exec exec)
{
    std::string label = machine;
    label += std::string("  ") + dtype.name + "  ";
    label += std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x"
        + std::to_string(shape.k);
    if (exec != Exec::kGoto) {
        label += std::string("  ") + cake::schedule_kind_name(kind);
    }
    label += std::string("  ") + cake::schedir::exec_name(exec);
    return label;
}

// --- Per-IR checks: one PASS/FAIL line plus the coded issues -------------

/// Dataflow: exact cover, race freedom, lifetimes and Eq.-2 IO totals,
/// optionally also against the memsim address stream.
bool verify_one(const std::string& label, const ScheduleIR& ir,
                const DtypeDesc& /*dtype*/, bool with_memsim)
{
    cake::schedir::VerifyReport report = cake::schedir::verify_schedule_ir(ir);
    if (with_memsim) {
        const cake::schedir::VerifyReport mem =
            cake::schedir::cross_check_memsim(ir);
        report.issues.insert(report.issues.end(), mem.issues.begin(),
                             mem.issues.end());
    }
    const cake::schedir::IoTotals io = cake::schedir::io_totals(ir);
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << label << "  ops="
              << ir.ops.size() << " phases=" << ir.num_phases
              << " io(rd=" << io.reads() << ",wr=" << io.writes() << ")"
              << (with_memsim ? "  [memsim]" : "") << "\n";
    cake::print_issues(std::cout, report.issues);
    return report.ok();
}

/// Numerics: the accumulation structure against `dtype`, printing the
/// derived per-plan error bound.
bool numerics_one(const std::string& label, const ScheduleIR& ir,
                  const DtypeDesc& dtype, bool /*with_memsim*/)
{
    const cake::numerics::NumericsReport report =
        cake::numerics::verify_numerics(ir, dtype);
    char bound[96];
    if (dtype.is_integer) {
        std::snprintf(bound, sizeof bound, "acc_range=%.0f i32_safe=%s",
                      report.bound.acc_range,
                      report.bound.i32_safe ? "yes" : "NO");
    } else {
        std::snprintf(bound, sizeof bound, "rel_bound=%.3e",
                      report.bound.rel_bound);
    }
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << label
              << "  depth=" << report.ir_fma_depth
              << " segs=" << report.ir_segments << " " << bound << "\n";
    cake::print_issues(std::cout, report.issues);
    return report.ok();
}

/// Locality: one CAKE IR's reuse structure, printing the predicted
/// traffic and LLC locality evidence. `with_memsim` chains the proof to
/// the memsim address stream (predicted == io_totals by LOC_TRAFFIC,
/// io_totals == trace by cross_check_memsim).
bool locality_one(const std::string& label, const ScheduleIR& ir,
                  const DtypeDesc& /*dtype*/, bool with_memsim)
{
    const cake::locality::LocalityReport rep =
        cake::locality::analyze_locality(ir);
    bool ok = rep.ok();
    std::cout << (ok ? "PASS" : "FAIL") << "  " << label << "  steps="
              << rep.steps << " shared=" << rep.shared_transitions << "/"
              << (rep.steps > 0 ? rep.steps - 1 : 0)
              << " rd=" << rep.predicted.reads()
              << " wr=" << rep.predicted.writes();
    if (!rep.levels.empty()) {
        const cake::locality::LevelStats& llc = rep.levels.back();
        std::cout << " " << llc.name << "(hit=" << llc.hits
                  << ",miss=" << llc.misses << ",cold=" << llc.cold << ")";
    }
    std::cout << (with_memsim ? "  [memsim]" : "") << "\n";
    cake::print_issues(std::cout, rep.issues);
    if (with_memsim) {
        const cake::schedir::VerifyReport mem =
            cake::schedir::cross_check_memsim(ir);
        ok &= mem.ok();
        cake::print_issues(std::cout, mem.issues);
    }
    return ok;
}

/// A per-IR check: prints one PASS/FAIL line labelled `label`.
using CheckFn = bool (*)(const std::string& label, const ScheduleIR& ir,
                         const DtypeDesc& dtype, bool with_memsim);

/// One IR-level verification pass: its per-IR check, its mutation gate
/// and the three facts that shape its sweep.
struct Pass {
    CheckFn check;
    bool (*mutations)();
    /// Precisions the sweep covers on both CAKE executors ...
    std::vector<const DtypeDesc*> dtypes;
    /// ... and those that also get a GOTO plan (empty: CAKE-only pass).
    std::vector<const DtypeDesc*> goto_dtypes;
    /// Chain to the memsim address stream on the shallow-K f32 cells (the
    /// CAKE serial plan and GOTO), where the full replay is cheap.
    bool memsim = false;
};

// --- Mutation gates --------------------------------------------------------

/// Small multi-column grid (forced mc) so every mutation has a site:
/// several C columns (flush/zero turnovers), kb >= 2 (double-buffer
/// handoffs) and p workers.
ScheduleIR mutation_subject(Exec exec)
{
    const cake::MachineSpec machine = cake::intel_i9_10900k();
    cake::TilingOptions topts;
    topts.mc = 48;
    const cake::GemmShape shape{1000, 1000, 200};
    if (exec == Exec::kGoto) {
        return cake::schedir::extract_goto_ir(
            shape, goto_default_blocking(machine, 6, 16), machine.cores, 6,
            16);
    }
    const cake::CbBlockParams params =
        cake::compute_cb_block(machine, machine.cores, 6, 16, topts);
    return cake::schedir::extract_cake_ir(shape, params,
                                          cake::ScheduleKind::kKFirstSerpentine,
                                          exec);
}

/// Corrupt `ir` with `mutate` (which returns the code it plants), re-check
/// it and print one verdict line naming `subject` and the mutation. With
/// `isolated`, the planted code must also be the only one reported.
template <typename Ir, typename Mutate, typename Check>
bool check_mutation(const std::string& subject, const char* mutation, Ir ir,
                    Mutate mutate, Check check,
                    const char* checker = "verifier", bool isolated = false)
{
    const std::string expected = mutate(ir);
    const cake::IssueList report = check(ir);
    const bool rejected =
        report.has(expected) && (!isolated || report.codes() == expected);
    std::cout << (rejected ? "PASS" : "FAIL") << "  " << subject << "  "
              << mutation << " -> expects "
              << (isolated ? "[" + expected + "] only" : expected) << ", "
              << checker << " reported ["
              << (report.ok() ? "clean" : report.codes()) << "]\n";
    return rejected;
}

/// The uncorrupted subject IRs of `execs` must check clean under `check`.
bool clean_subjects(CheckFn check, std::initializer_list<Exec> execs)
{
    bool all_ok = true;
    for (const Exec exec : execs) {
        all_ok &= check(std::string("clean ") + cake::schedir::exec_name(exec),
                        mutation_subject(exec), cake::dtype_f32(), false);
    }
    return all_ok;
}

/// Every dataflow mutation applied to a fresh pipelined IR (plus the
/// exec-agnostic ones to serial and GOTO IRs), each rejected with its
/// specific code.
bool dataflow_mutations()
{
    using cake::schedir::Mutation;
    bool all_ok = clean_subjects(
        verify_one, {Exec::kSerial, Exec::kPipelined, Exec::kGoto});
    auto check = [](Exec exec, Mutation m) {
        return check_mutation(
            cake::schedir::exec_name(exec), cake::schedir::mutation_name(m),
            mutation_subject(exec),
            [m](ScheduleIR& ir) {
                return cake::schedir::apply_mutation(ir, m);
            },
            cake::schedir::verify_schedule_ir);
    };
    for (const Mutation m :
         {Mutation::kDropOp, Mutation::kDupOp, Mutation::kReorderAccum,
          Mutation::kSeverZeroBarrier, Mutation::kSeverFlushBarrier,
          Mutation::kShrinkGeneration, Mutation::kDropFlush}) {
        all_ok &= check(Exec::kPipelined, m);
    }
    for (const Mutation m : {Mutation::kDropOp, Mutation::kDupOp}) {
        all_ok &= check(Exec::kSerial, m);
        all_ok &= check(Exec::kGoto, m);
    }
    return all_ok;
}

/// Every numerics corruption rejected with its specific code on every
/// executor that has a site for it.
bool numerics_mutations()
{
    using cake::numerics::NumMutation;
    bool all_ok = clean_subjects(
        numerics_one, {Exec::kSerial, Exec::kPipelined, Exec::kGoto});
    auto check = [](Exec exec, NumMutation m) {
        return check_mutation(
            cake::schedir::exec_name(exec),
            cake::numerics::num_mutation_name(m),
            mutation_subject(exec),
            [m](ScheduleIR& ir) {
                return cake::numerics::apply_numerics_mutation(ir, m);
            },
            [](const ScheduleIR& ir) {
                return cake::numerics::verify_numerics(ir, cake::dtype_f32());
            });
    };
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined, Exec::kGoto}) {
        all_ok &= check(exec, NumMutation::kDeepenAccum);
        all_ok &= check(exec, NumMutation::kLyingDtype);
    }
    // Generation turnover only exists on the CAKE executors (GOTO streams
    // C straight to the user surface — apply_numerics_mutation throws).
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        all_ok &= check(exec, NumMutation::kDropTurnover);
    }
    return all_ok;
}

/// Every locality corruption rejected with its specific code on both CAKE
/// executors (the analyzer is CAKE-only; GOTO has no block order).
bool locality_mutations()
{
    using cake::locality::LocMutation;
    bool all_ok =
        clean_subjects(locality_one, {Exec::kSerial, Exec::kPipelined});
    for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
        for (const LocMutation m :
             {LocMutation::kTwistOrder, LocMutation::kSkewFetch,
              LocMutation::kPhantomFetch, LocMutation::kInflateFlush}) {
            all_ok &= check_mutation(
                cake::schedir::exec_name(exec),
                cake::locality::loc_mutation_name(m), mutation_subject(exec),
                [m](ScheduleIR& ir) {
                    return cake::locality::apply_locality_mutation(ir, m);
                },
                [](const ScheduleIR& ir) {
                    return cake::locality::analyze_locality(ir);
                },
                "analyzer");
        }
    }
    return all_ok;
}

Pass dataflow_pass()
{
    return {verify_one, dataflow_mutations,
            {&cake::dtype_f32(), &cake::dtype_f64()},
            // the GOTO trace layer is f32-fixed
            {&cake::dtype_f32()},
            true};
}

Pass numerics_pass()
{
    const std::vector<const DtypeDesc*> all = {
        &cake::dtype_f32(), &cake::dtype_f64(), &cake::dtype_i8()};
    return {numerics_one, numerics_mutations, all, all, false};
}

Pass locality_pass()
{
    return {locality_one, locality_mutations,
            {&cake::dtype_f32(), &cake::dtype_f64()}, {}, true};
}

// --- Sweep and single-plan mode ---------------------------------------------

/// Every Table-2 preset x the pass's precisions x the sweep corpus x every
/// registered schedule kind x both CAKE executors, plus one GOTO plan per
/// shape for the precisions the pass runs GOTO on.
bool run_sweep(const Pass& pass)
{
    const std::vector<cake::ScheduleKind>& kinds = cake::all_schedule_kinds();
    bool all_ok = true;
    for (const cake::MachineSpec& machine : cake::table2_machines()) {
        for (const DtypeDesc* dtype : pass.dtypes) {
            cake::TilingOptions topts;
            topts.elem_bytes = dtype->elem_bytes;
            const index_t mr = cake::cli::kSweepMr;
            const index_t nr = cake::cli::sweep_nr(dtype->elem_bytes);
            const cake::CbBlockParams params = cake::compute_cb_block(
                machine, machine.cores, mr, nr, topts);
            const bool with_goto =
                std::find(pass.goto_dtypes.begin(), pass.goto_dtypes.end(),
                          dtype)
                != pass.goto_dtypes.end();
            for (const cake::GemmShape& shape : cake::cli::kSweepShapes) {
                const bool memsim_here = pass.memsim
                    && dtype == &cake::dtype_f32() && shape.k == 96;
                for (const cake::ScheduleKind kind : kinds) {
                    for (const Exec exec :
                         {Exec::kSerial, Exec::kPipelined}) {
                        // Trace replay once per plan: both executors model
                        // identical byte totals by construction.
                        all_ok &= pass.check(
                            plan_label(machine.name, *dtype, shape, kind,
                                       exec),
                            cake::schedir::extract_cake_ir(shape, params,
                                                           kind, exec),
                            *dtype, memsim_here && exec == Exec::kSerial);
                    }
                }
                if (with_goto) {
                    all_ok &= pass.check(
                        plan_label(machine.name, *dtype, shape, kinds[0],
                                   Exec::kGoto),
                        cake::schedir::extract_goto_ir(
                            shape, goto_default_blocking(machine, mr, nr),
                            machine.cores, mr, nr, /*accumulate=*/false,
                            dtype->elem_bytes),
                        *dtype, memsim_here);
                }
            }
        }
    }
    return all_ok;
}

/// The one plan the flags select: --dtype (else --f64) picks the
/// precision, --memsim chains f32 plans to the address stream.
bool run_single(const Pass& pass, const Options& opt,
                const cake::cli::Args& cli)
{
    if (opt.exec == Exec::kGoto && pass.goto_dtypes.empty()) {
        cli.error("--locality requires a CAKE exec (serial|pipelined)");
    }
    const cake::MachineSpec machine = cake::machine_by_name(opt.machine);
    const int p = opt.p > 0 ? opt.p : machine.cores;
    const DtypeDesc& dtype = *cake::find_dtype(
        opt.dtype.empty() ? (opt.f64 ? "f64" : "f32") : opt.dtype);
    ScheduleIR ir;
    if (opt.exec == Exec::kGoto) {
        ir = cake::schedir::extract_goto_ir(
            opt.shape, goto_default_blocking(machine, opt.mr, opt.nr), p,
            opt.mr, opt.nr, /*accumulate=*/false, dtype.elem_bytes);
    } else {
        cake::TilingOptions topts;
        topts.elem_bytes = dtype.elem_bytes;
        topts.mc = opt.mc;
        const cake::CbBlockParams params =
            cake::compute_cb_block(machine, p, opt.mr, opt.nr, topts);
        ir = cake::schedir::extract_cake_ir(opt.shape, params, opt.kind,
                                            opt.exec);
    }
    return pass.check(
        plan_label(machine.name, dtype, opt.shape, opt.kind, opt.exec), ir,
        dtype, pass.memsim && opt.memsim && &dtype == &cake::dtype_f32());
}

// --- Kernel-IR static verification (--kernels) --------------------------

/// Print one kernel's check result: the proven register budget, derived
/// chain depth, static peak and whether the binary fingerprint ran.
bool kernels_one(const cake::kernelcheck::KernelReport& report)
{
    char peak[32];
    std::snprintf(peak, sizeof peak, "%.1f", report.ops_per_cycle);
    std::cout << (report.ok() ? "PASS" : "FAIL") << "  " << report.kernel
              << "  " << report.family << "  " << cake::isa_name(report.isa)
              << "  " << report.mr << "x" << report.nr << "  regs="
              << report.regs_used << "/" << report.reg_budget
              << " chain=" << report.derived_chain << " peak=" << peak
              << " ops/cycle"
              << (report.fingerprinted ? "  [fingerprint]" : "") << "\n";
    cake::print_issues(std::cout, report.issues);
    return report.ok();
}

/// Check every registered kernel IR: symbolic obligations, registry
/// binding, and (host permitting) the binary lane fingerprint. Every
/// registry entry must also carry an IR — an unmodelled kernel fails.
bool run_kernels_sweep()
{
    bool all_ok = true;
    for (const cake::KernelIr& ir : cake::all_kernel_irs()) {
        all_ok &= kernels_one(cake::kernelcheck::check_kernel(ir));
    }
    // Completeness: a kernel in the registry without an IR would silently
    // escape every obligation above.
    std::vector<std::string> unmodelled;
    cake::for_each_microkernel([&](const auto& k) {
        if (cake::kernel_ir_for(k.name) == nullptr) unmodelled.push_back(k.name);
    });
    for (const std::string& name : unmodelled) {
        std::cout << "FAIL  " << name
                  << "  registered kernel has no IR descriptor\n";
        all_ok = false;
    }
    return all_ok;
}

/// Kernel mutation gate: every clean IR verifies clean, then every
/// corruption is rejected on every registered kernel with its specific
/// code and no other — a second code firing would mean the obligations
/// overlap.
bool run_kernels_mutations()
{
    using cake::kernelcheck::KirMutation;
    bool all_ok = true;
    for (const cake::KernelIr& ir : cake::all_kernel_irs()) {
        const cake::kernelcheck::KernelReport clean =
            cake::kernelcheck::verify_kernel_ir(ir);
        if (!clean.ok()) {
            all_ok &= kernels_one(clean);
            continue;
        }
        for (int i = 0; i < cake::kernelcheck::kKirMutationCount; ++i) {
            const auto m = static_cast<KirMutation>(i);
            all_ok &= check_mutation(
                ir.kernel, cake::kernelcheck::kir_mutation_name(m), ir,
                [m](cake::KernelIr& mutated) {
                    return cake::kernelcheck::apply_kernel_mutation(mutated,
                                                                    m);
                },
                cake::kernelcheck::verify_kernel_ir, "verifier",
                /*isolated=*/true);
        }
    }
    return all_ok;
}

}  // namespace

int main(int argc, char** argv)
{
    const cake::cli::Args cli{argc, argv, "cake_verify", kUsage};
    const Options opt = parse_args(cli);

    bool ok = false;
    try {
        if (opt.kernels) {
            // --sweep and the bare form are the same full check; the
            // kernel inventory is small enough to always verify whole.
            ok = opt.mutations ? run_kernels_mutations()
                               : run_kernels_sweep();
        } else {
            const Pass pass = opt.locality   ? locality_pass()
                              : opt.numerics ? numerics_pass()
                                             : dataflow_pass();
            ok = opt.sweep        ? run_sweep(pass)
                 : opt.mutations  ? pass.mutations()
                                  : run_single(pass, opt, cli);
        }
    } catch (const std::exception& e) {
        std::cerr << "cake_verify: " << e.what() << "\n";
        return 2;
    }
    return ok ? 0 : 1;
}
