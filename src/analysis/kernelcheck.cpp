#include "analysis/kernelcheck.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "kernel/kernel_int8.hpp"
#include "kernel/microkernel.hpp"
#include "kernel/registry.hpp"
#include "model/kernel_peak.hpp"

namespace cake {
namespace kernelcheck {
namespace {

void add_issue(KernelReport& report, const std::string& code,
               const std::string& message)
{
    report.issues.push_back({code, message});
}

// --- symbolic obligations ------------------------------------------------

/// KIR_MALFORMED: geometry positive and every index inside its declared
/// range. Returns false when the IR is too broken for the later
/// obligations to interpret it (they are skipped then).
bool check_malformed(const KernelIr& ir, KernelReport& report)
{
    std::ostringstream bad;
    auto complain = [&bad](const std::string& what) {
        if (bad.tellp() > 0) bad << "; ";
        bad << what;
    };
    if (ir.mr < 1 || ir.nr < 1) complain("mr/nr must be positive");
    if (ir.lanes < 1) complain("lanes must be positive");
    if (ir.lanes > ir.nr) complain("lanes wider than the tile");
    if (ir.quad < 1) complain("quad must be positive");
    if (ir.acc_regs < 1) complain("no accumulators declared");
    if (ir.reg_budget < 1) complain("no register budget declared");
    if (ir.fmas.empty()) complain("empty FMA list");
    if (ir.stores.empty()) complain("empty store map");
    if (bad.tellp() > 0) {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "': " + bad.str());
        return false;
    }
    bool ranges_ok = true;
    for (std::size_t i = 0; i < ir.fmas.size(); ++i) {
        const KirFma& f = ir.fmas[i];
        if (f.acc < 0 || f.acc >= ir.acc_regs || f.a_row < 0
            || f.a_row >= static_cast<int>(ir.mr) || f.b_col < 0
            || f.b_col + ir.lanes > static_cast<int>(ir.nr)) {
            add_issue(report, "KIR_MALFORMED",
                      "kernel '" + ir.kernel + "': fma #"
                          + std::to_string(i) + " (acc="
                          + std::to_string(f.acc) + ", a_row="
                          + std::to_string(f.a_row) + ", b_col="
                          + std::to_string(f.b_col)
                          + ") indexes outside the declared geometry");
            ranges_ok = false;
        }
    }
    for (std::size_t i = 0; i < ir.stores.size(); ++i) {
        const KirStore& s = ir.stores[i];
        if (s.acc < 0 || s.acc >= ir.acc_regs || s.row < 0
            || s.row >= static_cast<int>(ir.mr) || s.col < 0
            || s.col + ir.lanes > static_cast<int>(ir.nr)) {
            add_issue(report, "KIR_MALFORMED",
                      "kernel '" + ir.kernel + "': store #"
                          + std::to_string(i) + " (acc="
                          + std::to_string(s.acc) + ", row="
                          + std::to_string(s.row) + ", col="
                          + std::to_string(s.col)
                          + ") indexes outside the declared geometry");
            ranges_ok = false;
        }
    }
    return ranges_ok;
}

/// KIR_COVER / KIR_DUP: the store map writes every tile element exactly
/// once.
void check_cover(const KernelIr& ir, KernelReport& report)
{
    std::vector<int> count(
        static_cast<std::size_t>(ir.mr * ir.nr), 0);
    for (const KirStore& s : ir.stores) {
        for (int l = 0; l < ir.lanes; ++l) {
            ++count[static_cast<std::size_t>(s.row) * ir.nr
                    + static_cast<std::size_t>(s.col + l)];
        }
    }
    int missing = 0;
    int duplicated = 0;
    int first_missing = -1;
    int first_dup = -1;
    for (std::size_t e = 0; e < count.size(); ++e) {
        if (count[e] == 0) {
            ++missing;
            if (first_missing < 0) first_missing = static_cast<int>(e);
        } else if (count[e] > 1) {
            ++duplicated;
            if (first_dup < 0) first_dup = static_cast<int>(e);
        }
    }
    if (missing > 0) {
        add_issue(report, "KIR_COVER",
                  "kernel '" + ir.kernel + "': " + std::to_string(missing)
                      + " of " + std::to_string(ir.mr * ir.nr)
                      + " C elements never stored (first gap C("
                      + std::to_string(first_missing / ir.nr) + ","
                      + std::to_string(first_missing % ir.nr) + "))");
    }
    if (duplicated > 0) {
        add_issue(report, "KIR_DUP",
                  "kernel '" + ir.kernel + "': " + std::to_string(duplicated)
                      + " C elements stored more than once (first C("
                      + std::to_string(first_dup / ir.nr) + ","
                      + std::to_string(first_dup % ir.nr)
                      + ")) — accumulate would double-add them");
    }
}

/// KIR_ACC: per-store symbolic dataflow. Lane l of a stored accumulator
/// must receive, per k-step, exactly the term a(row, p) * b(p, col + l)
/// — one FMA with the matching broadcast row and B slice, none foreign.
void check_acc(const KernelIr& ir, KernelReport& report)
{
    for (std::size_t i = 0; i < ir.stores.size(); ++i) {
        const KirStore& s = ir.stores[i];
        int matching = 0;
        int foreign = 0;
        const KirFma* wrong = nullptr;
        for (const KirFma& f : ir.fmas) {
            if (f.acc != s.acc) continue;
            if (f.a_row == s.row && f.b_col == s.col) {
                ++matching;
            } else {
                ++foreign;
                if (wrong == nullptr) wrong = &f;
            }
        }
        if (matching == 1 && foreign == 0) continue;
        std::ostringstream msg;
        msg << "kernel '" << ir.kernel << "': store #" << i << " (acc "
            << s.acc << " -> C(" << s.row << "," << s.col << "..)) needs"
            << " exactly the term a(" << s.row << ",p)*b(p," << s.col
            << "+l) but its accumulator receives " << matching
            << " matching and " << foreign << " foreign terms per k-step";
        if (wrong != nullptr) {
            msg << " (e.g. a(" << wrong->a_row << ",p)*b(p," << wrong->b_col
                << "+l))";
        }
        add_issue(report, "KIR_ACC", msg.str());
    }
}

/// KIR_SPILL: the release-side budget arithmetic, surfaced as an issue.
void check_spill(const KernelIr& ir, KernelReport& report)
{
    std::string why;
    if (!kir_spill_free(ir, &why)) add_issue(report, "KIR_SPILL", why);
}

/// KIR_THROUGHPUT: the declared chain depth must equal the depth the FMA
/// list actually implies, so the peak bound divides by the truth.
void check_throughput(const KernelIr& ir, KernelReport& report)
{
    std::map<int, int> updates;
    for (const KirFma& f : ir.fmas) ++updates[f.acc];
    int derived = 1;
    for (const auto& [acc, n] : updates) derived = std::max(derived, n);
    report.derived_chain = derived;
    if (ir.chain_updates != derived) {
        add_issue(report, "KIR_THROUGHPUT",
                  "kernel '" + ir.kernel + "': declares "
                      + std::to_string(ir.chain_updates)
                      + " sequential accumulator updates per k-step but its"
                        " FMA list implies "
                      + std::to_string(derived)
                      + " — the static peak bound would be wrong");
    }
}

// --- lane-fingerprint equivalence ---------------------------------------

// Exactly-representable unique-value inputs: small distinct integers, so
// float accumulation is exact (sums stay far below 2^24) and any index
// confusion in the IR or the binary shifts at least one lane's value.

double f_a_val(index_t i, index_t p)
{
    return 1.0 + 3.0 * static_cast<double>(i) + 37.0 * static_cast<double>(p);
}
double f_b_val(index_t p, index_t j)
{
    return 2.0 + 5.0 * static_cast<double>(j) + 41.0 * static_cast<double>(p);
}

/// The IR's symbolic result for C(row, col+l) at depth kc, evaluated over
/// the term algebra in double (exact for these inputs).
double ir_expected_float(const KernelIr& ir, const KirStore& s, int lane,
                         index_t kc)
{
    double sum = 0;
    for (index_t p = 0; p < kc; ++p) {
        for (const KirFma& f : ir.fmas) {
            if (f.acc != s.acc) continue;
            sum += f_a_val(f.a_row, p) * f_b_val(p, f.b_col + lane);
        }
    }
    return sum;
}

template <typename T>
void fingerprint_float(const KernelIr& ir, const MicroKernelT<T>& kernel,
                       KernelReport& report)
{
    const index_t mr = ir.mr;
    const index_t nr = ir.nr;
    const T sentinel = static_cast<T>(-987654);
    for (const index_t kc : {index_t{1}, index_t{3}, index_t{7}}) {
        AlignedBuffer<T> a(static_cast<std::size_t>(mr * kc));
        AlignedBuffer<T> b(static_cast<std::size_t>(nr * kc));
        for (index_t p = 0; p < kc; ++p) {
            for (index_t i = 0; i < mr; ++i)
                a[static_cast<std::size_t>(p * mr + i)] =
                    static_cast<T>(f_a_val(i, p));
            for (index_t j = 0; j < nr; ++j)
                b[static_cast<std::size_t>(p * nr + j)] =
                    static_cast<T>(f_b_val(p, j));
        }
        // Expected tile from the IR's term algebra (cover is exact — the
        // symbolic pass ran clean before fingerprinting).
        std::vector<double> expected(static_cast<std::size_t>(mr * nr), 0);
        for (const KirStore& s : ir.stores) {
            for (int l = 0; l < ir.lanes; ++l) {
                expected[static_cast<std::size_t>(s.row) * nr
                         + static_cast<std::size_t>(s.col + l)] =
                    ir_expected_float(ir, s, l, kc);
            }
        }

        AlignedBuffer<T> c(static_cast<std::size_t>(mr * nr));
        // Overwrite path: every lane must land exactly on the symbolic
        // value, clobbering the sentinel.
        for (std::size_t e = 0; e < c.size(); ++e) c[e] = sentinel;
        kernel.fn(kc, a.data(), b.data(), c.data(), nr, false);
        for (index_t i = 0; i < mr && report.ok(); ++i) {
            for (index_t j = 0; j < nr; ++j) {
                const T want = static_cast<T>(
                    expected[static_cast<std::size_t>(i * nr + j)]);
                const T got = c[static_cast<std::size_t>(i * nr + j)];
                if (got != want) {
                    std::ostringstream msg;
                    msg << "kernel '" << ir.kernel << "' binary disagrees"
                        << " with its IR at C(" << i << "," << j
                        << ") kc=" << kc << " (overwrite): binary " << got
                        << ", symbolic " << want;
                    add_issue(report, "KIR_BINARY", msg.str());
                    break;
                }
            }
        }
        if (!report.ok()) return;

        // Accumulate path: a distinct preload must survive the update.
        for (index_t i = 0; i < mr; ++i)
            for (index_t j = 0; j < nr; ++j)
                c[static_cast<std::size_t>(i * nr + j)] =
                    static_cast<T>(i * nr + j + 1);
        kernel.fn(kc, a.data(), b.data(), c.data(), nr, true);
        for (index_t i = 0; i < mr && report.ok(); ++i) {
            for (index_t j = 0; j < nr; ++j) {
                const T want = static_cast<T>(
                    static_cast<double>(i * nr + j + 1)
                    + expected[static_cast<std::size_t>(i * nr + j)]);
                const T got = c[static_cast<std::size_t>(i * nr + j)];
                if (got != want) {
                    std::ostringstream msg;
                    msg << "kernel '" << ir.kernel << "' binary disagrees"
                        << " with its IR at C(" << i << "," << j
                        << ") kc=" << kc << " (accumulate): binary " << got
                        << ", symbolic " << want;
                    add_issue(report, "KIR_BINARY", msg.str());
                    break;
                }
            }
        }
        if (!report.ok()) return;

        // Edge-tile path: an (mr-1) x (nr-1) tile through the scratch
        // wrapper must write exactly the live region.
        if (kc == 3 && mr > 1 && nr > 1) {
            const index_t m = mr - 1;
            const index_t n = nr - 1;
            AlignedBuffer<T> scratch(static_cast<std::size_t>(mr * nr));
            for (std::size_t e = 0; e < c.size(); ++e) c[e] = sentinel;
            run_microkernel_tile(kernel, kc, a.data(), b.data(), c.data(),
                                 nr, m, n, /*accumulate=*/false,
                                 scratch.data());
            for (index_t i = 0; i < mr && report.ok(); ++i) {
                for (index_t j = 0; j < nr; ++j) {
                    const bool live = i < m && j < n;
                    const T want = live
                        ? static_cast<T>(
                              expected[static_cast<std::size_t>(i * nr + j)])
                        : sentinel;
                    const T got = c[static_cast<std::size_t>(i * nr + j)];
                    if (got != want) {
                        std::ostringstream msg;
                        msg << "kernel '" << ir.kernel
                            << "' edge tile (m=" << m << ", n=" << n
                            << ") " << (live ? "disagrees with the IR"
                                             : "wrote outside the live"
                                               " region")
                            << " at C(" << i << "," << j << "): binary "
                            << got << ", symbolic " << want;
                        add_issue(report, "KIR_BINARY", msg.str());
                        break;
                    }
                }
            }
            if (!report.ok()) return;
        }
    }
}

// int8 family: reduction index r = 4q + d. The saturation-edge round
// drives the vpmaddubsw pairs to their extreme exact values (a = 127,
// |b| <= 128: |pair| <= 32512 < 2^15, so the int16 stage never clips).

std::uint8_t i8_a_val(index_t i, index_t r, bool edge)
{
    if (edge) return 127;
    return static_cast<std::uint8_t>((1 + 5 * i + 11 * r) % 128);
}

std::int8_t i8_b_val(index_t r, index_t j, bool edge)
{
    if (edge) return (r + j) % 2 == 0 ? static_cast<std::int8_t>(-128)
                                      : static_cast<std::int8_t>(127);
    return static_cast<std::int8_t>(
        static_cast<int>((2 + 7 * j + 13 * r) % 255) - 127);
}

std::int64_t ir_expected_i8(const KernelIr& ir, const KirStore& s, int lane,
                            index_t kq, bool edge)
{
    std::int64_t sum = 0;
    for (index_t q = 0; q < kq; ++q) {
        for (const KirFma& f : ir.fmas) {
            if (f.acc != s.acc) continue;
            for (index_t d = 0; d < static_cast<index_t>(ir.quad); ++d) {
                const index_t r = q * ir.quad + d;
                sum += static_cast<std::int64_t>(i8_a_val(f.a_row, r, edge))
                    * i8_b_val(r, f.b_col + lane, edge);
            }
        }
    }
    return sum;
}

void fingerprint_i8(const KernelIr& ir, const Int8MicroKernel& kernel,
                    KernelReport& report)
{
    const index_t mr = ir.mr;
    const index_t nr = ir.nr;
    const std::int32_t sentinel = -987654;
    struct Round {
        index_t kq;
        bool edge_values;
    };
    for (const Round round : {Round{1, false}, Round{2, true},
                              Round{5, false}}) {
        const index_t kq = round.kq;
        const bool edge = round.edge_values;
        AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(mr * kq * 4));
        AlignedBuffer<std::int8_t> b(static_cast<std::size_t>(nr * kq * 4));
        for (index_t q = 0; q < kq; ++q) {
            for (index_t i = 0; i < mr; ++i)
                for (index_t d = 0; d < 4; ++d)
                    a[static_cast<std::size_t>(q * mr * 4 + i * 4 + d)] =
                        i8_a_val(i, q * 4 + d, edge);
            for (index_t j = 0; j < nr; ++j)
                for (index_t d = 0; d < 4; ++d)
                    b[static_cast<std::size_t>(q * nr * 4 + j * 4 + d)] =
                        i8_b_val(q * 4 + d, j, edge);
        }
        std::vector<std::int64_t> expected(
            static_cast<std::size_t>(mr * nr), 0);
        for (const KirStore& s : ir.stores) {
            for (int l = 0; l < ir.lanes; ++l) {
                expected[static_cast<std::size_t>(s.row) * nr
                         + static_cast<std::size_t>(s.col + l)] =
                    ir_expected_i8(ir, s, l, kq, edge);
            }
        }

        AlignedBuffer<std::int32_t> c(static_cast<std::size_t>(mr * nr));
        for (std::size_t e = 0; e < c.size(); ++e) c[e] = sentinel;
        kernel.fn(kq, a.data(), b.data(), c.data(), nr, false);
        for (index_t i = 0; i < mr && report.ok(); ++i) {
            for (index_t j = 0; j < nr; ++j) {
                const std::int64_t want =
                    expected[static_cast<std::size_t>(i * nr + j)];
                const std::int32_t got =
                    c[static_cast<std::size_t>(i * nr + j)];
                if (got != want) {
                    std::ostringstream msg;
                    msg << "kernel '" << ir.kernel << "' binary disagrees"
                        << " with its IR at C(" << i << "," << j
                        << ") kq=" << kq << (edge ? " (saturation edge)"
                                                  : "")
                        << ": binary " << got << ", symbolic " << want;
                    add_issue(report, "KIR_BINARY", msg.str());
                    break;
                }
            }
        }
        if (!report.ok()) return;

        // Accumulate path.
        for (index_t i = 0; i < mr; ++i)
            for (index_t j = 0; j < nr; ++j)
                c[static_cast<std::size_t>(i * nr + j)] =
                    static_cast<std::int32_t>(i * nr + j + 1);
        kernel.fn(kq, a.data(), b.data(), c.data(), nr, true);
        for (index_t i = 0; i < mr && report.ok(); ++i) {
            for (index_t j = 0; j < nr; ++j) {
                const std::int64_t want = i * nr + j + 1
                    + expected[static_cast<std::size_t>(i * nr + j)];
                const std::int32_t got =
                    c[static_cast<std::size_t>(i * nr + j)];
                if (got != want) {
                    std::ostringstream msg;
                    msg << "kernel '" << ir.kernel << "' binary disagrees"
                        << " with its IR at C(" << i << "," << j
                        << ") kq=" << kq << " (accumulate): binary " << got
                        << ", symbolic " << want;
                    add_issue(report, "KIR_BINARY", msg.str());
                    break;
                }
            }
        }
        if (!report.ok()) return;

        // Edge-tile path through the scratch wrapper.
        if (kq == 2 && mr > 1 && nr > 1) {
            const index_t m = mr - 1;
            const index_t n = nr - 1;
            AlignedBuffer<std::int32_t> scratch(
                static_cast<std::size_t>(mr * nr));
            for (std::size_t e = 0; e < c.size(); ++e) c[e] = sentinel;
            run_int8_tile(kernel, kq, a.data(), b.data(), c.data(), nr, m,
                          n, /*accumulate=*/false, scratch.data());
            for (index_t i = 0; i < mr && report.ok(); ++i) {
                for (index_t j = 0; j < nr; ++j) {
                    const bool live = i < m && j < n;
                    const std::int64_t want = live
                        ? expected[static_cast<std::size_t>(i * nr + j)]
                        : sentinel;
                    const std::int32_t got =
                        c[static_cast<std::size_t>(i * nr + j)];
                    if (got != want) {
                        std::ostringstream msg;
                        msg << "kernel '" << ir.kernel
                            << "' edge tile (m=" << m << ", n=" << n
                            << ") " << (live ? "disagrees with the IR"
                                             : "wrote outside the live"
                                               " region")
                            << " at C(" << i << "," << j << "): binary "
                            << got << ", symbolic " << want;
                        add_issue(report, "KIR_BINARY", msg.str());
                        break;
                    }
                }
            }
        }
    }
}

}  // namespace

KernelReport verify_kernel_ir(const KernelIr& ir)
{
    KernelReport report;
    report.kernel = ir.kernel;
    report.family = ir.family;
    report.isa = ir.isa;
    report.mr = ir.mr;
    report.nr = ir.nr;
    report.regs_used = ir.regs_used();
    report.reg_budget = ir.reg_budget;
    report.ops_per_cycle = model::kernel_peak_row(ir).ops_per_cycle;
    if (!check_malformed(ir, report)) return report;
    check_cover(ir, report);
    check_acc(ir, report);
    check_spill(ir, report);
    check_throughput(ir, report);
    return report;
}

KernelReport check_kernel(const KernelIr& ir)
{
    KernelReport report = verify_kernel_ir(ir);

    // Registry binding: the IR must describe a kernel that actually
    // dispatches, with the geometry the registry declares.
    Isa reg_isa = Isa::kScalar;
    index_t reg_mr = 0;
    index_t reg_nr = 0;
    bool found = false;
    const MicroKernel* f32 = nullptr;
    const MicroKernelD* f64 = nullptr;
    const Int8MicroKernel* i8 = nullptr;
    if (ir.family == "f32") {
        for (const MicroKernel& k : all_microkernels_of<float>()) {
            if (ir.kernel == k.name) {
                f32 = &k;
                reg_isa = k.isa;
                reg_mr = k.mr;
                reg_nr = k.nr;
                found = true;
            }
        }
    } else if (ir.family == "f64") {
        for (const MicroKernelD& k : all_microkernels_of<double>()) {
            if (ir.kernel == k.name) {
                f64 = &k;
                reg_isa = k.isa;
                reg_mr = k.mr;
                reg_nr = k.nr;
                found = true;
            }
        }
    } else if (ir.family == "i8") {
        for (const Int8MicroKernel& k : all_int8_microkernels()) {
            if (ir.kernel == k.name) {
                i8 = &k;
                reg_isa = k.isa;
                reg_mr = k.mr;
                reg_nr = k.nr;
                found = true;
            }
        }
    } else {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "': unknown family '" + ir.family
                      + "' (expected f32|f64|i8)");
        return report;
    }
    if (!found) {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "' (" + ir.family
                      + ") is not in the registry — the IR describes"
                        " nothing that dispatches");
        return report;
    }
    if (reg_isa != ir.isa || reg_mr != ir.mr || reg_nr != ir.nr) {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "': IR geometry ("
                      + isa_name(ir.isa) + " " + std::to_string(ir.mr) + "x"
                      + std::to_string(ir.nr)
                      + ") disagrees with the registry ("
                      + isa_name(reg_isa) + " " + std::to_string(reg_mr)
                      + "x" + std::to_string(reg_nr) + ")");
        return report;
    }

    // Lane-fingerprint equivalence: only meaningful once the symbolic
    // pass is clean (a broken store map has no well-defined expectation),
    // and only runnable when the host can execute the kernel.
    if (!report.ok()) return report;
    const bool runnable = ir.family == "i8" ? int8_isa_supported(ir.isa)
                                            : isa_supported(ir.isa);
    if (!runnable) return report;
    report.fingerprinted = true;
    if (f32 != nullptr) fingerprint_float(ir, *f32, report);
    if (f64 != nullptr) fingerprint_float(ir, *f64, report);
    if (i8 != nullptr) fingerprint_i8(ir, *i8, report);
    return report;
}

const char* kir_mutation_name(KirMutation m)
{
    switch (m) {
        case KirMutation::kDropStore: return "drop-store";
        case KirMutation::kDupStore: return "dup-store";
        case KirMutation::kSkewBroadcast: return "skew-broadcast";
        case KirMutation::kInflateAcc: return "inflate-acc";
        case KirMutation::kLyingChain: return "lying-chain";
    }
    return "unknown";
}

std::string apply_kernel_mutation(KernelIr& ir, KirMutation m)
{
    switch (m) {
        case KirMutation::kDropStore:
            CAKE_CHECK_MSG(!ir.stores.empty(),
                           "kDropStore needs a non-empty store map");
            ir.stores.pop_back();
            return "KIR_COVER";
        case KirMutation::kDupStore:
            CAKE_CHECK_MSG(!ir.stores.empty(),
                           "kDupStore needs a non-empty store map");
            ir.stores.push_back(ir.stores.front());
            return "KIR_DUP";
        case KirMutation::kSkewBroadcast:
            CAKE_CHECK_MSG(!ir.fmas.empty() && ir.mr > 1,
                           "kSkewBroadcast needs an FMA and mr > 1");
            ir.fmas.front().a_row =
                (ir.fmas.front().a_row + 1) % static_cast<int>(ir.mr);
            return "KIR_ACC";
        case KirMutation::kInflateAcc:
            // The smallest inflation guaranteed to overrun the kernel's
            // own budget class, register file or stack tile.
            if (ir.acc_storage == KirAccStorage::kRegisters) {
                ir.acc_regs = std::max(
                    ir.acc_regs + 1,
                    ir.reg_budget - ir.a_regs - ir.b_regs - ir.tmp_regs
                        - ir.const_regs + 1);
            } else {
                ir.acc_regs =
                    kKirStackTileBudgetBytes / ir.acc_elem_bytes() + 1;
            }
            return "KIR_SPILL";
        case KirMutation::kLyingChain:
            ir.chain_updates += 1;
            return "KIR_THROUGHPUT";
    }
    throw Error("unknown kernel mutation");
}

}  // namespace kernelcheck
}  // namespace cake
