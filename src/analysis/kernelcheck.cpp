#include "analysis/kernelcheck.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
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
/// list actually implies, and the declared µops per FMA slot the count
/// the IR's registers imply, so the peak bound divides by the truth.
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
    // The only multi-µop FMA slot is the widening int8 idiom
    // (vpmaddubsw + vpmaddwd + vpaddd), whose products and `ones` show as
    // per-step temporaries and constants; every other slot is one FMA or
    // one vpdpbusd.
    const bool widening =
        ir.quad > 1 && (ir.tmp_regs > 0 || ir.const_regs > 0);
    const int uops = widening ? 3 : 1;
    report.derived_fma_uops = uops;
    if (ir.fma_uops != uops) {
        add_issue(report, "KIR_THROUGHPUT",
                  "kernel '" + ir.kernel + "': declares "
                      + std::to_string(ir.fma_uops)
                      + " vector µops per FMA slot but its registers imply "
                      + std::to_string(uops)
                      + " — the static peak bound would be wrong");
    }
}

// --- lane-fingerprint equivalence ---------------------------------------

// Exactly-representable unique-value inputs, indexed by reduction element
// r = q * k_step + d: small distinct integers, so float accumulation is
// exact (sums stay far below 2^24) and any index confusion in the IR or
// the binary shifts at least one lane's value.

double f_a_val(index_t i, index_t r)
{
    return 1.0 + 3.0 * static_cast<double>(i) + 37.0 * static_cast<double>(r);
}
double f_b_val(index_t r, index_t j)
{
    return 2.0 + 5.0 * static_cast<double>(j) + 41.0 * static_cast<double>(r);
}

// int8 family. The saturation-edge round drives the inputs to the extremes
// of the int8 A contract and of s8 B (a = 127, |b| <= 128): the AVX2
// vpmaddubsw pairs reach their largest exact value (|pair| <= 32512 <
// 2^15, so the int16 stage never clips) and each vpdpbusd lane folds the
// largest quad sums the contract allows.

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

/// One fingerprint round: kernel depth in k-steps, and whether the inputs
/// take their saturation-edge values.
struct Round {
    index_t steps;
    bool edge_values;
};

/// Per-family fingerprint inputs, the exact accumulator the IR is
/// evaluated in, the depth rounds, and the round that also drives the
/// edge-tile path.
template <typename F>
struct FingerprintFamily {
    using Acc = double;
    static constexpr Round rounds[] = {{1, false}, {3, false}, {7, false}};
    static constexpr index_t edge_tile_steps = 3;
    static F a_val(index_t i, index_t r, bool)
    {
        return static_cast<F>(f_a_val(i, r));
    }
    static F b_val(index_t r, index_t j, bool)
    {
        return static_cast<F>(f_b_val(r, j));
    }
};

template <>
struct FingerprintFamily<U8S8S32> {
    using Acc = std::int64_t;
    // 17 k-quads span two 64-deep AMX chunks, the second one partial.
    static constexpr Round rounds[] = {
        {1, false}, {2, true}, {5, false}, {17, false}};
    static constexpr index_t edge_tile_steps = 2;
    static std::uint8_t a_val(index_t i, index_t r, bool edge)
    {
        return i8_a_val(i, r, edge);
    }
    static std::int8_t b_val(index_t r, index_t j, bool edge)
    {
        return i8_b_val(r, j, edge);
    }
};

/// The IR's symbolic result for C(row, col+l) at `steps` k-steps,
/// evaluated over the term algebra in the family's exact accumulator.
template <typename F>
typename FingerprintFamily<F>::Acc ir_expected(const KernelIr& ir,
                                               const KirStore& s, int lane,
                                               index_t steps, bool edge)
{
    using Data = FingerprintFamily<F>;
    typename Data::Acc sum = 0;
    for (index_t q = 0; q < steps; ++q) {
        for (const KirFma& f : ir.fmas) {
            if (f.acc != s.acc) continue;
            for (index_t d = 0; d < static_cast<index_t>(ir.quad); ++d) {
                const index_t r = q * ir.quad + d;
                sum += static_cast<typename Data::Acc>(
                           Data::a_val(f.a_row, r, edge))
                    * Data::b_val(r, f.b_col + lane, edge);
            }
        }
    }
    return sum;
}

/// One of the entry's own sliver packers must reproduce its layout
/// formula byte for byte from a padded source: `width` lanes over k K
/// elements, lane i at depth p holding value(i, p) and landing at
/// offset(i, p), zero elsewhere up to the packed depth, once with every
/// lane live and once with the last lane dead, and a sentinel tail past
/// the sliver untouched. Each run is made over two sentinel fills, so an
/// element the packer never writes shows whatever its expected value. The
/// first mismatch raises KIR_BINARY naming the packer; returns false then.
template <typename E, typename Offset, typename Value>
bool packer_agrees(const KernelIr& ir, const char* name, SliverFnT<E> fn,
                   bool lanes_strided, index_t width, index_t k,
                   index_t depth, const Offset& offset, const Value& value,
                   KernelReport& report)
{
    if (fn == nullptr) {
        add_issue(report, "KIR_BINARY",
                  "kernel '" + ir.kernel + "' has no " + name + " packer");
        return false;
    }
    const index_t ld = (lanes_strided ? k : width) + 3;
    const index_t lane_step = lanes_strided ? ld : 1;
    const index_t depth_step = lanes_strided ? 1 : ld;
    std::vector<E> src(
        static_cast<std::size_t>((lanes_strided ? width : k) * ld), E(-1));
    for (index_t p = 0; p < k; ++p)
        for (index_t i = 0; i < width; ++i)
            src[static_cast<std::size_t>(i * lane_step + p * depth_step)] =
                value(i, p);
    // One zmm of sentinels past the sliver catches a full-vector store
    // where fewer lanes are meant.
    constexpr index_t kTail = 64 / static_cast<index_t>(sizeof(E));
    const index_t size = width * depth;
    AlignedBuffer<E> out(static_cast<std::size_t>(size + kTail));
    std::vector<E> want(static_cast<std::size_t>(size));
    for (const index_t live : {width, width - 1}) {
        std::fill(want.begin(), want.end(), E(0));
        for (index_t p = 0; p < k; ++p)
            for (index_t i = 0; i < live; ++i)
                want[static_cast<std::size_t>(offset(i, p))] = value(i, p);
        for (const E sentinel : {static_cast<E>(-987654), static_cast<E>(77)}) {
            std::fill(out.data(), out.data() + size + kTail, sentinel);
            fn(src.data(), ld, live, k, width, out.data());
            for (index_t e = 0; e < size + kTail; ++e) {
                const auto at = static_cast<std::size_t>(e);
                const E expect = e >= size ? sentinel : want[at];
                if (std::memcmp(&out[at], &expect, sizeof(E)) == 0) continue;
                std::ostringstream msg;
                msg << "kernel '" << ir.kernel << "' packer " << name;
                if (e >= size) {
                    msg << " wrote element " << e - size
                        << " past the sliver end";
                } else {
                    msg << " disagrees with the layout formula at packed"
                        << " element " << e;
                }
                msg << " (live=" << live << ", k=" << k << "): packed "
                    << +out[at] << ", want " << +expect;
                add_issue(report, "KIR_BINARY", msg.str());
                return false;
            }
        }
    }
    return true;
}

/// Every packer of the entry against its layout at k K elements: A and,
/// for float, B^T through gather_sliver; B and, for float, A^T through
/// copy_sliver.
template <typename F>
bool packers_agree(const KernelIr& ir, const MicroKernelT<F>& kernel,
                   index_t k, bool edge, KernelReport& report)
{
    using Data = FingerprintFamily<F>;
    const index_t depth = kernel.packed_depth(k);
    const index_t mr = ir.mr;
    const index_t nr = ir.nr;
    auto a_off = [&](index_t i, index_t p) {
        return kernel.a_offset(mr, i, p);
    };
    auto b_off = [&](index_t j, index_t p) {
        return kernel.b_offset(nr, j, p);
    };
    auto a_val = [&](index_t i, index_t p) { return Data::a_val(i, p, edge); };
    auto b_val = [&](index_t j, index_t p) { return Data::b_val(p, j, edge); };
    if (!packer_agrees(ir, "gather_sliver (A)", kernel.gather_sliver, true,
                       mr, k, depth, a_off, a_val, report)
        || !packer_agrees(ir, "copy_sliver (B)", kernel.copy_sliver, false,
                          nr, k, depth, b_off, b_val, report)) {
        return false;
    }
    if constexpr (std::is_floating_point_v<F>) {
        return packer_agrees(ir, "copy_sliver (A^T)", kernel.copy_sliver,
                             false, mr, k, depth, a_off, a_val, report)
            && packer_agrees(ir, "gather_sliver (B^T)", kernel.gather_sliver,
                             true, nr, k, depth, b_off, b_val, report);
    }
    return true;
}

/// The fingerprint's edge-tile path, through the runner: every row count
/// m and the column counts at the store-mask boundaries, overwrite and
/// accumulate, into a C of leading dimension nr + lanes. Every element
/// outside the live m x n corner, the gap columns past nr included, holds
/// the sentinel and must keep it: a table entry with a row too few
/// disagrees, and a store mask one lane too wide writes over the sentinel.
/// `expect(i, j)` is the IR's value of C(i, j). False after reporting the
/// first disagreement as KIR_BINARY.
template <typename F, typename Expect>
bool edge_tiles_agree(const KernelIr& ir, const MicroKernelT<F>& kernel,
                      index_t steps, const typename KernelFamily<F>::A* a,
                      const typename KernelFamily<F>::B* b,
                      typename KernelFamily<F>::C sentinel,
                      const Expect& expect, KernelReport& report)
{
    using C = typename KernelFamily<F>::C;
    using Acc = typename FingerprintFamily<F>::Acc;
    const index_t mr = ir.mr;
    const index_t nr = ir.nr;
    const index_t lanes = ir.lanes;
    const index_t ldc = nr + lanes;
    std::vector<index_t> widths;
    for (const index_t n :
         {index_t{1}, lanes - 1, lanes, lanes + 1, nr - 1, nr}) {
        if (n >= 1 && n <= nr
            && std::find(widths.begin(), widths.end(), n) == widths.end()) {
            widths.push_back(n);
        }
    }
    auto preload = [&](index_t i, index_t j) {
        return static_cast<C>(i * nr + j + 1);
    };
    AlignedBuffer<C> c(static_cast<std::size_t>(mr * ldc));
    for (index_t m = 1; m <= mr; ++m) {
        for (const index_t n : widths) {
            for (const bool acc : {false, true}) {
                for (index_t i = 0; i < mr; ++i)
                    for (index_t j = 0; j < ldc; ++j)
                        c[static_cast<std::size_t>(i * ldc + j)] =
                            acc && i < m && j < n ? preload(i, j) : sentinel;
                run_microkernel_tile(kernel, steps, a, b, c.data(), ldc, m, n,
                                     acc, nullptr);
                for (index_t i = 0; i < mr; ++i) {
                    for (index_t j = 0; j < ldc; ++j) {
                        const bool live = i < m && j < n;
                        Acc want = static_cast<Acc>(sentinel);
                        if (live) {
                            want = expect(i, j)
                                + (acc ? static_cast<Acc>(preload(i, j))
                                       : Acc{0});
                        }
                        const C got = c[static_cast<std::size_t>(i * ldc + j)];
                        if (static_cast<Acc>(got) == want) continue;
                        std::ostringstream msg;
                        msg << "kernel '" << ir.kernel << "' edge tile (m="
                            << m << ", n=" << n << ", "
                            << (acc ? "accumulate" : "overwrite")
                            << ", ldc=" << ldc << ") "
                            << (live ? "disagrees with the IR"
                                     : "wrote outside the live region")
                            << " at C(" << i << "," << j << "): binary "
                            << got << ", symbolic " << want;
                        add_issue(report, "KIR_BINARY", msg.str());
                        return false;
                    }
                }
            }
        }
    }
    return true;
}

template <typename F>
void fingerprint(const KernelIr& ir, const MicroKernelT<F>& kernel,
                 KernelReport& report)
{
    using Fam = KernelFamily<F>;
    using Data = FingerprintFamily<F>;
    using C = typename Fam::C;
    using Acc = typename Data::Acc;
    const index_t mr = ir.mr;
    const index_t nr = ir.nr;
    const index_t s = Fam::k_step;
    const char* const depth_name = s == 1 ? "kc" : "kq";
    const C sentinel = static_cast<C>(-987654);
    for (const Round round : Data::rounds) {
        const index_t steps = round.steps;
        const bool edge = round.edge_values;
        // The slivers in the entry's own layout, zero-padded to its
        // packed depth (the kernel may read all of it).
        const index_t packed = kernel.packed_depth(steps * s);
        AlignedBuffer<typename Fam::A> a(
            static_cast<std::size_t>(mr * packed), true);
        AlignedBuffer<typename Fam::B> b(
            static_cast<std::size_t>(nr * packed), true);
        for (index_t r = 0; r < steps * s; ++r) {
            for (index_t i = 0; i < mr; ++i)
                a[static_cast<std::size_t>(kernel.a_offset(mr, i, r))] =
                    Data::a_val(i, r, edge);
            for (index_t j = 0; j < nr; ++j)
                b[static_cast<std::size_t>(kernel.b_offset(nr, j, r))] =
                    Data::b_val(r, j, edge);
        }
        if (!packers_agree(ir, kernel, steps * s, edge, report)) return;
        // Expected tile from the IR's term algebra (cover is exact — the
        // symbolic pass ran clean before fingerprinting).
        std::vector<Acc> expected(static_cast<std::size_t>(mr * nr), 0);
        for (const KirStore& st : ir.stores) {
            for (int l = 0; l < ir.lanes; ++l) {
                expected[static_cast<std::size_t>(st.row) * nr
                         + static_cast<std::size_t>(st.col + l)] =
                    ir_expected<F>(ir, st, l, steps, edge);
            }
        }

        // Compare the tile against `want(i, j)`; on the first mismatch
        // report it, naming the path, and return false.
        AlignedBuffer<C> c(static_cast<std::size_t>(mr * nr));
        auto agrees = [&](const char* path, auto&& want) {
            for (index_t i = 0; i < mr; ++i) {
                for (index_t j = 0; j < nr; ++j) {
                    const Acc w = want(i, j);
                    const C got = c[static_cast<std::size_t>(i * nr + j)];
                    if (static_cast<Acc>(got) == w) continue;
                    std::ostringstream msg;
                    msg << "kernel '" << ir.kernel << "' binary disagrees"
                        << " with its IR at C(" << i << "," << j << ") "
                        << depth_name << "=" << steps << " (" << path
                        << "): binary " << got << ", symbolic " << w;
                    add_issue(report, "KIR_BINARY", msg.str());
                    return false;
                }
            }
            return true;
        };
        auto expect = [&](index_t i, index_t j) {
            return expected[static_cast<std::size_t>(i * nr + j)];
        };

        // Overwrite path: every lane must land exactly on the symbolic
        // value, clobbering the sentinel.
        for (std::size_t e = 0; e < c.size(); ++e) c[e] = sentinel;
        kernel.fn(steps, a.data(), b.data(), c.data(), nr, false);
        if (!agrees(edge ? "saturation edge" : "overwrite", expect)) return;

        // Accumulate path: a distinct preload must survive the update.
        for (index_t i = 0; i < mr; ++i)
            for (index_t j = 0; j < nr; ++j)
                c[static_cast<std::size_t>(i * nr + j)] =
                    static_cast<C>(i * nr + j + 1);
        kernel.fn(steps, a.data(), b.data(), c.data(), nr, true);
        if (!agrees("accumulate", [&](index_t i, index_t j) {
                return static_cast<Acc>(i * nr + j + 1) + expect(i, j);
            })) {
            return;
        }

        if (steps == Data::edge_tile_steps
            && !edge_tiles_agree(ir, kernel, steps, a.data(), b.data(),
                                 sentinel, expect, report)) {
            return;
        }
    }
}

/// Registry binding of an IR of family F, then (host permitting) its
/// lane fingerprint.
template <typename F>
void bind_and_fingerprint(const KernelIr& ir, KernelReport& report)
{
    // The IR must describe a kernel that actually dispatches, with the
    // geometry the registry declares.
    const MicroKernelT<F>* kernel = nullptr;
    for (const MicroKernelT<F>& k : all_microkernels_of<F>()) {
        if (ir.kernel == k.name) kernel = &k;
    }
    if (kernel == nullptr) {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "' (" + ir.family
                      + ") is not in the registry — the IR describes"
                        " nothing that dispatches");
        return;
    }
    if (kernel->isa != ir.isa || kernel->mr != ir.mr
        || kernel->nr != ir.nr) {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "': IR geometry ("
                      + isa_name(ir.isa) + " " + std::to_string(ir.mr) + "x"
                      + std::to_string(ir.nr)
                      + ") disagrees with the registry ("
                      + isa_name(kernel->isa) + " "
                      + std::to_string(kernel->mr) + "x"
                      + std::to_string(kernel->nr) + ")");
        return;
    }

    // Lane-fingerprint equivalence: only meaningful once the symbolic
    // pass is clean (a broken store map has no well-defined expectation),
    // and only runnable when the host can execute the kernel.
    if (!report.ok() || !KernelFamily<F>::isa_ok(ir.isa)) return;
    report.fingerprinted = true;
    fingerprint(ir, *kernel, report);
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
    bool known_family = false;
    for_each_kernel_family([&]<typename F>() {
        if (ir.family != KernelFamily<F>::name) return;
        known_family = true;
        bind_and_fingerprint<F>(ir, report);
    });
    if (!known_family) {
        add_issue(report, "KIR_MALFORMED",
                  "kernel '" + ir.kernel + "': unknown family '" + ir.family
                      + "' (expected f32|f64|i8)");
    }
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
            } else if (ir.acc_storage == KirAccStorage::kTileRows) {
                // One whole tile past the file.
                ir.acc_regs = std::max(
                    ir.acc_regs + kKirTileRows,
                    (ir.reg_budget - ir.a_regs - ir.b_regs - ir.tmp_regs
                     - ir.const_regs + 1)
                        * kKirTileRows);
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
