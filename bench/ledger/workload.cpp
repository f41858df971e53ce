// Workload table, seeded inputs, the reference probe and the output oracle
// of cake_ledger.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/stats.hpp"
#include "core/fperror.hpp"
#include "ledger.hpp"

namespace ledger {

const std::vector<WorkloadSpec>& workloads()
{
    // Operands of every fixed shape stay resident in the shared LLC, so
    // the phases measured are the library's, not DRAM's. The squares are
    // 1536^3, not 2048^3, so that one core makes enough calls in a window
    // for a p90 with more than ten beyond it.
    static const std::vector<WorkloadSpec> table = {
        {"square_f32", false, {1536, 1536, 1536}},
        {"skinny_m_f32", false, {64, 2048, 2048}},
        {"shallow_k_f32", false, {2048, 2048, 64}},
        {"small_mixed_f32", false, {0, 0, 0}},
        {"square_i8", true, {1536, 1536, 1536}},
    };
    return table;
}

const WorkloadSpec* find_workload(const std::string& name)
{
    for (const WorkloadSpec& w : workloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

std::vector<GemmShape> shape_cycle(const WorkloadSpec& spec,
                                   std::uint64_t seed)
{
    if (spec.shape.m != 0) return {spec.shape};
    // The set is the same for every seed: 64 draws are too few for their
    // total work to repeat across sets, and runs of different seeds must
    // measure the same work. The seed orders the cycle.
    cake::Rng fixed(0x5A17ED5EEDULL);
    auto dim = [&] {
        return static_cast<index_t>(32 + fixed.next_below(225));
    };
    std::vector<GemmShape> cycle(64);
    for (GemmShape& s : cycle) s = {dim(), dim(), dim()};
    cake::Rng order(seed);
    for (std::size_t i = cycle.size() - 1; i > 0; --i) {
        std::swap(cycle[i], cycle[order.next_below(i + 1)]);
    }
    return cycle;
}

std::size_t representative_shape(const std::vector<GemmShape>& shapes)
{
    std::vector<std::size_t> idx(shapes.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        const double fa = shapes[a].flops(), fb = shapes[b].flops();
        return fa != fb ? fa < fb : shapes[a].m < shapes[b].m;
    });
    return idx[idx.size() / 2];
}

namespace {

// The probe's FMA tile: an 8 x 32 block of C from kTileK-deep slivers of A
// (8 wide) and B (32 wide), kTilePairs sliver pairs (160 KiB, so B comes
// from L2 as in a GEMM's packed panels), kTilePasses passes per probe.
constexpr int kTileK = 256;
constexpr int kTilePairs = 4;
constexpr int kTilePasses = 320;
constexpr std::size_t kCopyBytes = std::size_t{2} << 20;  // twice L2 in all

using V16 = float __attribute__((vector_size(64)));

/// C = A B on one tile, with the accumulators in registers. The vector
/// type lowers to the widest ISA each clone has.
__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
void probe_tile(const float* a, const float* b, float* c)
{
    V16 acc[8][2] = {};
    for (int p = 0; p < kTileK; ++p) {
        V16 b0, b1;
        std::memcpy(&b0, b + p * 32, sizeof b0);
        std::memcpy(&b1, b + p * 32 + 16, sizeof b1);
        for (int i = 0; i < 8; ++i) {
            const float x = a[p * 8 + i];
            acc[i][0] += x * b0;
            acc[i][1] += x * b1;
        }
    }
    std::memcpy(c, acc, sizeof acc);
}

}  // namespace

SpeedProbe::SpeedProbe()
    : a_(8 * kTileK * kTilePairs), b_(32 * kTileK * kTilePairs),
      c_(8 * 32), src_(kCopyBytes), dst_(kCopyBytes, true)
{
    // Small whole numbers: the tile's sums stay exact, so every probe does
    // the same work.
    for (std::size_t i = 0; i < a_.size(); ++i) {
        a_[i] = static_cast<float>(i % 3) - 1;
    }
    for (std::size_t i = 0; i < b_.size(); ++i) {
        b_[i] = static_cast<float>(i % 5) - 2;
    }
    for (std::size_t i = 0; i < src_.size(); ++i) {
        src_[i] = static_cast<char>(i);
    }
    (void)seconds();  // first touch and warm-up
}

double SpeedProbe::seconds()
{
    cake::Timer t;
    for (int pass = 0; pass < kTilePasses; ++pass) {
        const int pair = pass % kTilePairs;
        probe_tile(a_.data() + pair * 8 * kTileK,
                   b_.data() + pair * 32 * kTileK, c_.data());
    }
    std::memcpy(dst_.data(), src_.data(), kCopyBytes);
    return t.seconds();
}

double Samples::scale(std::size_t j) const
{
    const std::size_t lo = j > kProbeSpan ? j - kProbeSpan : 0;
    const std::size_t hi = std::min(probe_s.size(), j + kProbeSpan + 1);
    const double local = cake::median(std::vector<double>(
        probe_s.begin() + static_cast<std::ptrdiff_t>(lo),
        probe_s.begin() + static_cast<std::ptrdiff_t>(hi)));
    return kProbeReferenceSeconds / local;
}

std::vector<double> Samples::ref_seconds() const
{
    std::vector<double> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = call_s[i] * scale(probe_at[i]);
    }
    return out;
}

std::vector<double> Samples::shape_medians(std::size_t shapes) const
{
    std::vector<std::vector<double>> per(shapes);
    for (std::size_t i = 0; i < count; ++i) per[shape[i]].push_back(call_s[i]);
    std::vector<double> out(shapes, 0.0);
    for (std::size_t s = 0; s < shapes; ++s) out[s] = cake::median(per[s]);
    return out;
}

double Samples::gops(const std::vector<GemmShape>& shapes,
                     const std::vector<double>& secs) const
{
    double ops = 0, seconds = 0;
    for (std::size_t i = 0; i < count; ++i) {
        ops += shapes[shape[i]].flops();
        seconds += secs[i];
    }
    return seconds > 0 ? ops / seconds / 1e9 : 0.0;
}

template <class F>
Operands<F> make_operands(std::vector<GemmShape> shapes, std::uint64_t seed)
{
    std::size_t a_len = 0, b_len = 0, c_len = 0;
    for (const GemmShape& s : shapes) {
        a_len = std::max(a_len, static_cast<std::size_t>(s.m * s.k));
        b_len = std::max(b_len, static_cast<std::size_t>(s.k * s.n));
        c_len = std::max(c_len, static_cast<std::size_t>(s.m * s.n));
    }
    Operands<F> op{std::move(shapes), cake::AlignedBuffer<typename F::A>(a_len),
                   cake::AlignedBuffer<typename F::B>(b_len),
                   cake::AlignedBuffer<typename F::C>(c_len, true)};
    cake::Rng rng(seed);
    for (std::size_t i = 0; i < a_len; ++i) {
        if constexpr (std::is_same_v<F, I8>) {
            op.a[i] = static_cast<std::uint8_t>(rng.next_below(128));
        } else {
            op.a[i] = rng.next_float(-1.0f, 1.0f);
        }
    }
    for (std::size_t i = 0; i < b_len; ++i) {
        if constexpr (std::is_same_v<F, I8>) {
            op.b[i] = static_cast<std::int8_t>(
                static_cast<int>(rng.next_below(255)) - 127);
        } else {
            op.b[i] = rng.next_float(-1.0f, 1.0f);
        }
    }
    return op;
}

double rel_bound(const cake::CakeGemm& ctx, const GemmShape& s)
{
    return cake::plan_error_bound(s, ctx.stats().params,
                                  ctx.options().schedule, cake::dtype_f32())
        .rel_bound;
}

double rel_bound(const cake::GotoGemm& ctx, const GemmShape& s)
{
    return cake::goto_error_bound(s, ctx.stats().kc, cake::dtype_f32())
        .rel_bound;
}

template <class F>
void poison_c(Operands<F>& op, const GemmShape& s)
{
    const typename F::C bad = std::is_same_v<F, I8>
        ? std::numeric_limits<typename F::C>::min()
        : std::numeric_limits<typename F::C>::quiet_NaN();
    std::fill(op.c.data(), op.c.data() + s.m * s.n, bad);
}

template <class F>
bool sample_ok(const Operands<F>& op, const GemmShape& s, double bound,
               cake::Rng& rng)
{
    constexpr int kSide = 16;
    for (int ri = 0; ri < kSide; ++ri) {
        const auto i = static_cast<index_t>(
            rng.next_below(static_cast<std::uint64_t>(s.m)));
        for (int ci = 0; ci < kSide; ++ci) {
            const auto j = static_cast<index_t>(
                rng.next_below(static_cast<std::uint64_t>(s.n)));
            const typename F::C got = op.c[static_cast<std::size_t>(i * s.n + j)];
            if constexpr (std::is_same_v<F, I8>) {
                std::int64_t want = 0;
                for (index_t p = 0; p < s.k; ++p) {
                    want += std::int64_t{op.a[static_cast<std::size_t>(i * s.k + p)]}
                        * std::int64_t{op.b[static_cast<std::size_t>(p * s.n + j)]};
                }
                if (std::int64_t{got} != want) return false;
            } else {
                long double want = 0, mag = 0;
                for (index_t p = 0; p < s.k; ++p) {
                    const long double x =
                        static_cast<long double>(op.a[static_cast<std::size_t>(i * s.k + p)])
                        * op.b[static_cast<std::size_t>(p * s.n + j)];
                    want += x;
                    mag += std::fabs(x);
                }
                // Written so a NaN fails.
                if (!(std::fabs(static_cast<long double>(got) - want)
                      <= static_cast<long double>(bound) * mag)) {
                    return false;
                }
            }
        }
    }
    return true;
}

PhaseSplit phase_split(const cake::CakeStats& st)
{
    PhaseSplit out;
    if (st.total_seconds <= 0) return out;
    out.pack = st.pack_seconds / st.total_seconds;
    out.compute = st.compute_seconds / st.total_seconds;
    out.flush = st.flush_seconds / st.total_seconds;
    out.stall = std::max(0.0, 1.0 - out.pack - out.compute - out.flush);
    out.overlap = st.overlap_efficiency;
    out.compute_s = st.compute_seconds;
    return out;
}

double quantile(std::vector<double> xs, double q)
{
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

template Operands<F32> make_operands<F32>(std::vector<GemmShape>,
                                          std::uint64_t);
template Operands<I8> make_operands<I8>(std::vector<GemmShape>,
                                        std::uint64_t);
template void poison_c<F32>(Operands<F32>&, const GemmShape&);
template void poison_c<I8>(Operands<I8>&, const GemmShape&);
template bool sample_ok<F32>(const Operands<F32>&, const GemmShape&, double,
                             cake::Rng&);
template bool sample_ok<I8>(const Operands<I8>&, const GemmShape&, double,
                            cake::Rng&);

}  // namespace ledger
