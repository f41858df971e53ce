// Negative-path tests for the CAKE_CHECKED instrumentation layer: each
// test provokes one class of memory fault the instrumentation exists to
// catch — out-of-bounds span access, pack-buffer overrun into a canary
// guard, misaligned kernel operands, for the float and int8 kernel
// families alike — and asserts the trap fires with the right diagnostic.
// A throwing trap handler is installed per-test so the trap surfaces as a
// catchable CheckedError instead of an abort.
//
// In release builds (CAKE_CHECKED off) the instrumentation compiles away
// entirely, so every test here skips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "common/aligned.hpp"
#include "common/checked.hpp"
#include "kernel/microkernel.hpp"
#include "kernel/registry.hpp"
#include "pack/pack.hpp"
#include "pack/pack_int8.hpp"

namespace cake {
namespace {

#if !CAKE_CHECKED_ENABLED

TEST(CheckedTest, DisabledInThisBuild)
{
    GTEST_SKIP()
        << "CAKE_CHECKED instrumentation is compiled out of this build; "
           "configure with -DCAKE_CHECKED=ON to run the trap tests";
}

#else  // CAKE_CHECKED_ENABLED

void throwing_handler(const char* kind, const std::string& message)
{
    throw CheckedError(std::string(kind) + ": " + message);
}

/// Installs the throwing trap handler for one test, restoring the
/// previous handler (abort semantics) on scope exit.
class ScopedThrowingTraps {
public:
    ScopedThrowingTraps()
        : previous_(checked::set_trap_handler(&throwing_handler))
    {
    }
    ~ScopedThrowingTraps() { checked::set_trap_handler(previous_); }

private:
    checked::TrapHandler previous_;
};

std::string trap_message(const std::function<void()>& provoke)
{
    try {
        provoke();
    } catch (const CheckedError& e) {
        return e.what();
    }
    return "";
}

TEST(CheckedTest, SpanIndexOutOfBoundsTraps)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(8, /*zero=*/true);
    Span<float> s = make_span(buf.data(), buf.size(), "test span");
    EXPECT_NO_THROW(s[0]);
    EXPECT_NO_THROW(s[7]);
    EXPECT_THROW(s[8], CheckedError);
    EXPECT_THROW(s[-1], CheckedError);
    const std::string msg = trap_message([&] { (void)s[12]; });
    EXPECT_NE(msg.find("test span"), std::string::npos) << msg;
    EXPECT_NE(msg.find("12"), std::string::npos) << msg;
}

TEST(CheckedTest, SpanSliceOutOfBoundsTraps)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(16, /*zero=*/true);
    Span<float> s = make_span(buf.data(), buf.size(), "test span");
    EXPECT_NO_THROW((void)span_slice(s, 8, 8));
    EXPECT_THROW((void)span_slice(s, 8, 9), CheckedError);
    EXPECT_THROW((void)span_slice(s, -1, 4), CheckedError);
    EXPECT_THROW((void)span_slice(s, 4, -1), CheckedError);
}

TEST(CheckedTest, FreshBufferIsPoisoned)
{
    AlignedBuffer<float> f32(32);
    AlignedBuffer<double> f64(32);
    AlignedBuffer<int> i32(32);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_TRUE(checked::is_poison(f32[i])) << "f32[" << i << "]";
        EXPECT_TRUE(checked::is_poison(f64[i])) << "f64[" << i << "]";
        EXPECT_TRUE(checked::is_poison(i32[i])) << "i32[" << i << "]";
    }
    // The float poisons are NaN payloads: arithmetic on an unpacked
    // element cannot silently produce a plausible number.
    EXPECT_TRUE(std::isnan(f32[0]));
    EXPECT_TRUE(std::isnan(f64[0]));

    AlignedBuffer<float> zeroed(32, /*zero=*/true);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_EQ(zeroed[i], 0.0f);
        EXPECT_FALSE(checked::is_poison(zeroed[i]));
    }
}

TEST(CheckedTest, BufferOverrunTripsBackCanary)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(16, /*zero=*/true);
    EXPECT_NO_THROW(buf.verify_canaries("intact buffer"));
    buf.data()[16] = 1.0f;  // one element past the payload: back guard
    const std::string msg =
        trap_message([&] { buf.verify_canaries("victim buffer"); });
    EXPECT_NE(msg.find("victim buffer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overrun"), std::string::npos) << msg;
}

TEST(CheckedTest, BufferUnderrunTripsFrontCanary)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(16, /*zero=*/true);
    buf.data()[-1] = 1.0f;  // one element before the payload: front guard
    const std::string msg =
        trap_message([&] { buf.verify_canaries("victim buffer"); });
    EXPECT_NE(msg.find("underrun"), std::string::npos) << msg;
}

TEST(CheckedTest, UndersizedPackBufferIsCaughtByCanary)
{
    ScopedThrowingTraps traps;
    // pack_a_panel writes packed_a_size(mc, kc, mr) elements; hand it a
    // buffer 8 elements short and the tail of the pack lands in the back
    // guard (the 64-byte guard absorbs the overrun, so this is safe to
    // execute and deterministically detected on verify). The int8 k-quad
    // packer obeys the same contract.
    const index_t mc = 12, kc = 8, mr = 6;
    const index_t need = packed_a_size(mc, kc, mr);
    ASSERT_EQ(need, 96);
    AlignedBuffer<float> a(static_cast<std::size_t>(mc * kc), /*zero=*/true);
    AlignedBuffer<float> packed(static_cast<std::size_t>(need - 8));
    pack_a_panel(a.data(), /*lda=*/kc, mc, kc, mr, packed.data());
    EXPECT_THROW(packed.verify_canaries("undersized packed-A"),
                 CheckedError);

    const index_t need_i8 = packed_a_int8_size(mc, kc, mr);
    ASSERT_EQ(need_i8, 96);
    AlignedBuffer<std::uint8_t> a_i8(static_cast<std::size_t>(mc * kc),
                                     /*zero=*/true);
    AlignedBuffer<std::uint8_t> packed_i8(
        static_cast<std::size_t>(need_i8 - 8));
    pack_a_panel_int8(a_i8.data(), /*lda=*/kc, mc, kc, mr, packed_i8.data());
    EXPECT_THROW(packed_i8.verify_canaries("undersized int8 packed-A"),
                 CheckedError);

    // The int8 shapes below take the packers' fast paths (k a multiple of
    // 4, full slivers): the 8-row A word copy (the shape above has mr = 6
    // and runs the runtime-count copy) and the B four-row interleave, so
    // an overrun there still lands in the guard.
    const index_t m8 = 16, mr8 = 8;
    const index_t need_a8_i8 = packed_a_int8_size(m8, kc, mr8);
    ASSERT_EQ(need_a8_i8, 128);
    AlignedBuffer<std::uint8_t> a8_i8(static_cast<std::size_t>(m8 * kc),
                                      /*zero=*/true);
    AlignedBuffer<std::uint8_t> packed_a8_i8(
        static_cast<std::size_t>(need_a8_i8 - 8));
    pack_a_panel_int8(a8_i8.data(), /*lda=*/kc, m8, kc, mr8,
                      packed_a8_i8.data());
    EXPECT_THROW(packed_a8_i8.verify_canaries("undersized 8-row packed-A"),
                 CheckedError);

    const index_t kb = 8, nb = 32, nr = 16;
    const index_t need_b_i8 = packed_b_int8_size(kb, nb, nr);
    ASSERT_EQ(need_b_i8, 256);
    AlignedBuffer<std::int8_t> b_i8(static_cast<std::size_t>(kb * nb),
                                    /*zero=*/true);
    AlignedBuffer<std::int8_t> packed_b_i8(
        static_cast<std::size_t>(need_b_i8 - 8));
    pack_b_panel_int8(b_i8.data(), /*ldb=*/nb, kb, nb, nr,
                      packed_b_i8.data());
    EXPECT_THROW(packed_b_i8.verify_canaries("undersized int8 packed-B"),
                 CheckedError);
}

/// Zeroed packed panels, C tile and scratch for one `steps`-deep call of
/// kernel `k`; the scratch carries `spare` extra elements.
template <typename F>
struct TileOperands {
    using Fam = KernelFamily<F>;
    TileOperands(const MicroKernelT<F>& k, index_t steps, std::size_t spare)
        : a(static_cast<std::size_t>(k.mr * steps * Fam::k_step), true),
          b(static_cast<std::size_t>(k.nr * steps * Fam::k_step), true),
          c(static_cast<std::size_t>(k.mr * k.nr), true),
          scratch(static_cast<std::size_t>(k.mr * k.nr) + spare, true)
    {
    }
    AlignedBuffer<typename Fam::A> a;
    AlignedBuffer<typename Fam::B> b;
    AlignedBuffer<typename Fam::C> c;
    AlignedBuffer<typename Fam::C> scratch;
};

template <typename F>
void expect_misaligned_scratch_traps(const MicroKernelT<F>& k)
{
    SCOPED_TRACE(k.name);
    const index_t steps = 4;
    TileOperands<F> t(k, steps, 16);
    // Aligned scratch: runs clean (edge tile m = mr - 1 forces its use).
    EXPECT_NO_THROW(run_microkernel_tile(k, steps, t.a.data(), t.b.data(),
                                         t.c.data(), k.nr, k.mr - 1, k.nr,
                                         false, t.scratch.data()));
    // Knock the scratch pointer off 64-byte alignment by one element.
    const std::string msg = trap_message([&] {
        run_microkernel_tile(k, steps, t.a.data(), t.b.data(), t.c.data(),
                             k.nr, k.mr - 1, k.nr, false,
                             t.scratch.data() + 1);
    });
    EXPECT_NE(msg.find("misaligned"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scratch"), std::string::npos) << msg;
}

TEST(CheckedTest, MisalignedScratchTileTraps)
{
    ScopedThrowingTraps traps;
    expect_misaligned_scratch_traps(scalar_microkernel());
    expect_misaligned_scratch_traps(best_microkernel_of<U8S8S32>());
}

template <typename F>
void expect_bad_c_tile_traps(const MicroKernelT<F>& k)
{
    SCOPED_TRACE(k.name);
    const index_t steps = 4;
    TileOperands<F> t(k, steps, 0);
    // ldc smaller than the tile width: rows would overlap.
    EXPECT_THROW(run_microkernel_tile(k, steps, t.a.data(), t.b.data(),
                                      t.c.data(), k.nr - 1, k.mr, k.nr,
                                      false, t.scratch.data()),
                 CheckedError);
    // Null packed operand.
    EXPECT_THROW(
        run_microkernel_tile(
            k, steps, static_cast<const typename KernelFamily<F>::A*>(nullptr),
            t.b.data(), t.c.data(), k.nr, k.mr, k.nr, false,
            t.scratch.data()),
        CheckedError);
}

TEST(CheckedTest, BadCTileGeometryTraps)
{
    ScopedThrowingTraps traps;
    expect_bad_c_tile_traps(scalar_microkernel());
    expect_bad_c_tile_traps(best_microkernel_of<U8S8S32>());
}

TEST(CheckedTest, RequireExtentTraps)
{
    ScopedThrowingTraps traps;
    EXPECT_NO_THROW(require_extent(0, 10, 10, "exact fit"));
    EXPECT_THROW(require_extent(1, 10, 10, "off the end"), CheckedError);
    EXPECT_THROW(require_extent(-1, 2, 10, "negative start"), CheckedError);
}

#endif  // CAKE_CHECKED_ENABLED

}  // namespace
}  // namespace cake
