// Unit tests for the common substrate: aligned buffers, matrices, RNG,
// statistics, tables and environment parsing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/aligned.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/issue.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace cake {
namespace {

TEST(Aligned, PointerIsAligned)
{
    for (std::size_t n : {1u, 7u, 64u, 1000u, 4097u}) {
        AlignedBuffer<float> buf(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kPanelAlignment,
                  0u);
        EXPECT_EQ(buf.size(), n);
    }
}

TEST(Aligned, ZeroInitialisation)
{
    AlignedBuffer<float> buf(257, /*zero=*/true);
    for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(Aligned, MoveTransfersOwnership)
{
    AlignedBuffer<float> a(16);
    a[3] = 7.0f;
    float* p = a.data();
    AlignedBuffer<float> b = std::move(a);
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b[3], 7.0f);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_TRUE(a.empty());
}

TEST(Aligned, EnsureGrowsButNeverShrinks)
{
    AlignedBuffer<float> buf(10);
    buf.ensure(5);
    EXPECT_EQ(buf.size(), 10u);
    buf.ensure(100);
    EXPECT_EQ(buf.size(), 100u);
}

TEST(Aligned, EmptyBufferIsSafe)
{
    AlignedBuffer<float> buf;
    EXPECT_TRUE(buf.empty());
    AlignedBuffer<float> moved = std::move(buf);
    EXPECT_TRUE(moved.empty());
}

/// Resident set size of this process in bytes (/proc/self/statm).
std::size_t resident_bytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t pages_total = 0, pages_resident = 0;
    statm >> pages_total >> pages_resident;
    return pages_resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Aligned, FreedLargeBufferLeavesResidentSet)
{
    // A large panel maps its own pages, so freeing it returns them at
    // once. Left to malloc, the 24 MiB free below would raise glibc's mmap
    // threshold to 24 MiB, and the 16 MiB buffer after it would come from
    // the heap and stay resident once freed.
    constexpr std::size_t kMiB = std::size_t{1} << 20;
    constexpr std::size_t kSlack = 4 * kMiB;
    for (const std::size_t bytes : {64 * kMiB, 24 * kMiB, 16 * kMiB}) {
        const std::size_t before = resident_bytes();
        ASSERT_GT(before, 0u) << "/proc/self/statm unreadable";
        {
            AlignedBuffer<unsigned char> buf(bytes);
            for (std::size_t i = 0; i < bytes; i += 4096) buf[i] = 1;
            EXPECT_GE(resident_bytes() + kSlack, before + bytes)
                << bytes / kMiB << " MiB: touched buffer is not resident";
        }
        EXPECT_LE(resident_bytes(), before + kSlack)
            << bytes / kMiB << " MiB: freed buffer is still resident";
    }
}

TEST(Error, CheckThrowsWithContext)
{
    EXPECT_THROW(CAKE_CHECK(1 == 2), Error);
    try {
        CAKE_CHECK_MSG(false, "x=" << 42);
        FAIL() << "should have thrown";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("x=42"), std::string::npos);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, FloatRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const float f = rng.next_float(-2.0f, 3.0f);
        EXPECT_GE(f, -2.0f);
        EXPECT_LT(f, 3.0f);
    }
}

TEST(Rng, NextBelowUnbiasedRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next_below(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);  // all residues hit in 1000 draws
}

TEST(Matrix, FillAndAccess)
{
    Matrix m(3, 4);
    m.fill_with([](index_t r, index_t c) {
        return static_cast<float>(10 * r + c);
    });
    EXPECT_EQ(m.at(0, 0), 0.0f);
    EXPECT_EQ(m.at(2, 3), 23.0f);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
}

TEST(Matrix, ViewSubMatrix)
{
    Matrix m(4, 5);
    m.fill_with([](index_t r, index_t c) {
        return static_cast<float>(r * 5 + c);
    });
    auto v = m.view().sub(1, 2, 2, 3);
    EXPECT_EQ(v.rows, 2);
    EXPECT_EQ(v.cols, 3);
    EXPECT_EQ(v.at(0, 0), m.at(1, 2));
    EXPECT_EQ(v.at(1, 2), m.at(2, 4));
    EXPECT_THROW(m.view().sub(3, 3, 2, 3), Error);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix a(2, 2);
    Matrix b(2, 2);
    a.fill(1.0f);
    b.fill(1.0f);
    b.at(1, 1) = 1.5f;
    EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

TEST(Matrix, MaxRelDiffUsesFloor)
{
    Matrix a(1, 1);
    Matrix b(1, 1);
    a.at(0, 0) = 1e-9f;
    b.at(0, 0) = 2e-9f;
    // With floor 1.0 the tiny absolute difference is tiny relatively too.
    EXPECT_LT(max_rel_diff(a, b), 1e-8);
}

TEST(Matrix, GemmToleranceGrowsWithK)
{
    EXPECT_LT(gemm_tolerance(16), gemm_tolerance(4096));
    EXPECT_GT(gemm_tolerance(1), 0.0);
}

TEST(Stats, MeanStdevMedian)
{
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_NEAR(stdev(xs), 1.5811388, 1e-6);
    EXPECT_DOUBLE_EQ(median(xs), 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, FitLineRecoversExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i - 2.0);
    }
    const LineFit f = fit_line(xs, ys);
    EXPECT_NEAR(f.slope, 3.0, 1e-12);
    EXPECT_NEAR(f.intercept, -2.0, 1e-12);
    EXPECT_NEAR(f(100.0), 298.0, 1e-9);
}

TEST(Stats, LineThroughTwoPoints)
{
    const LineFit f = line_through(1.0, 10.0, 3.0, 20.0);
    EXPECT_DOUBLE_EQ(f(5.0), 30.0);
    EXPECT_THROW(line_through(1.0, 0.0, 1.0, 5.0), Error);
}

TEST(Table, PrintAndCsv)
{
    Table t({"p", "gflops"});
    t.add_row({"1", "10.5"});
    t.add_row_numeric({2, 21.25});
    EXPECT_EQ(t.num_rows(), 2u);
    EXPECT_THROW(t.add_row({"only-one-cell"}), Error);

    std::ostringstream text;
    t.print(text);
    EXPECT_NE(text.str().find("gflops"), std::string::npos);
    EXPECT_NE(text.str().find("21.25"), std::string::npos);

    std::ostringstream csv;
    t.write_csv(csv);
    EXPECT_EQ(csv.str().substr(0, 9), "p,gflops\n");
}

TEST(Table, CsvEscaping)
{
    Table t({"name"});
    t.add_row({"a,b\"c"});
    std::ostringstream csv;
    t.write_csv(csv);
    EXPECT_NE(csv.str().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Env, ParsesIntegers)
{
    ::setenv("CAKE_TEST_ENV_INT", "42", 1);
    EXPECT_EQ(env_long("CAKE_TEST_ENV_INT").value(), 42);
    ::setenv("CAKE_TEST_ENV_INT", "nope", 1);
    EXPECT_FALSE(env_long("CAKE_TEST_ENV_INT").has_value());
    ::unsetenv("CAKE_TEST_ENV_INT");
    EXPECT_FALSE(env_string("CAKE_TEST_ENV_INT").has_value());
}

TEST(IssueList, CodesNameEachCodeOnceInFirstSeenOrder)
{
    IssueList list;
    EXPECT_TRUE(list.ok());
    EXPECT_EQ(list.codes(), "");
    EXPECT_FALSE(list.has("KIR_COVER"));

    list.issues = {{"KIR_COVER", "a"}, {"KIR_COVER", "b"}};
    EXPECT_FALSE(list.ok());
    EXPECT_EQ(list.codes(), "KIR_COVER");

    // A code that prefixes another is still its own code.
    list.issues = {{"KIR_COVER", "a"}, {"KIR_ACC", "b"}, {"KIR_COVER", "c"},
                   {"KIR_AC", "d"}, {"KIR_ACC", "e"}};
    EXPECT_EQ(list.codes(), "KIR_COVER,KIR_ACC,KIR_AC");
    EXPECT_TRUE(list.has("KIR_ACC"));
    EXPECT_TRUE(list.has("KIR_AC"));
    EXPECT_FALSE(list.has("KIR_A"));
    EXPECT_FALSE(list.has("KIR_DUP"));

    std::ostringstream os;
    print_issues(os, {{"IR_COVER", "gap"}, {"IR_RACE", "overlap"}});
    EXPECT_EQ(os.str(), "  [IR_COVER] gap\n  [IR_RACE] overlap\n");
}

TEST(Types, GemmShapeVolume)
{
    const GemmShape s{100, 200, 300};
    EXPECT_DOUBLE_EQ(s.mac_volume(), 6e6);
    EXPECT_DOUBLE_EQ(s.flops(), 1.2e7);
}

}  // namespace
}  // namespace cake
