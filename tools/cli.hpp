// The flag parser every tools/ CLI shares, plus the Table-2 sweep corpus
// that cake_audit --sweep and cake_verify --sweep both walk.
//
// Each tool keeps its own flag loop and Options struct; the value parsers
// here turn a bad value into one "<tool>: <what>" line, the tool's usage
// text and a usage exit code, never a wrapped number or an uncaught
// exception.
#pragma once

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>

#include "common/types.hpp"

namespace cake {
namespace cli {

/// A spelled-out shape class accepted by --shape next to MxNxK.
struct NamedShape {
    const char* name;
    GemmShape shape;
};

/// cake_perf / cake_trace --shape classes.
inline constexpr NamedShape kRunShapes[] = {
    {"square", {1024, 1024, 1024}},
    {"skewed", {2048, 2048, 64}},
    {"panel", {4096, 256, 256}},
};

/// The Table-2 sweep corpus: the shape classes the paper evaluates, with
/// the repo's AVX2 register tile (mr = 6, nr = 16 f32 / 8 f64) fixed
/// rather than host-dispatched so every sweep is deterministic in CI.
inline constexpr GemmShape kSweepShapes[] = {
    {2000, 2000, 2000},  // square (Fig. 10 protocol)
    {8000, 256, 2048},   // M-heavy / narrow-N skewed
    {3000, 3000, 96},    // shallow-K panel (DNN-style)
};
inline constexpr index_t kSweepMr = 6;
inline constexpr index_t sweep_nr(index_t elem_bytes)
{
    return elem_bytes == 8 ? 8 : 16;
}

/// One tool's command line. `usage` is printed after every error message;
/// `usage_exit` is the tool's documented usage-error status.
struct Args {
    int argc;
    char** argv;
    const char* tool;
    const char* usage;
    int usage_exit = 2;

    [[noreturn]] void error(const std::string& msg) const
    {
        std::cerr << tool << ": " << msg << "\n" << usage;
        std::exit(usage_exit);
    }

    /// The value following argv[i] (advancing i), or a usage error.
    [[nodiscard]] std::string next(int& i, const char* flag) const
    {
        if (i + 1 >= argc) error(std::string(flag) + " requires a value");
        return argv[++i];
    }

    /// A whole-token integer >= lo (1 or 0) for an index_t-sized value.
    [[nodiscard]] index_t index(const std::string& value, const char* flag,
                                index_t lo = 1) const
    {
        return parse_integer(value, flag, lo, INT64_MAX);
    }

    /// A whole-token integer in [lo, INT_MAX] for an int-sized value: a
    /// larger one is a usage error, never a wrapped negative.
    [[nodiscard]] int integer(const std::string& value, const char* flag,
                              int lo = 1) const
    {
        return static_cast<int>(parse_integer(value, flag, lo, INT_MAX));
    }

    /// A whole-token finite number (>= 0 when `non_negative`).
    [[nodiscard]] double number(const std::string& value, const char* flag,
                                bool non_negative = false) const
    {
        try {
            std::size_t pos = 0;
            const double v = std::stod(value, &pos);
            if (pos == value.size() && std::isfinite(v)
                && (!non_negative || v >= 0)) {
                return v;
            }
        } catch (const std::exception&) {
        }
        error(std::string(flag) + " expects a "
              + (non_negative ? "non-negative " : "") + "number, got '"
              + value + "'");
    }

    /// MxNxK with positive extents, or one of `classes` by name.
    [[nodiscard]] GemmShape shape(
        const std::string& value,
        std::span<const NamedShape> classes = {}) const
    {
        std::string expected;
        for (const NamedShape& c : classes) {
            if (value == c.name) return c.shape;
            expected += std::string(c.name) + "|";
        }
        const std::size_t x1 = value.find('x');
        const std::size_t x2 = value.find('x', x1 + 1);
        if (x1 == std::string::npos || x2 == std::string::npos) {
            error("--shape expects " + expected + "MxNxK, got '" + value
                  + "'");
        }
        GemmShape s;
        s.m = index(value.substr(0, x1), "--shape");
        s.n = index(value.substr(x1 + 1, x2 - x1 - 1), "--shape");
        s.k = index(value.substr(x2 + 1), "--shape");
        return s;
    }

private:
    [[nodiscard]] index_t parse_integer(const std::string& value,
                                        const char* flag, index_t lo,
                                        index_t hi) const
    {
        try {
            std::size_t pos = 0;
            const long long v = std::stoll(value, &pos);
            if (pos == value.size() && v >= lo && v <= hi) return v;
        } catch (const std::exception&) {
        }
        std::string what =
            lo > 0 ? "a positive integer" : "a non-negative integer";
        if (hi < INT64_MAX) what += " no larger than " + std::to_string(hi);
        error(std::string(flag) + " expects " + what + ", got '" + value
              + "'");
    }
};

}  // namespace cli
}  // namespace cake
