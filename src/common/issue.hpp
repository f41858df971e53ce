// The one coded-issue type every static checker reports through: the
// plan auditor, the tuning-cache loader and the schedule-IR, numerics,
// locality and kernel-IR verifiers. Each report derives from IssueList
// and keeps only its own payload fields on top.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cake {

/// One violated invariant: a stable machine-greppable code plus a human
/// diagnostic carrying the numbers involved.
struct Issue {
    std::string code;     ///< e.g. "L2_RESIDENCY", "IR_COVER"
    std::string message;  ///< precise diagnostic
};

struct IssueList {
    std::vector<Issue> issues;

    [[nodiscard]] bool ok() const { return issues.empty(); }
    [[nodiscard]] bool has(std::string_view code) const;
    /// Each distinct code once, in first-seen order, joined with ','
    /// ("IR_ORDER,IR_LIFETIME"); empty when ok.
    [[nodiscard]] std::string codes() const;
};

/// Appends to `list` at most kMaxPerCheck issues per check: a corrupt
/// input yields its characteristic code a few times, not thousands of
/// echoes of the same root cause.
struct IssueSink {
    static constexpr std::size_t kMaxPerCheck = 4;

    IssueList& list;
    std::size_t count = 0;

    [[nodiscard]] bool full() const { return count >= kMaxPerCheck; }
    void add(std::string code, std::string message)
    {
        if (full()) return;
        list.issues.push_back({std::move(code), std::move(message)});
        ++count;
    }
};

/// Print one "<indent>[CODE] message" line per issue.
void print_issues(std::ostream& os, const std::vector<Issue>& issues,
                  std::string_view indent = "  ");

}  // namespace cake
