#include "common/issue.hpp"

#include <algorithm>
#include <ostream>

namespace cake {

bool IssueList::has(std::string_view code) const
{
    return std::any_of(issues.begin(), issues.end(),
                       [&](const Issue& issue) { return issue.code == code; });
}

std::string IssueList::codes() const
{
    std::vector<std::string_view> seen;
    std::string out;
    for (const Issue& issue : issues) {
        if (std::find(seen.begin(), seen.end(), issue.code) != seen.end()) {
            continue;
        }
        seen.push_back(issue.code);
        if (!out.empty()) out += ',';
        out += issue.code;
    }
    return out;
}

void print_issues(std::ostream& os, const std::vector<Issue>& issues,
                  std::string_view indent)
{
    for (const Issue& issue : issues) {
        os << indent << "[" << issue.code << "] " << issue.message << "\n";
    }
}

}  // namespace cake
