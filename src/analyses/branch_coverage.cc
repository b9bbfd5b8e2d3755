#include "analyses/branch_coverage.h"

#include <sstream>

namespace wasabi::analyses {

const std::map<uint64_t, std::set<int>> &
BranchCoverage::coverage() const
{
    if (coverageEvents_ != events_) {
        coverage_.clear();
        for (const auto &[packed, d] : sites_) {
            std::set<int> decisions = d.other;
            for (int bit = 0; bit < 2; ++bit) {
                if (d.twoWay & (1u << bit))
                    decisions.insert(bit);
            }
            coverage_.emplace(packed, std::move(decisions));
        }
        coverageEvents_ = events_;
    }
    return coverage_;
}

size_t
BranchCoverage::partiallyCoveredTwoWaySites() const
{
    size_t n = 0;
    for (const auto &[loc, d] : sites_) {
        if (d.other.empty() && (d.twoWay == 1 || d.twoWay == 2))
            ++n;
    }
    return n;
}

std::string
BranchCoverage::report() const
{
    std::ostringstream os;
    os << "branch sites executed: " << sites_.size()
       << ", partially covered two-way sites: "
       << partiallyCoveredTwoWaySites() << "\n";
    for (const auto &[packed, decisions] : coverage()) {
        os << "  func " << (packed >> 32) << " @" << (packed & 0xFFFFFFFF)
           << ":";
        for (int d : decisions)
            os << " " << d;
        os << "\n";
    }
    return os.str();
}

} // namespace wasabi::analyses
