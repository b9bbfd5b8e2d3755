#include "analyses/basic_block_profile.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace wasabi::analyses {

const std::map<BasicBlockProfile::Key, uint64_t> &
BasicBlockProfile::counts() const
{
    if (orderedEvents_ != events_) {
        ordered_ = std::map<Key, uint64_t>(counts_.begin(), counts_.end());
        orderedEvents_ = events_;
    }
    return ordered_;
}

std::string
BasicBlockProfile::report(size_t top_n) const
{
    // Sorted from the key-ordered map: std::sort is unstable, so the
    // report's order among equal counts depends on its input order.
    using Entry = std::pair<Key, uint64_t>;
    std::vector<Entry> sorted(counts().begin(), counts().end());
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) {
                  return a.second > b.second;
              });
    std::ostringstream os;
    os << "distinct blocks entered: " << counts_.size() << "\n";
    for (size_t i = 0; i < sorted.size() && i < top_n; ++i) {
        uint64_t packed = sorted[i].first.first;
        os << "  func " << (packed >> 32) << " @"
           << static_cast<int32_t>(packed & 0xFFFFFFFF) << " ("
           << name(sorted[i].first.second) << "): " << sorted[i].second
           << "\n";
    }
    return os.str();
}

} // namespace wasabi::analyses
