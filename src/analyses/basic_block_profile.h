/**
 * @file
 * Basic block profiling (paper Table 4): counts how often each
 * function, block, and loop is entered — useful for finding hot code.
 * The paper implements this with the `begin` hook alone (9 LOC of JS).
 */

#ifndef WASABI_ANALYSES_BASIC_BLOCK_PROFILE_H
#define WASABI_ANALYSES_BASIC_BLOCK_PROFILE_H

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "runtime/analysis.h"

namespace wasabi::analyses {

/** Per-block execution counter keyed by (location, block kind). */
class BasicBlockProfile final : public runtime::Analysis {
  public:
    using Key = std::pair<uint64_t, runtime::BlockKind>;

    runtime::HookSet
    hooks() const override
    {
        return runtime::HookSet::only(runtime::HookKind::Begin);
    }

    void
    onBegin(runtime::Location loc, runtime::BlockKind kind) override
    {
        ++counts_[{core::packLoc(loc), kind}];
        ++events_;
    }

    runtime::HookSet
    countedHooks() const override
    {
        return hooks();
    }

    void
    onCounts(const runtime::HookSite &site,
             std::span<const uint64_t> outcomes) override
    {
        counts_[{core::packLoc(site.loc), site.block}] += outcomes[0];
        events_ += outcomes[0];
    }

    /** Execution count of the block beginning at @p loc. */
    uint64_t
    count(runtime::Location loc, runtime::BlockKind kind) const
    {
        auto it = counts_.find({core::packLoc(loc), kind});
        return it == counts_.end() ? 0 : it->second;
    }

    /** Number of distinct blocks entered. */
    size_t distinctBlocks() const { return counts_.size(); }

    /** The hottest blocks, formatted one per line. */
    std::string report(size_t top_n = 10) const;

    /** All counts, key-ordered (built from the hash map when read
     * after new events). */
    const std::map<Key, uint64_t> &counts() const;

  private:
    struct KeyHash {
        size_t
        operator()(const Key &k) const
        {
            return std::hash<uint64_t>()(k.first * 8 +
                                         static_cast<uint64_t>(k.second));
        }
    };

    std::unordered_map<Key, uint64_t, KeyHash> counts_;
    uint64_t events_ = 0;
    /** counts() cache, current while orderedEvents_ == events_. */
    mutable std::map<Key, uint64_t> ordered_;
    mutable uint64_t orderedEvents_ = 0;
};

} // namespace wasabi::analyses

#endif // WASABI_ANALYSES_BASIC_BLOCK_PROFILE_H
