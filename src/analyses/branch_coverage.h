/**
 * @file
 * Branch coverage (paper Table 4 and Figure 7): records, for every
 * branching instruction (if, br_if, br_table, select), which decisions
 * were taken. The paper's JS version is 14 LOC; Figure 7 shows it.
 */

#ifndef WASABI_ANALYSES_BRANCH_COVERAGE_H
#define WASABI_ANALYSES_BRANCH_COVERAGE_H

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "runtime/analysis.h"

namespace wasabi::analyses {

/** Per-location set of observed branch decisions. */
class BranchCoverage final : public runtime::Analysis {
  public:
    runtime::HookSet
    hooks() const override
    {
        using runtime::HookKind;
        return runtime::HookSet{HookKind::If, HookKind::BrIf,
                                HookKind::BrTable, HookKind::Select};
    }

    void
    onIf(runtime::Location loc, bool condition) override
    {
        addBranch(loc, condition ? 1 : 0);
    }

    void
    onBrIf(runtime::Location loc, runtime::BranchTarget,
           bool condition) override
    {
        addBranch(loc, condition ? 1 : 0);
    }

    void
    onBrTable(runtime::Location loc,
              std::span<const runtime::BranchTarget>,
              runtime::BranchTarget, uint32_t index) override
    {
        addBranch(loc, static_cast<int>(index));
    }

    void
    onSelect(runtime::Location loc, bool condition, wasm::Value,
             wasm::Value) override
    {
        addBranch(loc, condition ? 1 : 0);
    }

    /** br_table's raw index and select's condition are values beyond
     * the site, so only `if` and `br_if` are counted. */
    runtime::HookSet
    countedHooks() const override
    {
        return runtime::HookSet{runtime::HookKind::If,
                                runtime::HookKind::BrIf};
    }

    void
    onCounts(const runtime::HookSite &site,
             std::span<const uint64_t> outcomes) override
    {
        for (int decision = 0; decision < 2; ++decision) {
            if (outcomes[decision] != 0)
                addBranch(site.loc, decision);
        }
    }

    /** Decisions observed at @p loc (empty set if never executed).
     * The reference stays valid until the next hook event. */
    const std::set<int> &
    branches(runtime::Location loc) const
    {
        static const std::set<int> empty;
        auto it = coverage().find(core::packLoc(loc));
        return it == coverage().end() ? empty : it->second;
    }

    /** Number of branch sites executed at least once. */
    size_t sites() const { return sites_.size(); }

    /** Sites where only one of both two-way outcomes was seen. */
    size_t partiallyCoveredTwoWaySites() const;

    std::string report() const;

  private:
    /** The decisions seen at one site: 0 and 1 (the two-way outcomes
     * of if, br_if and select) as bits, any other br_table index in
     * a set. */
    struct Decisions {
        uint8_t twoWay = 0;
        std::set<int> other;
    };

    void
    addBranch(runtime::Location loc, int decision)
    {
        Decisions &d = sites_[core::packLoc(loc)];
        if (decision == 0 || decision == 1)
            d.twoWay |= static_cast<uint8_t>(1u << decision);
        else
            d.other.insert(decision);
        ++events_;
    }

    /** Per-site decision sets, key-ordered (built from the hash map
     * when read after new events). */
    const std::map<uint64_t, std::set<int>> &coverage() const;

    std::unordered_map<uint64_t, Decisions> sites_;
    uint64_t events_ = 0;
    /** coverage() cache, current while coverageEvents_ == events_. */
    mutable std::map<uint64_t, std::set<int>> coverage_;
    mutable uint64_t coverageEvents_ = 0;
};

} // namespace wasabi::analyses

#endif // WASABI_ANALYSES_BRANCH_COVERAGE_H
