/**
 * @file
 * Branch-target refinement (pass 4): consumes the constant facts of
 * pass 1 and resolves what they mean for control flow — a constant
 * `br_if`/`if` condition pins the taken edge, and a constant
 * `br_table` index collapses the whole jump table to one statically
 * known label (resolved to an absolute target location through the
 * abstract control stack, paper §2.4.4). Feeds `wasabi lint`
 * (lint.branch.*).
 */

#ifndef WASABI_STATIC_PASSES_BRANCH_REFINE_H
#define WASABI_STATIC_PASSES_BRANCH_REFINE_H

#include <cstdint>
#include <vector>

#include "static/passes/constprop.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::passes {

/** A br_if / if whose condition is the same constant on every run. */
struct ConstCondition {
    uint32_t func = 0;
    uint32_t instr = 0;
    uint32_t cond = 0;   ///< the constant condition value
    bool isIf = false;   ///< `if` rather than `br_if`
};

/** A br_table whose index is constant: always the same case. */
struct ConstBrTable {
    uint32_t func = 0;
    uint32_t instr = 0;
    uint32_t index = 0;     ///< the constant index value
    uint32_t label = 0;     ///< relative label the table selects
    uint32_t target = 0;    ///< absolute target instruction index
    bool isDefault = false; ///< index falls into the default case
};

struct BranchRefinements {
    std::vector<ConstCondition> constConditions;
    std::vector<ConstBrTable> constBrTables;
};

/** Refine the branches of defined function @p func_idx using the
 * constant facts computed for the same function. */
BranchRefinements refineBranches(const wasm::Module &m,
                                 uint32_t func_idx,
                                 const ConstFacts &facts);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_BRANCH_REFINE_H
