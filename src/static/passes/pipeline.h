/**
 * @file
 * The static pass pipeline driver behind `wasabi lint`: lintModule()
 * runs every pass (constant propagation, reachability, dead stores,
 * branch refinement, the call graph and value ranges) and
 * renders the facts as structured diagnostics with stable lint.*
 * codes.
 */

#ifndef WASABI_STATIC_PASSES_PIPELINE_H
#define WASABI_STATIC_PASSES_PIPELINE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "static/diagnostics.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::passes {

/** Stable lint diagnostic codes. @{ */
inline constexpr const char *kLintUnreachableCode =
    "lint.unreachable.code";
/** Dead under the Seed call graph; dead only under the Refined one is
 * kLintInterprocDeadFunction. */
inline constexpr const char *kLintDeadFunction =
    "lint.deadcode.function";
inline constexpr const char *kLintDeadStore = "lint.deadstore.local";
inline constexpr const char *kLintConstCondition =
    "lint.branch.const-condition";
inline constexpr const char *kLintConstIndex =
    "lint.branch.const-index";
inline constexpr const char *kLintEmptyBlock = "lint.block.empty";
/** Interprocedural codes (refined call graph). */
inline constexpr const char *kLintInterprocDeadFunction =
    "lint.interproc.dead-function";
inline constexpr const char *kLintInterprocNoTargets =
    "lint.interproc.no-targets";
inline constexpr const char *kLintInterprocUnresolvable =
    "lint.interproc.unresolvable-indirect";
inline constexpr const char *kLintInterprocDeadParam =
    "lint.interproc.dead-param";
/** Value-range codes (interval abstract interpretation). */
inline constexpr const char *kLintRangeOob = "lint.range.oob-access";
inline constexpr const char *kLintRangeGrowDependent =
    "lint.range.grow-dependent-access";
inline constexpr const char *kLintRangeDivByZero =
    "lint.range.div-by-zero";
inline constexpr const char *kLintRangeDeadGuard =
    "lint.range.dead-guard";
/** @} */

/**
 * Run the full pass suite over a validated module and report every
 * finding. Findings are warnings/notes about the *original* program;
 * an empty result means the linter proved nothing suspicious. The
 * per-function passes, both call graphs and the range solver run on
 * one worker per CPU; the findings do not depend on the count. One
 * Refined call graph serves the interprocedural codes and the range
 * solver.
 */
Diagnostics lintModule(const wasm::Module &m);

/** (first, last) inclusive instruction ranges of defined function
 * @p func_idx that its CFG entry never reaches: maximal runs of
 * adjacent unreachable blocks, in instruction order. */
std::vector<std::pair<uint32_t, uint32_t>>
unreachableRanges(const wasm::Module &m, uint32_t func_idx);

/** (begin, end) instruction pairs of statically-empty blocks/loops of
 * defined function @p func_idx (end == begin + 1). */
std::vector<std::pair<uint32_t, uint32_t>>
emptyBlockPairs(const wasm::Module &m, uint32_t func_idx);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_PIPELINE_H
