/**
 * @file
 * The static pass pipeline driver behind `wasabi lint` and
 * `wasabi instrument --optimize-hooks`:
 *
 *  - lintModule() runs every pass (constant propagation,
 *    reachability, dead stores, branch refinement) and renders the
 *    facts as structured diagnostics with stable lint.* codes;
 *  - computePlan() turns the subset of facts that licenses hook
 *    optimizations into a core::HookOptimizationPlan for the
 *    instrumenter;
 *  - planToManifest()/planFromManifest() round-trip the plan through
 *    the JSON optimization manifest that `wasabi instrument
 *    --optimize-hooks` emits and `wasabi check --manifest=` consumes,
 *    so the completeness/exclusivity invariant stays verifiable on
 *    optimized output.
 */

#ifndef WASABI_STATIC_PASSES_PIPELINE_H
#define WASABI_STATIC_PASSES_PIPELINE_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/opt_plan.h"
#include "static/diagnostics.h"
#include "support/json.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::passes {

/** Stable lint diagnostic codes. @{ */
inline constexpr const char *kLintUnreachableCode =
    "lint.unreachable.code";
inline constexpr const char *kLintDeadFunction =
    "lint.deadcode.function";
inline constexpr const char *kLintDeadStore = "lint.deadstore.local";
inline constexpr const char *kLintConstCondition =
    "lint.branch.const-condition";
inline constexpr const char *kLintConstIndex =
    "lint.branch.const-index";
inline constexpr const char *kLintEmptyBlock = "lint.block.empty";
/** Interprocedural codes (refined call graph + effect summaries). */
inline constexpr const char *kLintInterprocDeadFunction =
    "lint.interproc.dead-function";
inline constexpr const char *kLintInterprocNoTargets =
    "lint.interproc.no-targets";
inline constexpr const char *kLintInterprocUnresolvable =
    "lint.interproc.unresolvable-indirect";
inline constexpr const char *kLintInterprocEffectFree =
    "lint.interproc.effect-free-function";
inline constexpr const char *kLintInterprocConstReturn =
    "lint.interproc.const-return";
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
 * an empty result means the linter proved nothing suspicious.
 */
Diagnostics lintModule(const wasm::Module &m);

/**
 * Compute the hook-optimization plan for a validated module: skips
 * for CFG-unreachable sites (never at an `else`, whose begin hook
 * guards the — possibly live — else region), dead functions (under
 * the *refined* call graph, a superset of the whole-table
 * approximation), constant-index br_table narrowings, constant-index
 * call_indirect -> direct-call narrowings, and empty-block begin/end
 * elisions. Claims subsumed by a stronger one (sites inside dead
 * functions, elisions of skipped blocks) are omitted.
 */
core::HookOptimizationPlan computePlan(const wasm::Module &m);

/** (begin, end) instruction pairs of statically-empty blocks/loops of
 * defined function @p func_idx (end == begin + 1). */
std::vector<std::pair<uint32_t, uint32_t>>
emptyBlockPairs(const wasm::Module &m, uint32_t func_idx);

/** Serialize a plan as the JSON optimization manifest. */
std::string planToManifest(const core::HookOptimizationPlan &plan);

/**
 * Read an optimization manifest (see static/manifest.h for the shared
 * strictness rules). Returns std::nullopt and sets @p error on
 * malformed input; the *claims* themselves are verified later by the
 * checker, not here.
 */
std::optional<core::HookOptimizationPlan>
planFromManifest(const json::Value &doc, std::string *error);

/** planFromManifest() over the parse of @p text. */
std::optional<core::HookOptimizationPlan>
planFromManifest(const std::string &text, std::string *error);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_PIPELINE_H
