/**
 * @file
 * Constant/stack-value propagation (pass 1 of the lint/optimizer
 * pipeline): a forward dataflow instance over the PR-1 solver whose
 * lattice element maps every i32 local to ⊥ / a known constant / ⊤,
 * combined with a per-block symbolic operand-stack evaluation that
 * folds i32 arithmetic over known values.
 *
 * The extracted facts are the constant-controlled branch points:
 * `br_if`/`if` conditions and `br_table` indices whose value is the
 * same compile-time constant on every execution. They feed
 * `wasabi lint` (lint.branch.const-condition / const-index) and the
 * refined call graph's constant-index call_indirect resolution.
 */

#ifndef WASABI_STATIC_PASSES_CONSTPROP_H
#define WASABI_STATIC_PASSES_CONSTPROP_H

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "wasm/module.h"

namespace wasabi::static_analysis::passes {

/** Constant-valued branch controls of one defined function, keyed by
 * core::packLoc-packed (function, instruction) location. */
struct ConstFacts {
    /** br_if locations whose condition is always this constant. */
    std::unordered_map<uint64_t, uint32_t> brIfCond;

    /** if locations whose condition is always this constant. */
    std::unordered_map<uint64_t, uint32_t> ifCond;

    /** br_table locations whose index is always this constant. */
    std::unordered_map<uint64_t, uint32_t> brTableIndex;

    /** call_indirect locations whose table index is always this
     * constant (feeds the interprocedural call_indirect refinement
     * and the call-hook narrowing plan). */
    std::unordered_map<uint64_t, uint32_t> callIndirectIndex;

    bool
    empty() const
    {
        return brIfCond.empty() && ifCond.empty() &&
               brTableIndex.empty() && callIndirectIndex.empty();
    }
};

/**
 * Run constant propagation over defined function @p func_idx of the
 * validated module @p m. Only facts in CFG-reachable blocks are
 * reported. Deterministic: the checker re-runs this to verify
 * manifest claims.
 */
ConstFacts constantFacts(const wasm::Module &m, uint32_t func_idx);

/**
 * Fold an i32-producing unary operator over a known operand; nullopt
 * when the operator is not a foldable i32 op. Shared by the symbolic
 * stack evaluation above, the `wasabi opt` const-fold pass, and the
 * manifest checker that re-proves its claims.
 */
std::optional<uint32_t> foldI32Unary(wasm::Opcode op, uint32_t a);

/** Binary counterpart of foldI32Unary. Trapping operand combinations
 * (division by zero, INT_MIN / -1) return nullopt — the instruction
 * never completes, so replacing it with a constant would be unsound. */
std::optional<uint32_t> foldI32Binary(wasm::Opcode op, uint32_t a,
                                      uint32_t b);

/**
 * The compile-time value of global @p global_idx if it is immutable,
 * defined (not imported — an import's value is only known at link
 * time), of type i32, and initialized by an `i32.const` expression.
 * Every `global.get` of such a global yields this constant on every
 * execution; constant propagation and the range analysis both use it.
 */
std::optional<uint32_t>
immutableI32GlobalInit(const wasm::Module &m, uint32_t global_idx);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_CONSTPROP_H
