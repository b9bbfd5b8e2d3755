/**
 * @file
 * The instrumentation-invariant checker behind `wasabi check`: given
 * an original module and its Wasabi-instrumented counterpart, it
 * statically verifies the properties the paper's RQ2 faithfulness
 * argument rests on:
 *
 *  - every low-level hook import is monomorphic and well-typed
 *    (§2.4.3): its name parses back to a unique HookSpec whose
 *    lowLevelType matches the import's declared function type;
 *  - selective instrumentation (§2.4.2): every reachable instruction
 *    of an enabled hook class carries a hook call at its exact
 *    (function, instruction) location, and no instruction of a
 *    disabled class is instrumented;
 *  - hook-call locations are constant and consistent: the two leading
 *    i32 arguments are literal constants naming an original-module
 *    location whose instruction class matches the hook's kind;
 *  - i64 splitting (§2.4.6): at every hook call site, each i64
 *    operand travels as a (low, high) pair of i32s derived from the
 *    same value;
 *  - br_table side tables (§2.4.5) cover every target, with branch
 *    targets and traversed-block lists matching an independent
 *    re-resolution via the abstract control stack;
 *  - module structure is preserved: function/global/memory/table
 *    signatures, exports, element segments and the start function
 *    survive instrumentation modulo the hook-import index shift.
 *
 * Hook calls are recovered from the instrumented binary with a small
 * symbolic evaluator over each function body (a degenerate forward
 * dataflow on straight-line regions), so the checker is independent
 * of the instrumenter's traversal order and works on binaries from
 * parallel instrumentation runs, where hook ids are nondeterministic.
 */

#ifndef WASABI_STATIC_CHECK_H
#define WASABI_STATIC_CHECK_H

#include <optional>

#include "core/static_info.h"
#include "static/diagnostics.h"

namespace wasabi::static_analysis {

/**
 * What the two-binary path cannot recover from the binaries alone.
 * The rest is derived: hook imports live in core::kHookImportModule,
 * the i64-split ABI is read off the hook import types, and the
 * br_table side tables, which are not part of the artifact, are
 * re-derived by re-running the instrumenter on the original (which
 * also cross-checks that the binary's hook-import set matches what
 * the instrumenter produces today).
 */
struct CheckOptions {
    /** The hook kinds that were requested at instrumentation time.
     * When unset, the set is inferred from the hook imports actually
     * present (an enabled-but-unused kind leaves no trace, so
     * inference is exact for coverage purposes but cannot flag
     * imports of kinds the user never enabled). */
    std::optional<core::HookSet> hooks;
};

/**
 * Check @p instrumented against @p original. Returns all findings;
 * an empty list means every invariant holds.
 */
Diagnostics checkInstrumentation(const wasm::Module &original,
                                 const wasm::Module &instrumented,
                                 const CheckOptions &opts = {});

/**
 * Check with full instrumentation metadata (the in-process path used
 * by tests and the fuzz harness): hook identities, the enabled hook
 * set, the split flag and the side tables come from @p info instead
 * of being recovered from the binary.
 */
Diagnostics checkInstrumentation(const core::StaticInfo &info,
                                 const wasm::Module &instrumented);

} // namespace wasabi::static_analysis

#endif // WASABI_STATIC_CHECK_H
