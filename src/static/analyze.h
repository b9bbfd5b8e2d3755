/**
 * @file
 * The module report behind `wasabi analyze`: per-function control-flow
 * statistics (basic blocks, edges, natural-loop back edges, statically
 * unreachable blocks) computed with the CFG + dataflow framework, plus
 * a call-graph summary with dead (never statically reachable)
 * functions. Used to size instrumentation workloads (how many
 * locations each hook kind will touch) and as a smoke test that the
 * static subsystem agrees with the validator's view of the module.
 */

#ifndef WASABI_STATIC_ANALYZE_H
#define WASABI_STATIC_ANALYZE_H

#include <string>
#include <vector>

#include "wasm/module.h"

namespace wasabi::static_analysis {

/** Control-flow statistics of one defined function. */
struct FunctionStats {
    uint32_t funcIdx = 0;
    uint32_t numInstrs = 0;
    uint32_t numBlocks = 0;      ///< incl. the synthetic exit block
    uint32_t numEdges = 0;
    uint32_t numBackEdges = 0;   ///< loops (head dominates tail)
    uint32_t numUnreachable = 0; ///< blocks unreachable from entry
    bool dead = false;           ///< not reachable in the call graph
};

/** Whole-module summary. */
struct ModuleReport {
    uint32_t numFunctions = 0;
    uint32_t numImportedFunctions = 0;
    uint32_t numInstructions = 0;
    uint32_t numCallEdges = 0;
    std::vector<FunctionStats> functions; ///< defined functions only
    std::vector<uint32_t> deadFunctions;
};

/** Analyze a valid module (call validateModule first); the functions'
 * CFGs are built on one worker per CPU. */
ModuleReport analyzeModule(const wasm::Module &m);

/** Human-readable table. */
std::string toString(const ModuleReport &r);

/** Machine-readable JSON object. */
std::string toJson(const ModuleReport &r);

/** Graphviz rendering of one function's CFG. */
std::string cfgDot(const wasm::Module &m, uint32_t func_idx);

/** Seed call graph as Graphviz: one unlabeled edge per caller-callee
 * pair, dead functions dashed. */
std::string callGraphDot(const wasm::Module &m);

/** Refined call graph (per-site call_indirect edges) as Graphviz,
 * built on one worker per CPU. */
std::string refinedCallGraphDot(const wasm::Module &m);

/**
 * Value-range facts (interval abstract interpretation, argument seeds
 * propagated top-down over the SCC condensation) as a JSON object.
 * Deterministic: byte-identical for any @p num_threads (0 = the
 * automatic worker count of passes::moduleRanges).
 */
std::string rangesJson(const wasm::Module &m, unsigned num_threads = 0);

/** One function's CFG with per-block locals intervals as Graphviz. */
std::string rangesDot(const wasm::Module &m, uint32_t func_idx);

} // namespace wasabi::static_analysis

#endif // WASABI_STATIC_ANALYZE_H
