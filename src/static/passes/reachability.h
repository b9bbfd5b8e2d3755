/**
 * @file
 * Reachability (pass 2): intra-procedural unreachable basic blocks
 * (from the CFG entry, read off the CFG's depth-first search)
 * plus call-graph dead functions (unreachable from any export, the
 * start function, or a host-visible table). Feeds `wasabi lint`
 * (lint.unreachable.code / lint.deadcode.function).
 */

#ifndef WASABI_STATIC_PASSES_REACHABILITY_H
#define WASABI_STATIC_PASSES_REACHABILITY_H

#include <cstdint>
#include <vector>

#include "wasm/module.h"

namespace wasabi::static_analysis::passes {

/** One maximal CFG-unreachable instruction range of a function. */
struct UnreachableRange {
    uint32_t func = 0;
    uint32_t first = 0; ///< inclusive
    uint32_t last = 0;  ///< inclusive
};

struct ReachabilityFacts {
    /** Unreachable basic blocks, in (func, first) order. */
    std::vector<UnreachableRange> unreachableBlocks;

    /** Defined functions unreachable from the call-graph roots. */
    std::vector<uint32_t> deadFunctions;
};

/** Compute reachability facts for the whole validated module. */
ReachabilityFacts reachabilityFacts(const wasm::Module &m);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_REACHABILITY_H
