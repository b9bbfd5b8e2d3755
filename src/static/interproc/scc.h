/**
 * @file
 * Tarjan SCC condensation of the Refined call graph. The condensation
 * is the DAG the range analysis walks level by level to seed argument
 * intervals (passes/range.h): each SCC is one solver unit, and
 * Tarjan's pop order gives SCC ids in reverse topological order, so
 * descending ids meet every caller before its callees.
 */

#ifndef WASABI_STATIC_INTERPROC_SCC_H
#define WASABI_STATIC_INTERPROC_SCC_H

#include <cstdint>
#include <functional>
#include <vector>

namespace wasabi::static_analysis::interproc {

/** The condensation of a directed graph over nodes 0..n-1. */
struct SccGraph {
    /** Node -> SCC id. Ids are in reverse topological order: every
     * edge goes from a higher id (caller) to a lower id (callee),
     * so ascending id order is bottom-up. */
    std::vector<uint32_t> sccOf;

    /** Per SCC: member nodes, ascending. */
    std::vector<std::vector<uint32_t>> members;

    /** Per SCC: successor (callee) SCCs, sorted, deduplicated, never
     * including the SCC itself. */
    std::vector<std::vector<uint32_t>> succs;

    /** Per SCC: predecessor (caller) SCCs, sorted, deduplicated. */
    std::vector<std::vector<uint32_t>> preds;

    uint32_t numSccs() const
    {
        return static_cast<uint32_t>(members.size());
    }
};

/**
 * Condense the graph with @p n nodes whose successors are given by
 * @p succs_of (iterative Tarjan — no recursion, safe for arbitrarily
 * deep call chains). Deterministic for a given graph.
 */
SccGraph
condense(uint32_t n,
         const std::function<const std::vector<uint32_t> &(uint32_t)>
             &succs_of);

} // namespace wasabi::static_analysis::interproc

#endif // WASABI_STATIC_INTERPROC_SCC_H
