/**
 * @file
 * The static call graph of a module, built at one of two precisions.
 * It is the static counterpart of the dynamic analyses'
 * `analyses::CallGraph`, which records the edges actually taken at
 * runtime; comparing the two is the classic precision experiment.
 *
 * Roots are the exports, the start function, and every segment
 * function when the table is host-visible; functions unreachable from
 * the roots are statically dead.
 *
 * Each call site is classified:
 *  - Direct: a plain `call` with one known callee.
 *  - IndirectConst: the table index operand is a compile-time constant
 *    (the constprop lattice), the element layout is exact, and the
 *    table is not host-visible — the site resolves to the unique
 *    element-segment target.
 *  - IndirectTyped: the exact slot layout is known; targets are the
 *    type-matching functions actually placed in slots.
 *  - IndirectUnknown: host-visible table, unknown layout, or a Seed
 *    graph; targets are the type-matched segment union (and, on a
 *    host-visible table, consumers must treat the callee set as open
 *    because the host can insert arbitrary exports).
 *  - IndirectNone: no possible target — the call always traps
 *    (constant index out of range / null slot / signature mismatch,
 *    or no type-matching table entry at all).
 *
 * Precision::Seed runs no constant propagation and trusts no slot
 * layout: every `call_indirect` is IndirectUnknown. Precision::Refined
 * resolves each site as above. Every refined callee set is a subset of
 * the seed graph's for the same site and the root set is identical, so
 * refined reachability is a subset of — and refined dead-function
 * detection a superset of — the seed graph's. That monotonicity is
 * what licenses `lint.interproc.dead-function` to report every
 * function the Refined graph proves dead that the Seed graph keeps
 * (`lint.deadcode.function`).
 */

#ifndef WASABI_STATIC_INTERPROC_CALL_GRAPH_H
#define WASABI_STATIC_INTERPROC_CALL_GRAPH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "static/interproc/table_layout.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::interproc {

enum class SiteKind : uint8_t {
    Direct,
    IndirectConst,
    IndirectTyped,
    IndirectUnknown,
    IndirectNone,
};

/** Name, e.g. "direct" or "indirect-const". */
const char *name(SiteKind k);

/** How `call_indirect` sites are resolved. */
enum class Precision : uint8_t {
    Seed,    ///< type-matched segment union; no constprop
    Refined, ///< per-site resolution from constprop and the layout
};

/** One call site of a defined function, with its resolved targets. */
struct CallSite {
    uint32_t func = 0;
    uint32_t instr = 0;
    SiteKind kind = SiteKind::Direct;

    /** The constant table index (IndirectConst only). */
    std::optional<uint32_t> constIndex;

    /** Possible callees (sorted, deduplicated; empty for
     * IndirectNone). */
    std::vector<uint32_t> targets;
};

class CallGraph {
  public:
    /** Build the graph of valid module @p m at @p precision. Functions
     * are scanned for sites on @p workers workers
     * (support::workerCount; 0 = one per CPU); the graph is the same
     * for any count. */
    CallGraph(const wasm::Module &m, Precision precision,
              unsigned workers = 1);

    const TableLayout &table() const { return table_; }

    /** All call sites in (func, instr) order. */
    const std::vector<CallSite> &sites() const { return sites_; }

    /** The site at (func, instr), or nullptr. */
    const CallSite *siteAt(uint32_t func, uint32_t instr) const;

    /** Callees of @p func_idx (sorted, deduplicated). */
    const std::vector<uint32_t> &callees(uint32_t func_idx) const
    {
        return callees_.at(func_idx);
    }

    /** Callers of @p func_idx (sorted, deduplicated). */
    const std::vector<uint32_t> &callers(uint32_t func_idx) const
    {
        return callers_.at(func_idx);
    }

    /** Root set (sorted, deduplicated): exports, start, and every
     * segment function when the table is host-visible. */
    const std::vector<uint32_t> &roots() const { return roots_; }

    bool reachable(uint32_t func_idx) const
    {
        return reachable_.at(func_idx);
    }

    /** Functions (imports included) unreachable from every root. */
    std::vector<uint32_t> deadFunctions() const;

    size_t numFunctions() const { return callees_.size(); }

    /** Distinct (caller, callee) pairs. */
    size_t numEdges() const;

    /** Graphviz rendering with one edge per (site, target): constant
     * sites bold with their index, unresolved sites dashed, dead
     * functions dashed. */
    std::string toDot(const wasm::Module &m) const;

  private:
    TableLayout table_;
    std::vector<CallSite> sites_;
    std::vector<std::vector<uint32_t>> callees_;
    std::vector<std::vector<uint32_t>> callers_;
    std::vector<uint32_t> roots_;
    std::vector<bool> reachable_;
};

} // namespace wasabi::static_analysis::interproc

#endif // WASABI_STATIC_INTERPROC_CALL_GRAPH_H
