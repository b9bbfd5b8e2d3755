/**
 * @file
 * Value-range abstract interpretation (interval domain) over locals,
 * the operand stack and immutable globals. A forward worklist solver
 * with threshold widening at loop heads and branch-condition edge
 * refinement computes, for every reachable load/store, a sound
 * interval of its dynamic base address; comparison and division facts
 * ride along. Argument intervals are seeded interprocedurally over the
 * Tarjan-SCC condensation of the Refined call graph, level by level
 * (callers before callees), with byte-identical results at any thread
 * count.
 *
 * The facts feed two consumers:
 *  - `wasabi lint` (lint.range.* diagnostics: provably out-of-bounds
 *    accesses, constant division by zero, dead guard branches), and
 *  - `wasabi analyze --ranges` (JSON and per-function DOT views),
 *    which lists each proven access ("in bounds for every execution
 *    given the declared minimum memory", MemAccess::proven).
 * No engine or rewriter acts on a proven access; the dynamic oracle
 * in tests/range_claim_oracle.h checks them against real executions.
 */

#ifndef WASABI_STATIC_PASSES_RANGE_H
#define WASABI_STATIC_PASSES_RANGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "wasm/module.h"

namespace wasabi::static_analysis::interproc {
class CallGraph;
}

namespace wasabi::static_analysis::passes {

/**
 * An unsigned 32-bit interval [lo, hi], lo <= hi. Top is
 * [0, UINT32_MAX]; the empty interval is not representable — an
 * infeasible state is expressed by dropping the CFG edge instead.
 * Values of non-i32 type are always top (sound, just imprecise).
 */
struct Interval {
    uint32_t lo = 0;
    uint32_t hi = 0xFFFFFFFFu;

    static Interval top() { return Interval{}; }
    static Interval exact(uint32_t v) { return Interval{v, v}; }

    bool isTop() const { return lo == 0 && hi == 0xFFFFFFFFu; }
    bool isConst() const { return lo == hi; }

    bool operator==(const Interval &other) const = default;
};

/** Smallest interval containing both. */
Interval hull(const Interval &a, const Interval &b);

/** One memory access with its statically inferred address range. */
struct MemAccess {
    uint32_t instr = 0;  ///< instruction index within the function
    uint32_t offset = 0; ///< static offset immediate
    uint32_t width = 0;  ///< access size in bytes (1, 2, 4 or 8)
    Interval addr;       ///< interval of the dynamic base address
    bool isStore = false;
    /** addr.hi + offset + width <= declared-min-memory bytes: in
     * bounds on every execution (linear memory never shrinks). */
    bool proven = false;
};

/** A br_if/if whose condition the interval domain proves constant. */
struct DeadGuard {
    uint32_t instr = 0;
    uint32_t value = 0; ///< the provably constant condition
};

/** Range facts of one function. */
struct FunctionRanges {
    /** False for imports and for bodies whose solver hit the
     * iteration cap (facts discarded — sound, just silent). */
    bool analyzed = false;

    /** Seeded parameter intervals (top unless every caller was
     * provable; always top for exports/start/indirect targets and
     * recursive functions). */
    std::vector<Interval> args;

    std::vector<MemAccess> accesses;

    /** Div/rem instructions whose divisor is provably zero. */
    std::vector<uint32_t> divByZero;

    std::vector<DeadGuard> deadGuards;

    /** Locals interval at each basic-block entry (per CFG block;
     * meaningless for unreached blocks). Drives the DOT view. */
    std::vector<std::vector<Interval>> blockIn;

    /** Whether each CFG block is reached by the analysis. */
    std::vector<char> blockReached;
};

/** Module-wide range facts. */
struct ModuleRanges {
    bool hasMemory = false;
    uint32_t minPages = 0; ///< declared minimum of memory 0
    std::vector<FunctionRanges> functions; ///< by function index
};

/**
 * Run the interprocedural range analysis over the call graph @p cg of
 * @p m (every production caller passes a Precision::Refined graph) on
 * @p num_threads workers (support::workerCount: 0 = one per CPU,
 * clamped to each level's SCC count; tests pass 1 for the serial
 * reference). The SCCs of the condensation are solved level by
 * level, where an SCC's level is the longest path to it from a
 * source SCC: every caller of an SCC sits on a lower level, so one
 * level's SCCs are independent. The result is byte-identical for any
 * thread count (argument seeds are commutative joins, merged after
 * each level in SCC order).
 */
ModuleRanges moduleRanges(const wasm::Module &m,
                          const interproc::CallGraph &cg,
                          unsigned num_threads = 0);

/** moduleRanges over a Refined call graph built on @p num_threads
 * workers. */
ModuleRanges moduleRanges(const wasm::Module &m, unsigned num_threads = 0);

/**
 * Test-only: override the per-function solver pop budget (0 restores
 * the default 64·blocks+4096 formula). Forces the iteration cap
 * deterministically so tests can cover the discard path; never set in
 * production — `lint`, `analyze --ranges` and the oracle must all see
 * the same facts for one module.
 */
void setRangeSolverBudgetForTest(uint64_t budget);

// ----- views -------------------------------------------------------------

/** Deterministic JSON rendering of the module's range facts. */
std::string rangesToJson(const wasm::Module &m, const ModuleRanges &mr);

/** CFG DOT of one function with per-block locals intervals. */
std::string rangesDot(const wasm::Module &m, const ModuleRanges &mr,
                      uint32_t func_idx);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_RANGE_H
