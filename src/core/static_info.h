/**
 * @file
 * Static information produced during instrumentation and consumed by
 * the Wasabi runtime — the C++ equivalent of the `info` object the
 * paper's instrumenter generates alongside the instrumented binary
 * (Figure 2): resolved branch targets, br_table side tables with the
 * blocks ended by each entry, block begin/end matchings, the original
 * module, and the list of generated low-level hooks. The side tables
 * are built on demand (sideTables()), by the callers that read them.
 */

#ifndef WASABI_CORE_STATIC_INFO_H
#define WASABI_CORE_STATIC_INFO_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/control_stack.h"
#include "core/hook_map.h"
#include "wasm/module.h"

namespace wasabi::core {

/** A code location in the *original* module: (function, instruction).
 * The instruction index kFunctionEntry denotes function entry. */
struct Location {
    uint32_t func = 0;
    uint32_t instr = 0;

    bool operator==(const Location &other) const = default;
};

/** Pack a location into a map key. */
inline uint64_t
packLoc(Location loc)
{
    return (static_cast<uint64_t>(loc.func) << 32) | loc.instr;
}

/** A statically resolved branch destination (paper §2.4.4): the raw
 * relative label plus the absolute location of the next instruction
 * executed if the branch is taken. */
struct BranchTarget {
    uint32_t label = 0;
    Location location;

    bool operator==(const BranchTarget &other) const = default;
};

/** One block "traversed" (left) by a branch (paper §2.4.5). */
struct EndedBlock {
    BlockKind kind = BlockKind::Block;
    Location end;   ///< location of the block's end instruction
    Location begin; ///< location of the block's begin

    bool operator==(const EndedBlock &other) const = default;
};

/** One resolved br_table entry with the blocks its jump ends. */
struct BrTableEntry {
    BranchTarget target;
    std::vector<EndedBlock> ended;

    bool operator==(const BrTableEntry &other) const = default;
};

/** Side table of one br_table instruction: per-case entries plus the
 * default; the low-level hook selects among them at runtime. */
struct BrTableInfo {
    std::vector<BrTableEntry> cases;
    BrTableEntry defaultCase;
    /** The cases' targets in order, built once with the table: the
     * span the runtime hands to every br_table hook. */
    std::vector<BranchTarget> targets;

    /** Build a table from its per-label entries, default last. */
    static BrTableInfo fromEntries(std::vector<BrTableEntry> entries);

    /** The entry a runtime index selects (out of range: default). */
    const BrTableEntry &
    select(uint32_t index) const
    {
        return index < cases.size() ? cases[index] : defaultCase;
    }

    bool operator==(const BrTableInfo &other) const = default;
};

/** Begin/kind of the block closed at some end (or else) location. */
struct BlockEndInfo {
    BlockKind kind = BlockKind::Block;
    Location begin;

    bool operator==(const BlockEndInfo &other) const = default;
};

/** The per-location side tables the runtime resolves branches and
 * block ends through, keyed by packLoc of original locations. */
struct SideTables {
    /** Resolved targets of br and br_if instructions. */
    std::unordered_map<uint64_t, BranchTarget> brTargets;

    /** Side tables of br_table instructions. */
    std::unordered_map<uint64_t, BrTableInfo> brTables;

    /** Block info keyed by end (and else) locations. */
    std::unordered_map<uint64_t, BlockEndInfo> blockEnds;

    bool operator==(const SideTables &other) const = default;
};

/** The block a branch in function @p func_idx leaves by traversing
 * frame @p f: the frame's region (ControlFrame::regionBegin/End). */
inline EndedBlock
endedBlock(uint32_t func_idx, const ControlFrame &f)
{
    return EndedBlock{f.kind, Location{func_idx, f.regionEnd()},
                      Location{func_idx, f.regionBegin()}};
}

/**
 * Record the side-table entries of instruction @p instr at
 * (@p func_idx, @p instr_idx) into @p out; @p state is the abstract
 * state *before* the instruction. Every `end`/`else` gets its
 * block-end info, live or not; live br/br_if get their resolved
 * target and live br_tables their side table. sideTables() calls this
 * for every instruction of a module; the instrumenter does not, so
 * neither byte-path nor intrinsic-mode StaticInfo carries side tables.
 */
void recordSideTables(const AbstractState &state, const wasm::Instr &instr,
                      uint32_t func_idx, uint32_t instr_idx,
                      SideTables &out);

/**
 * The side tables of every defined function of @p m (which must
 * validate): each function is walked with an AbstractState on one of
 * @p workers workers (0 = one per CPU), recording every instruction
 * with recordSideTables. The result does not depend on the count.
 */
SideTables sideTables(const wasm::Module &m, unsigned workers);

/** All static information about one instrumentation run; its side
 * tables are the inherited SideTables members, empty unless the caller
 * filled them from sideTables() (core::instrument does). */
class StaticInfo : public SideTables {
  public:
    /** The original, uninstrumented module (locations refer to it),
     * shared with whoever else holds it (a serve cache entry holds one
     * module for all its hook sets). */
    std::shared_ptr<const wasm::Module> original;

    /** Number of functions the original module imports; hook imports
     * occupy indices [numOrigImports, numOrigImports + hooks.size()). */
    uint32_t numOrigImports = 0;

    /** Whether i64 hook arguments travel as (low, high) i32 pairs. */
    bool splitI64 = true;

    /** Generated low-level hooks, indexed by hook id. */
    std::vector<HookSpec> hooks;

    /** The hook kinds this run instrumented. */
    HookSet instrumentedHooks;

    /** Function index of a hook id in the instrumented module. */
    uint32_t
    hookFuncIdx(uint32_t hook_id) const
    {
        return numOrigImports + hook_id;
    }

    /** Map a function index of the *instrumented* module back to the
     * original index space (hook imports have no original index and
     * must not be passed here). */
    uint32_t
    unmapFuncIdx(uint32_t instrumented_idx) const
    {
        if (instrumented_idx < numOrigImports)
            return instrumented_idx;
        return instrumented_idx - static_cast<uint32_t>(hooks.size());
    }

    /** Lookup helpers for the static checker (`wasabi check`); return
     * nullptr when no metadata was recorded at the location. @{ */
    const BranchTarget *
    findBrTarget(Location loc) const
    {
        auto it = brTargets.find(packLoc(loc));
        return it == brTargets.end() ? nullptr : &it->second;
    }

    const BrTableInfo *
    findBrTable(Location loc) const
    {
        auto it = brTables.find(packLoc(loc));
        return it == brTables.end() ? nullptr : &it->second;
    }

    const BlockEndInfo *
    findBlockEnd(Location loc) const
    {
        auto it = blockEnds.find(packLoc(loc));
        return it == blockEnds.end() ? nullptr : &it->second;
    }
    /** @} */
};

} // namespace wasabi::core

#endif // WASABI_CORE_STATIC_INFO_H
