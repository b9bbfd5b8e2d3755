/**
 * @file
 * The high-level analysis API — the C++ rendition of the paper's
 * Table 2. An analysis implements a subset of the 23 hooks; the
 * WasabiRuntime invokes them with pre-computed information (resolved
 * branch targets, resolved indirect-call targets, joined i64 values,
 * instruction mnemonics) so that analysis authors never deal with
 * low-level encoding details.
 */

#ifndef WASABI_RUNTIME_ANALYSIS_H
#define WASABI_RUNTIME_ANALYSIS_H

#include <span>
#include <vector>

#include "core/static_info.h"
#include "interp/engine/intrinsic.h"

namespace wasabi::runtime {

using core::BlockKind;
using core::BranchTarget;
using core::HookKind;
using core::HookSet;
using core::Location;
using interp::engine::HookSite;

/** Dynamic memory argument of a load/store: the runtime address
 * operand plus the static offset immediate (paper Table 2: memarg). */
struct MemArg {
    uint32_t addr = 0;
    uint32_t offset = 0;

    /** The effective (linear memory) address of the access. */
    uint64_t
    effective() const
    {
        return static_cast<uint64_t>(addr) + offset;
    }
};

/**
 * Base class for dynamic analyses. Override the hooks you need and
 * report them from hooks(); selective instrumentation uses exactly
 * that set (paper §2.4.2), so unimplemented hooks cost nothing.
 *
 * Hooks execute synchronously while the analyzed program runs; they
 * must not invoke the interpreter on the same instance.
 */
class Analysis {
  public:
    virtual ~Analysis();

    /** The hook kinds this analysis implements. */
    virtual HookSet hooks() const = 0;

    /** Called when the module's start function begins executing. */
    virtual void onStart(Location loc);

    virtual void onNop(Location loc);
    virtual void onUnreachable(Location loc);

    /** `if` condition observation (block entry is onBegin). */
    virtual void onIf(Location loc, bool condition);

    virtual void onBr(Location loc, BranchTarget target);
    virtual void onBrIf(Location loc, BranchTarget target,
                        bool condition);
    virtual void onBrTable(Location loc,
                           std::span<const BranchTarget> table,
                           BranchTarget default_target, uint32_t index);

    /** Block entry: kind distinguishes function/block/loop/if/else. */
    virtual void onBegin(Location loc, BlockKind kind);

    /** Block exit; @p begin is the location of the matching begin
     * (instr == core::kFunctionEntry for the function block). */
    virtual void onEnd(Location loc, BlockKind kind, Location begin);

    virtual void onConst(Location loc, wasm::Opcode op, wasm::Value value);
    virtual void onUnary(Location loc, wasm::Opcode op, wasm::Value input,
                         wasm::Value result);
    virtual void onBinary(Location loc, wasm::Opcode op, wasm::Value first,
                          wasm::Value second, wasm::Value result);
    virtual void onDrop(Location loc, wasm::Value value);
    virtual void onSelect(Location loc, bool condition, wasm::Value first,
                          wasm::Value second);

    /** op is local.get/local.set/local.tee. */
    virtual void onLocal(Location loc, wasm::Opcode op, uint32_t index,
                         wasm::Value value);
    /** op is global.get/global.set. */
    virtual void onGlobal(Location loc, wasm::Opcode op, uint32_t index,
                          wasm::Value value);

    virtual void onLoad(Location loc, wasm::Opcode op, MemArg memarg,
                        wasm::Value value);
    virtual void onStore(Location loc, wasm::Opcode op, MemArg memarg,
                         wasm::Value value);
    virtual void onMemorySize(Location loc, uint32_t current_pages);
    virtual void onMemoryGrow(Location loc, uint32_t delta,
                              uint32_t previous_pages);

    /**
     * Before a call. @p func is the callee in the *original* module's
     * function index space (indirect calls are resolved through the
     * table, paper §2.3); @p table_index is set iff the call is
     * indirect. An unresolvable indirect target (about to trap) is
     * reported as kUnresolvedFunc.
     */
    virtual void onCallPre(Location loc, uint32_t func,
                           std::span<const wasm::Value> args,
                           std::optional<uint32_t> table_index);
    virtual void onCallPost(Location loc,
                            std::span<const wasm::Value> results);
    virtual void onReturn(Location loc,
                          std::span<const wasm::Value> results);

    /**
     * Counter probes (DESIGN.md §12): the kinds of hooks() this
     * analysis only counts per site, needing no dynamic value beyond
     * the outcomes onCounts() receives. In engine-intrinsic mode a kind
     * every subscribed analysis counts (with no profiler attached)
     * compiles to an engine counter instead of a hook call, and its
     * events arrive in bulk through onCounts(). Elsewhere (rewrite
     * mode, a subscriber or profiler that keeps the kind hooked, the
     * End hooks a hooked branch fires) the hook methods still get
     * them, so an analysis must count the same either way.
     */
    virtual HookSet countedHooks() const;

    /**
     * @p outcomes events of a counted kind at @p site since the last
     * delivery, delivered after the engine leaves the module's code:
     * [false, true] for If and BrIf, one per table entry (the default
     * last) for BrTable, one for every other kind. The End hooks of a
     * taken branch arrive as End sites of their own.
     */
    virtual void onCounts(const HookSite &site,
                          std::span<const uint64_t> outcomes);

    /** Callee reported when an indirect call target cannot be
     * resolved (the call traps immediately afterwards). */
    static constexpr uint32_t kUnresolvedFunc = 0xFFFFFFFF;
};

} // namespace wasabi::runtime

#endif // WASABI_RUNTIME_ANALYSIS_H
