/**
 * @file
 * Engine-intrinsic instrumentation (DESIGN.md §12): the hook side
 * table the translator emits when a HookSet is attached to a
 * CompiledModule, and the sink interface the VM dispatches into.
 *
 * In intrinsic mode no binary rewriting happens at all. The
 * translator interleaves FOp::Hook slots (each pointing at one
 * HookSite) with the ordinary pre-decoded code, for exactly the hook
 * kinds the attached HookSet subscribes to — unhooked instruction
 * classes translate to the same code as an uninstrumented run and pay
 * zero cost. Values a hook must observe but that the instruction
 * consumes (store operands, binary-op inputs, ...) are captured by a
 * preceding FOp::HookStash slot into a small per-invocation stash.
 *
 * Counter probes: a kind the attached runtime only counts translates
 * to FOp::Count / FOp::CountCond slots instead, which bump a dense
 * per-function counter; the counts reach the sink in bulk when the
 * outermost invocation leaves the VM.
 */

#ifndef WASABI_INTERP_ENGINE_INTRINSIC_H
#define WASABI_INTERP_ENGINE_INTRINSIC_H

#include <cstdint>
#include <span>

#include "core/hook_kind.h"
#include "core/static_info.h"
#include "wasm/module.h"

namespace wasabi::interp {

class Instance;

namespace engine {

/**
 * One hook site, pre-resolved: everything needed to reconstruct the
 * exact high-level hook invocation the rewriting instrumenter would
 * have produced at this source location, so dispatching it needs no
 * lookup. The translator emits one per FOp::Hook slot (intrinsic
 * mode); the runtime binds the same description for the hook calls
 * of a rewritten module (rewrite mode), and both dispatch through it.
 * `peek` operand-stack values are read in place below the stack top
 * at dispatch time; `stash` values were captured earlier by a
 * HookStash slot.
 */
struct HookSite {
    core::HookKind kind = core::HookKind::Nop;
    core::BlockKind block = core::BlockKind::Function; ///< Begin/End
    /** Const/Unary/Binary/Local/Global/Load/Store: the opcode. */
    wasm::Opcode op = wasm::Opcode::Nop;
    bool post = false;     ///< call_post (vs call_pre)
    bool indirect = false; ///< call_indirect (vs direct call)
    uint8_t peek = 0;  ///< live values read below the stack top
    uint8_t stash = 0; ///< values captured by the paired HookStash
    core::Location loc{};
    /** The site's static operand: End, the instruction index of the
     * matching block begin; Br/BrIf, the relative label; Local/Global,
     * the variable index; Load/Store, the memarg offset; direct
     * call_pre, the callee (original function index space). */
    uint32_t index = 0;
    /** Br/BrIf: instruction index the taken branch continues at (in
     * loc.func) — the resolved BranchTarget location. */
    uint32_t target = 0;
    /** BrTable: the side table (targets and per-entry ended blocks),
     * owned by whoever owns the site. */
    const core::BrTableInfo *table = nullptr;
    /** Br/BrIf/Return, intrinsic mode with End hooked: blocks the taken
     * branch ends, innermost first (the sink fires one End hook per
     * entry), owned by whoever owns the site. */
    std::span<const core::EndedBlock> ended;

    /** Br/BrIf: the resolved branch target. */
    core::BranchTarget
    branchTarget() const
    {
        return core::BranchTarget{index, core::Location{loc.func, target}};
    }
};

/**
 * Receiver of intrinsic hook dispatches. The VM calls onHook() with
 * batched accounting already flushed, so a sink reading ExecStats (or
 * fuel) from inside a hook observes exact per-instruction counts —
 * the same guarantee rewrite mode gets from the host-call boundary.
 */
class IntrinsicSink {
  public:
    virtual ~IntrinsicSink() = default;

    /**
     * One hook fired at @p site. @p dyn holds its dynamic arguments in
     * operand-stack order: the `site.stash` values the instruction
     * consumed (captured by the paired HookStash), followed by the
     * `site.peek` live values ending at the stack top.
     */
    virtual void onHook(Instance &inst, const HookSite &site,
                        std::span<const wasm::Value> dyn) = 0;

    /**
     * The events a counted site (FOp::Count / FOp::CountCond) saw
     * since the last delivery, by outcome: [false, true] for If and
     * BrIf, one per table entry (the default last) for BrTable, one
     * otherwise. Called for every site with a non-zero count when the
     * outermost invocation leaves the VM, whether it returns or traps.
     */
    virtual void onCounts(const HookSite &site,
                          std::span<const uint64_t> outcomes) = 0;
};

} // namespace engine
} // namespace wasabi::interp

#endif // WASABI_INTERP_ENGINE_INTRINSIC_H
