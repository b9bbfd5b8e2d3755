/**
 * @file
 * The Wasabi runtime (paper Figure 2, right side): generates one host
 * function per monomorphic low-level hook, decodes its arguments
 * (joining split i64 halves), enriches them with static information
 * (branch targets, instruction immediates, br_table side tables), and
 * dispatches to the high-level hooks of the registered analyses.
 */

#ifndef WASABI_RUNTIME_RUNTIME_H
#define WASABI_RUNTIME_RUNTIME_H

#include <array>
#include <memory>
#include <string>

#include "core/instrument.h"
#include "interp/engine/intrinsic.h"
#include "interp/interpreter.h"
#include "obs/profile.h"
#include "runtime/analysis.h"

namespace wasabi::runtime {

/**
 * Connects an instrumented module with a set of analyses.
 *
 * Typical use (rewrite mode):
 * @code
 *   MyAnalysis analysis;
 *   auto r = core::instrument(module,
 *                             WasabiRuntime::requiredHooks({&analysis}));
 *   WasabiRuntime rt(r.info);
 *   rt.addAnalysis(&analysis);
 *   auto inst = rt.instantiate(r.module);
 *   interp::Interpreter().invokeExport(*inst, "main", args);
 * @endcode
 *
 * Engine-intrinsic mode (DESIGN.md §12) runs the *original* module on
 * the fast engine, which dispatches hooks straight from its inner
 * loop — no rewriting, no low-level hook imports, and no side tables
 * (the engine resolves branch targets and br_table entries itself):
 * @code
 *   auto info = core::buildIntrinsicInfo(module, hooks);
 *   WasabiRuntime rt(info);
 *   rt.addAnalysis(&analysis);
 *   auto inst = rt.instantiateIntrinsic(module);
 *   interp::Interpreter().invokeExport(*inst, "main", args);
 * @endcode
 *
 * The runtime must outlive every instance it instantiated (both modes
 * keep non-owning back-references for dispatch).
 */
class WasabiRuntime : public interp::engine::IntrinsicSink {
  public:
    explicit WasabiRuntime(std::shared_ptr<const core::StaticInfo> info);

    /** Register an analysis (not owned; must outlive the runtime).
     * @p name labels the analysis in profile output; empty means
     * "analysis <index>". */
    void addAnalysis(Analysis *analysis, std::string name = "");

    /** Attach a profile collector (not owned; may be null to detach).
     * When attached and enabled, every dispatch is counted and timed
     * per hook kind and attributed per analysis. */
    void setProfiler(obs::ProfileCollector *profiler);

    /** Union of the analyses' hook sets — the set to instrument for. */
    static HookSet
    requiredHooks(std::initializer_list<const Analysis *> analyses);

    /**
     * Bind every hook import into @p linker. Additional (non-hook)
     * imports of the original program can be registered on the same
     * linker before or after. The dispatch state the bindings refer
     * to is resolved once, when the runtime is constructed; binding
     * into any number of linkers shares it.
     */
    void bindHooks(interp::Linker &linker);

    /** Convenience: bind hooks into a fresh linker (merged with
     * @p extra) and instantiate the instrumented module. Validates
     * first that every hook import the module declares has exactly
     * the low-level type the runtime will dispatch with
     * (@throws interp::LinkError otherwise — a mis-typed hook import
     * must fail at link time, not corrupt dispatch later). */
    std::unique_ptr<interp::Instance>
    instantiate(const wasm::Module &instrumented_module,
                const interp::Linker &extra = {});

    /** Shared-module variant (no module copy): the instance shares
     * @p instrumented_module with its other instances — the
     * multi-tenant serving path. */
    std::unique_ptr<interp::Instance>
    instantiate(std::shared_ptr<const wasm::Module> instrumented_module,
                const interp::Linker &extra = {});

    /** The link-time hook-import type check, exposed for callers that
     * bind hooks into their own linker. @throws interp::LinkError */
    void validateHookImports(const wasm::Module &instrumented_module) const;

    /**
     * Engine-intrinsic mode: instantiate the *original* (un-rewritten)
     * module and attach this runtime as the fast engine's hook sink
     * before the start function runs. The runtime's StaticInfo must
     * come from core::buildIntrinsicInfo.
     * @throws std::invalid_argument if the StaticInfo was produced by
     * the rewriting instrumenter, or if @p original_module already
     * carries rewrite-mode hook imports (combining both modes would
     * double-instrument — a usage error, never silent).
     */
    std::unique_ptr<interp::Instance>
    instantiateIntrinsic(const wasm::Module &original_module,
                         const interp::Linker &extra = {});

    /** Shared-module variant of instantiateIntrinsic (no copy). */
    std::unique_ptr<interp::Instance>
    instantiateIntrinsic(std::shared_ptr<const wasm::Module> original_module,
                         const interp::Linker &extra = {});

    /** Attach intrinsic hooks to an existing instance (invalidates its
     * cached fast-engine translations unless the hook and counted kind
     * sets are unchanged). The kinds that every subscribed analysis
     * only counts compile to engine counters (countedKinds()). Add the
     * analyses and the profiler first. Same guards as
     * instantiateIntrinsic. */
    void attachIntrinsic(interp::Instance &inst);

    /** The hook-site kinds attachIntrinsic compiles to counter probes:
     * those every subscriber lists in countedHooks(), none while a
     * profiler is attached (it times each hook), and br_table only if
     * its End hooks are counted too (DESIGN.md §12). */
    HookSet countedKinds() const;

    /** Detach intrinsic hooks from @p inst (invalidates translations;
     * subsequent runs execute uninstrumented). */
    void detachIntrinsic(interp::Instance &inst);

    /** Fast-engine hook dispatch (engine-intrinsic mode): fires
     * @p site's own hook and, for a taken branch that ends blocks
     * (End hooked), their End hooks. */
    void onHook(interp::Instance &inst,
                const interp::engine::HookSite &site,
                std::span<const wasm::Value> dyn) override;

    /** Counter-probe fold (engine-intrinsic mode): delivers @p site's
     * counts to its subscribers and, for a taken branch that ends
     * blocks, the End counts of those blocks, with the invocation
     * count onHook() would have reached. */
    void onCounts(const interp::engine::HookSite &site,
                  std::span<const uint64_t> outcomes) override;

    const core::StaticInfo &info() const { return *info_; }

    /** Number of low-level hook invocations dispatched so far. */
    uint64_t hookInvocations() const { return invocations_; }

    /** Number of bound low-level hook imports: one per hook the
     * StaticInfo declares, bound once per runtime however many
     * instances it instantiates. */
    size_t boundHookCount() const { return bound_.size(); }

  private:
    using HookSite = interp::engine::HookSite;

    /** Dispatch state of one low-level hook import (rewrite mode),
     * resolved once per runtime. */
    struct BoundHook {
        core::HookSpec spec;
        /** The spec's static site fields (kind, op, block, call
         * variant); the location comes off the wire per call. */
        HookSite site;
        /** Logical (unsplit) dynamic argument types. */
        std::vector<wasm::ValType> argTypes;
        /** Raw (wire) parameter count the low-level hook must be
         * called with: 2 location args + the dynamic args with i64s
         * split if the module was instrumented that way. Checked on
         * every dispatch before any raw_args element is read. */
        size_t expectedRawArgs = 2;
        /** The wire values need decoding: i64 halves to join, or the
         * operand order to rotate (`rotate`). */
        bool decode = false;
        /** select / call_indirect pre: the wire's first operand (the
         * condition, the table index) goes last, as on the stack. */
        bool rotate = false;
        /** The site has a location-dependent static operand (branch
         * target, br_table side table, immediate): dispatch uses the
         * pre-resolved site at the wire location instead of `site`. */
        bool resolved = false;
    };

    /** One analysis subscribed to a hook kind. */
    struct Subscriber {
        Analysis *analysis;
        size_t index; ///< registration order (profile attribution)
    };

    /** Resolve the rewrite-mode dispatch tables (bound_, the site
     * table and the wire scratch) from the StaticInfo. An intrinsic
     * StaticInfo has no hooks, so this reads none of its (empty)
     * side tables. */
    void bindSites();

    /** Rewrite-mode wire decoder: check the arity, decode the
     * location and arguments, and hand the site to fire(). */
    void dispatch(const BoundHook &hook, interp::Instance &inst,
                  std::span<const wasm::Value> raw_args);

    /** The pre-resolved site of @p hook at @p loc.
     * @throws interp::Trap if the module calls the hook at a location
     * that has no such site. */
    const HookSite &resolvedSite(const BoundHook &hook,
                                 core::Location loc) const;

    /** @throws std::invalid_argument if @p m imports rewrite-mode
     * hooks — combining the two instrumentation modes would fire
     * every hook twice. */
    void requireUnrewritten(const wasm::Module &m) const;

    /** One hook invocation, the tail both dispatch() (rewrite mode)
     * and onHook() (intrinsic mode) end in, so the event stream is
     * identical across modes: counts it, times it, and fans out to the
     * analyses subscribed to its kind. @p dyn holds the dynamic
     * arguments in operand-stack order: the instrumenter's order,
     * except that select's condition and call_indirect's table index
     * come last. */
    void fire(interp::Instance &inst, const HookSite &site,
              std::span<const wasm::Value> dyn);

    /** Deliver @p n events of each block in @p ended to the End
     * subscribers' onCounts. */
    void countEnds(std::span<const core::EndedBlock> ended, uint64_t n);

    /** fire()'s fan-out, timing each analysis iff @p kProfiled. */
    template <bool kProfiled>
    void deliver(interp::Instance &inst, const HookSite &site,
                 std::span<const wasm::Value> dyn);

    std::shared_ptr<const core::StaticInfo> info_;
    std::vector<std::string> analysisNames_;
    /** Per hook kind, the analyses subscribed to it, in add order. */
    std::array<std::vector<Subscriber>, core::kNumHookKinds> subscribers_;
    /** Rewrite mode: bound hooks by hook id. */
    std::vector<BoundHook> bound_;
    /** Rewrite mode: the pre-resolved sites of the resolved hooks,
     * found through siteOf_[siteBase_[func] + instr]. */
    std::vector<HookSite> sites_;
    std::vector<uint32_t> siteBase_;
    std::vector<uint32_t> siteOf_;
    /** Rewrite mode: decoded arguments of the current hook call. */
    std::vector<wasm::Value> wire_;
    uint64_t invocations_ = 0;
    obs::ProfileCollector *profiler_ = nullptr;
};

} // namespace wasabi::runtime

#endif // WASABI_RUNTIME_RUNTIME_H
