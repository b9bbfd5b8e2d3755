#include "runtime/runtime.h"

#include <cassert>
#include <stdexcept>

#include "interp/engine/code.h"

namespace wasabi::runtime {

using core::HookSpec;
using core::StaticInfo;
using interp::Instance;
using interp::Linker;
using wasm::Value;
using wasm::ValType;

WasabiRuntime::WasabiRuntime(std::shared_ptr<const StaticInfo> info)
    : info_(std::move(info))
{
}

void
WasabiRuntime::addAnalysis(Analysis *analysis, std::string name)
{
    analyses_.push_back(analysis);
    analysisNames_.push_back(std::move(name));
    if (profiler_)
        profiler_->setAnalysisNames(analysisNames_);
}

void
WasabiRuntime::setProfiler(obs::ProfileCollector *profiler)
{
    profiler_ = profiler;
    if (profiler_)
        profiler_->setAnalysisNames(analysisNames_);
}

HookSet
WasabiRuntime::requiredHooks(std::initializer_list<const Analysis *> analyses)
{
    HookSet set;
    for (const Analysis *a : analyses)
        set |= a->hooks();
    return set;
}

void
WasabiRuntime::bindHooks(Linker &linker)
{
    for (const HookSpec &spec : info_->hooks) {
        auto bound = std::make_shared<BoundHook>();
        bound->spec = spec;
        // Resolve the logical argument types once; the dispatch path
        // runs per executed instruction and must not recompute them.
        wasm::FuncType logical =
            core::lowLevelType(spec, /*split_i64=*/false);
        bound->argTypes.assign(logical.params.begin() + 2,
                               logical.params.end());
        // Raw arity as dispatched on the wire: the split-i64 type's
        // parameter count. Checked before reading any raw argument.
        bound->expectedRawArgs =
            core::lowLevelType(spec, info_->splitI64).params.size();
        bound_.push_back(bound);
        linker.func(info_->importModule, mangledName(spec),
                    [this, bound](Instance &inst,
                                  std::span<const Value> args,
                                  std::vector<Value> &) {
                        dispatch(*bound, inst, args);
                    });
    }
}

void
WasabiRuntime::validateHookImports(
    const wasm::Module &instrumented_module) const
{
    for (const wasm::Function &f : instrumented_module.functions) {
        if (!f.imported() || f.import->module != info_->importModule)
            continue;
        const core::HookSpec *spec = nullptr;
        for (const core::HookSpec &s : info_->hooks) {
            if (mangledName(s) == f.import->name) {
                spec = &s;
                break;
            }
        }
        if (!spec) {
            throw interp::LinkError(
                "module imports unknown wasabi hook \"" +
                info_->importModule + "." + f.import->name + "\"");
        }
        const wasm::FuncType &declared =
            instrumented_module.types.at(f.typeIdx);
        wasm::FuncType expected =
            core::lowLevelType(*spec, info_->splitI64);
        if (!(declared == expected)) {
            throw interp::LinkError(
                "hook import \"" + info_->importModule + "." +
                f.import->name + "\" has type " + toString(declared) +
                " but the runtime dispatches it as " +
                toString(expected) +
                " (module instrumented with different options?)");
        }
    }
}

std::unique_ptr<Instance>
WasabiRuntime::instantiate(const wasm::Module &instrumented_module,
                           const Linker &extra)
{
    return instantiate(
        std::make_shared<const wasm::Module>(instrumented_module), extra);
}

std::unique_ptr<Instance>
WasabiRuntime::instantiate(
    std::shared_ptr<const wasm::Module> instrumented_module,
    const Linker &extra)
{
    validateHookImports(*instrumented_module);
    Linker linker;
    linker.merge(extra);
    bindHooks(linker);
    return Instance::instantiate(std::move(instrumented_module), linker);
}

void
WasabiRuntime::decodeArgs(const BoundHook &hook,
                          std::span<const Value> raw,
                          std::vector<Value> &out) const
{
    size_t k = 0;
    out.reserve(hook.argTypes.size());
    for (ValType t : hook.argTypes) {
        if (t == ValType::I64 && info_->splitI64) {
            uint64_t lo = raw[k].i32();
            uint64_t hi = raw[k + 1].i32();
            out.push_back(Value::makeI64((hi << 32) | lo));
            k += 2;
        } else {
            // Raw hook params arrive with their wire type; re-tag so
            // analyses see a properly typed Value.
            out.push_back(Value(t, raw[k].bits));
            k += 1;
        }
    }
    assert(k == raw.size());
}

void
WasabiRuntime::dispatch(const BoundHook &hook, Instance &inst,
                        std::span<const Value> raw_args)
{
    const HookSpec &spec = hook.spec;
    // Arity guard before any raw_args element is read: a hook called
    // with the wrong argument count (hand-edited module, stale
    // StaticInfo, mismatched splitI64) must trap with a diagnostic,
    // not read past the caller's argument span.
    if (raw_args.size() != hook.expectedRawArgs) {
        throw interp::Trap(
            interp::TrapKind::HostError,
            "wasabi hook arity mismatch: \"" + mangledName(spec) +
                "\" dispatched with " +
                std::to_string(raw_args.size()) +
                " raw argument(s), expected " +
                std::to_string(hook.expectedRawArgs));
    }
    Location loc{raw_args[0].i32(), raw_args[1].i32()};
    std::vector<Value> dyn;
    decodeArgs(hook, raw_args.subspan(2), dyn);
    fire(spec, inst, loc, dyn);
}

void
WasabiRuntime::fire(const HookSpec &spec, Instance &inst, Location loc,
                    std::span<const Value> dyn)
{
    ++invocations_;
    const bool prof = profiler_ && profiler_->enabled();
    const uint64_t t_begin = prof ? profiler_->now() : 0;

    auto forEach = [this, &spec, prof](HookKind kind, auto &&fn) {
        (void)spec;
        for (size_t i = 0; i < analyses_.size(); ++i) {
            Analysis *a = analyses_[i];
            if (!a->hooks().has(kind))
                continue;
            if (prof) {
                uint64_t t0 = profiler_->now();
                fn(*a);
                profiler_->addAnalysisHook(i, kind,
                                           profiler_->now() - t0);
            } else {
                fn(*a);
            }
        }
    };

    switch (spec.kind) {
      case HookKind::Start:
        forEach(HookKind::Start,
                [&](Analysis &a) { a.onStart(loc); });
        break;
      case HookKind::Nop:
        forEach(HookKind::Nop, [&](Analysis &a) { a.onNop(loc); });
        break;
      case HookKind::Unreachable:
        forEach(HookKind::Unreachable,
                [&](Analysis &a) { a.onUnreachable(loc); });
        break;
      case HookKind::If:
        forEach(HookKind::If, [&](Analysis &a) {
            a.onIf(loc, dyn[0].i32() != 0);
        });
        break;
      case HookKind::Br: {
        core::BranchTarget target =
            info_->brTargets.at(core::packLoc(loc));
        forEach(HookKind::Br,
                [&](Analysis &a) { a.onBr(loc, target); });
        break;
      }
      case HookKind::BrIf: {
        core::BranchTarget target =
            info_->brTargets.at(core::packLoc(loc));
        bool cond = dyn[0].i32() != 0;
        forEach(HookKind::BrIf, [&](Analysis &a) {
            a.onBrIf(loc, target, cond);
        });
        break;
      }
      case HookKind::BrTable: {
        const core::BrTableInfo &table =
            info_->brTables.at(core::packLoc(loc));
        uint32_t index = dyn[0].i32();
        const core::BrTableEntry &selected =
            index < table.cases.size() ? table.cases[index]
                                       : table.defaultCase;
        std::vector<core::BranchTarget> targets;
        targets.reserve(table.cases.size());
        for (const core::BrTableEntry &e : table.cases)
            targets.push_back(e.target);
        forEach(HookKind::BrTable, [&](Analysis &a) {
            a.onBrTable(loc, targets, table.defaultCase.target, index);
        });
        // The blocks left by the selected entry are only known now;
        // fire their end hooks at runtime (paper §2.4.5).
        for (const core::EndedBlock &e : selected.ended) {
            forEach(HookKind::End, [&](Analysis &a) {
                a.onEnd(e.end, e.kind, e.begin);
            });
        }
        break;
      }
      case HookKind::Begin:
        forEach(HookKind::Begin,
                [&](Analysis &a) { a.onBegin(loc, spec.block); });
        break;
      case HookKind::End: {
        Location begin{loc.func, dyn[0].i32()};
        forEach(HookKind::End, [&](Analysis &a) {
            a.onEnd(loc, spec.block, begin);
        });
        break;
      }
      case HookKind::Const:
        forEach(HookKind::Const, [&](Analysis &a) {
            a.onConst(loc, spec.op, dyn[0]);
        });
        break;
      case HookKind::Unary:
        forEach(HookKind::Unary, [&](Analysis &a) {
            a.onUnary(loc, spec.op, dyn[0], dyn[1]);
        });
        break;
      case HookKind::Binary:
        forEach(HookKind::Binary, [&](Analysis &a) {
            a.onBinary(loc, spec.op, dyn[0], dyn[1], dyn[2]);
        });
        break;
      case HookKind::Drop:
        forEach(HookKind::Drop,
                [&](Analysis &a) { a.onDrop(loc, dyn[0]); });
        break;
      case HookKind::Select:
        forEach(HookKind::Select, [&](Analysis &a) {
            a.onSelect(loc, dyn[0].i32() != 0, dyn[1], dyn[2]);
        });
        break;
      case HookKind::Local: {
        uint32_t index = info_->instrAt(loc).imm.idx;
        forEach(HookKind::Local, [&](Analysis &a) {
            a.onLocal(loc, spec.op, index, dyn[0]);
        });
        break;
      }
      case HookKind::Global: {
        uint32_t index = info_->instrAt(loc).imm.idx;
        forEach(HookKind::Global, [&](Analysis &a) {
            a.onGlobal(loc, spec.op, index, dyn[0]);
        });
        break;
      }
      case HookKind::Load: {
        MemArg memarg{dyn[0].i32(), info_->instrAt(loc).imm.mem.offset};
        forEach(HookKind::Load, [&](Analysis &a) {
            a.onLoad(loc, spec.op, memarg, dyn[1]);
        });
        break;
      }
      case HookKind::Store: {
        MemArg memarg{dyn[0].i32(), info_->instrAt(loc).imm.mem.offset};
        forEach(HookKind::Store, [&](Analysis &a) {
            a.onStore(loc, spec.op, memarg, dyn[1]);
        });
        break;
      }
      case HookKind::MemorySize:
        forEach(HookKind::MemorySize, [&](Analysis &a) {
            a.onMemorySize(loc, dyn[0].i32());
        });
        break;
      case HookKind::MemoryGrow:
        forEach(HookKind::MemoryGrow, [&](Analysis &a) {
            a.onMemoryGrow(loc, dyn[0].i32(), dyn[1].i32());
        });
        break;
      case HookKind::Call: {
        if (spec.post) {
            forEach(HookKind::Call, [&](Analysis &a) {
                a.onCallPost(loc, dyn);
            });
            break;
        }
        uint32_t func = 0;
        std::optional<uint32_t> table_index;
        std::span<const Value> args(dyn);
        if (spec.indirect) {
            uint32_t idx = dyn[0].i32();
            table_index = idx;
            args = args.subspan(1);
            // Resolve the runtime table index to the actually called
            // function, reported in the original index space (§2.3).
            func = Analysis::kUnresolvedFunc;
            if (idx < inst.table().size()) {
                if (std::optional<uint32_t> f = inst.table().get(idx))
                    func = info_->unmapFuncIdx(*f);
            }
        } else {
            func = info_->instrAt(loc).imm.idx;
        }
        forEach(HookKind::Call, [&](Analysis &a) {
            a.onCallPre(loc, func, args, table_index);
        });
        break;
      }
      case HookKind::Return:
        forEach(HookKind::Return,
                [&](Analysis &a) { a.onReturn(loc, dyn); });
        break;
    }

    if (prof)
        profiler_->addDispatch(spec.kind, profiler_->now() - t_begin);
}

// ----- engine-intrinsic mode (DESIGN.md §13) ---------------------------

void
WasabiRuntime::onHook(Instance &inst, const interp::engine::HookSite &site,
                      std::span<const Value> top,
                      std::span<const Value> stash)
{
    // The hook stream must be byte-identical to rewrite mode: the same
    // HookSpec, location, and dynamic-argument order the instrumenter
    // would have arranged for the monomorphic low-level hook call.
    HookSpec spec;
    spec.kind = site.kind;
    spec.op = site.op;
    spec.indirect = site.indirect;
    spec.post = site.post;
    spec.block = site.block;

    // End hooks of blocks left by a taken branch: rewrite mode emits
    // one low-level call per traversed frame, after the branch's own
    // hook, so each is its own fire() (its own invocation).
    auto fireEnds = [&] {
        for (const core::EndedBlock &e : site.ended) {
            HookSpec end;
            end.kind = HookKind::End;
            end.block = e.kind;
            const Value begin = Value::makeI32(e.begin.instr);
            fire(end, inst, e.end, std::span<const Value>(&begin, 1));
        }
    };

    switch (site.kind) {
      case HookKind::Br:
        if (info_->instrumentedHooks.has(HookKind::Br))
            fire(spec, inst, site.loc, {});
        fireEnds();
        return;
      case HookKind::BrIf:
        if (info_->instrumentedHooks.has(HookKind::BrIf))
            fire(spec, inst, site.loc, top);
        if (top[0].i32() != 0)
            fireEnds(); // end hooks fire only if the branch is taken
        return;
      case HookKind::Return:
        if (info_->instrumentedHooks.has(HookKind::Return))
            fire(spec, inst, site.loc, top);
        fireEnds();
        return;
      case HookKind::BrTable:
        // One dispatch, like rewrite mode: the ends of the selected
        // entry come from the br_table side table inside fire().
        fire(spec, inst, site.loc, top);
        return;
      case HookKind::End: {
        const Value begin = Value::makeI32(site.index);
        fire(spec, inst, site.loc, std::span<const Value>(&begin, 1));
        return;
      }
      case HookKind::Call: {
        if (site.post || !site.indirect) {
            fire(spec, inst, site.loc, top);
            return;
        }
        // call_indirect pre: the table index (stack top) is the first
        // dynamic argument, then the call arguments in order.
        std::vector<Value> dyn;
        dyn.reserve(top.size());
        dyn.push_back(top.back());
        dyn.insert(dyn.end(), top.begin(), top.end() - 1);
        fire(spec, inst, site.loc, dyn);
        return;
      }
      case HookKind::Load: {
        const Value dyn[2] = {stash[0], top[0]}; // (addr, value)
        fire(spec, inst, site.loc, std::span<const Value>(dyn, 2));
        return;
      }
      case HookKind::Store: {
        const Value dyn[2] = {stash[0], stash[1]}; // (addr, value)
        fire(spec, inst, site.loc, std::span<const Value>(dyn, 2));
        return;
      }
      case HookKind::MemoryGrow: {
        const Value dyn[2] = {stash[0], top[0]}; // (delta, prev)
        fire(spec, inst, site.loc, std::span<const Value>(dyn, 2));
        return;
      }
      case HookKind::Select: {
        // (cond, first, second); the stash holds [first, second, cond].
        const Value dyn[3] = {stash[2], stash[0], stash[1]};
        fire(spec, inst, site.loc, std::span<const Value>(dyn, 3));
        return;
      }
      case HookKind::Unary: {
        const Value dyn[2] = {stash[0], top[0]}; // (input, result)
        fire(spec, inst, site.loc, std::span<const Value>(dyn, 2));
        return;
      }
      case HookKind::Binary: {
        const Value dyn[3] = {stash[0], stash[1], top[0]};
        fire(spec, inst, site.loc, std::span<const Value>(dyn, 3));
        return;
      }
      case HookKind::Local:
      case HookKind::Global:
        // get/tee observe the pushed result; set observes the stashed
        // operand (already popped by the time the hook runs).
        fire(spec, inst, site.loc, site.peek != 0 ? top : stash);
        return;
      default:
        // Start, Nop, Unreachable, If, Begin, Const, Drop, MemorySize:
        // the stack-top span is exactly the dynamic argument list.
        fire(spec, inst, site.loc, top);
        return;
    }
}

void
WasabiRuntime::attachIntrinsic(Instance &inst)
{
    if (!info_->hooks.empty()) {
        throw std::invalid_argument(
            "wasabi: this StaticInfo was produced by the rewriting "
            "instrumenter (it declares low-level hook imports); "
            "engine-intrinsic mode needs core::buildIntrinsicInfo — "
            "combining both modes would instrument every site twice");
    }
    requireUnrewritten(inst.module());
    inst.engineCode().setIntrinsicHooks(info_->instrumentedHooks, this);
}

void
WasabiRuntime::detachIntrinsic(Instance &inst)
{
    inst.engineCode().setIntrinsicHooks(HookSet{}, nullptr);
}

void
WasabiRuntime::requireUnrewritten(const wasm::Module &m) const
{
    for (const wasm::Function &f : m.functions) {
        if (f.imported() && f.import->module == info_->importModule) {
            throw std::invalid_argument(
                "wasabi: module already imports rewrite-mode hooks (\"" +
                info_->importModule + "." + f.import->name +
                "\"); attaching engine-intrinsic hooks on top would "
                "fire every hook twice — choose one instrumentation "
                "mode");
        }
    }
}

std::unique_ptr<Instance>
WasabiRuntime::instantiateIntrinsic(const wasm::Module &original_module,
                                    const Linker &extra)
{
    return instantiateIntrinsic(
        std::make_shared<const wasm::Module>(original_module), extra);
}

std::unique_ptr<Instance>
WasabiRuntime::instantiateIntrinsic(
    std::shared_ptr<const wasm::Module> original_module,
    const Linker &extra)
{
    // A rewrite-instrumented module must be rejected up front — its
    // unresolved hook imports would otherwise surface as a confusing
    // LinkError before attachIntrinsic could diagnose the real error.
    requireUnrewritten(*original_module);
    // Attach before the start function runs so its hooks are observed,
    // matching rewrite mode (whose hooks are imports, live from the
    // first instruction).
    return Instance::instantiate(
        std::move(original_module), extra,
        [this](Instance &inst) { attachIntrinsic(inst); });
}

} // namespace wasabi::runtime
