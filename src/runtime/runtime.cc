#include "runtime/runtime.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "interp/engine/code.h"

namespace wasabi::runtime {

using core::HookSpec;
using core::StaticInfo;
using interp::Instance;
using interp::Linker;
using interp::engine::HookSite;
using wasm::OpClass;
using wasm::Value;
using wasm::ValType;

namespace {

/** siteOf_ entry of an instruction without a pre-resolved site. */
constexpr uint32_t kNoSite = 0xFFFFFFFF;

/** Whether the hooks of @p spec have a location-dependent static
 * operand (a branch target, br_table side table or immediate), which
 * rewrite mode resolves once per site instead of per call. */
bool
hasStaticOperand(const HookSpec &spec)
{
    switch (spec.kind) {
      case HookKind::Br:
      case HookKind::BrIf:
      case HookKind::BrTable:
      case HookKind::Local:
      case HookKind::Global:
      case HookKind::Load:
      case HookKind::Store:
        return true;
      case HookKind::Call:
        return !spec.indirect && !spec.post;
      default:
        return false;
    }
}

/** The pre-resolved site of instruction @p ins at @p loc, if it is
 * hooked by one of the static-operand hook kinds in @p kinds. */
std::optional<HookSite>
staticSite(const StaticInfo &info, HookSet kinds, const wasm::Instr &ins,
           Location loc)
{
    HookSite s;
    s.loc = loc;
    const OpClass cls = wasm::opInfo(ins.op).cls;
    switch (cls) {
      case OpClass::Br:
      case OpClass::BrIf: {
        s.kind = cls == OpClass::Br ? HookKind::Br : HookKind::BrIf;
        const core::BranchTarget *t = info.findBrTarget(loc);
        if (!t)
            return std::nullopt; // dead code: never hooked
        s.index = t->label;
        s.target = t->location.instr;
        break;
      }
      case OpClass::BrTable:
        s.kind = HookKind::BrTable;
        s.table = info.findBrTable(loc);
        if (!s.table)
            return std::nullopt;
        break;
      case OpClass::LocalGet:
      case OpClass::LocalSet:
      case OpClass::LocalTee:
        s.kind = HookKind::Local;
        s.op = ins.op;
        s.index = ins.imm.idx;
        break;
      case OpClass::GlobalGet:
      case OpClass::GlobalSet:
        s.kind = HookKind::Global;
        s.op = ins.op;
        s.index = ins.imm.idx;
        break;
      case OpClass::Load:
      case OpClass::Store:
        s.kind = cls == OpClass::Load ? HookKind::Load : HookKind::Store;
        s.op = ins.op;
        s.index = ins.imm.mem.offset;
        break;
      case OpClass::Call:
        s.kind = HookKind::Call;
        s.index = ins.imm.idx;
        break;
      default:
        return std::nullopt;
    }
    if (!kinds.has(s.kind))
        return std::nullopt;
    return s;
}

} // namespace

WasabiRuntime::WasabiRuntime(std::shared_ptr<const StaticInfo> info)
    : info_(std::move(info))
{
    if (info_)
        bindSites();
}

void
WasabiRuntime::addAnalysis(Analysis *analysis, std::string name)
{
    const HookSet hooks = analysis->hooks();
    for (int k = 0; k < core::kNumHookKinds; ++k) {
        if (hooks.has(static_cast<HookKind>(k)))
            subscribers_[k].push_back({analysis, analysisNames_.size()});
    }
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
WasabiRuntime::bindSites()
{
    HookSet resolved_kinds;
    size_t max_args = 0;
    bound_.reserve(info_->hooks.size());
    for (const HookSpec &spec : info_->hooks) {
        BoundHook b;
        b.spec = spec;
        b.site.kind = spec.kind;
        b.site.op = spec.op;
        b.site.block = spec.block;
        b.site.indirect = spec.indirect;
        b.site.post = spec.post;
        wasm::FuncType logical =
            core::lowLevelType(spec, /*split_i64=*/false);
        b.argTypes.assign(logical.params.begin() + 2,
                          logical.params.end());
        // Raw arity as dispatched on the wire: the split-i64 type's
        // parameter count. Checked before reading any raw argument.
        b.expectedRawArgs =
            core::lowLevelType(spec, info_->splitI64).params.size();
        b.rotate = spec.kind == HookKind::Select ||
                   (spec.kind == HookKind::Call && spec.indirect &&
                    !spec.post);
        b.decode = b.rotate ||
                   (info_->splitI64 &&
                    std::count(b.argTypes.begin(), b.argTypes.end(),
                               ValType::I64) != 0);
        b.resolved = hasStaticOperand(spec);
        if (b.resolved)
            resolved_kinds.add(spec.kind);
        max_args = std::max(max_args, b.argTypes.size());
        bound_.push_back(std::move(b));
    }
    wire_.resize(max_args);
    if (resolved_kinds.empty())
        return;

    // One site per hooked instruction with a static operand, found by
    // (function, instruction) without a lookup.
    const wasm::Module &m = *info_->original;
    for (uint32_t f = 0; f < m.functions.size(); ++f) {
        siteBase_.push_back(static_cast<uint32_t>(siteOf_.size()));
        const std::vector<wasm::Instr> &body = m.functions[f].body;
        for (uint32_t i = 0; i < body.size(); ++i) {
            std::optional<HookSite> site =
                staticSite(*info_, resolved_kinds, body[i], {f, i});
            siteOf_.push_back(site ? static_cast<uint32_t>(sites_.size())
                                   : kNoSite);
            if (site)
                sites_.push_back(std::move(*site));
        }
    }
    siteBase_.push_back(static_cast<uint32_t>(siteOf_.size()));
}

void
WasabiRuntime::bindHooks(Linker &linker)
{
    // bound_ is never resized after construction, so the bindings may
    // point into it.
    for (const BoundHook &hook : bound_) {
        linker.func(core::kHookImportModule, mangledName(hook.spec),
                    [this, h = &hook](Instance &inst,
                                      std::span<const Value> args,
                                      std::vector<Value> &) {
                        dispatch(*h, inst, args);
                    });
    }
}

void
WasabiRuntime::validateHookImports(
    const wasm::Module &instrumented_module) const
{
    for (const wasm::Function &f : instrumented_module.functions) {
        if (!f.imported() || f.import->module != core::kHookImportModule)
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
                std::string(core::kHookImportModule) + "." +
                f.import->name + "\"");
        }
        const wasm::FuncType &declared =
            instrumented_module.types.at(f.typeIdx);
        wasm::FuncType expected =
            core::lowLevelType(*spec, info_->splitI64);
        if (!(declared == expected)) {
            throw interp::LinkError(
                "hook import \"" + std::string(core::kHookImportModule) +
                "." + f.import->name + "\" has type " + toString(declared) +
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
WasabiRuntime::dispatch(const BoundHook &hook, Instance &inst,
                        std::span<const Value> raw_args)
{
    // Arity guard before any raw_args element is read: a hook called
    // with the wrong argument count (hand-edited module, stale
    // StaticInfo, mismatched splitI64) must trap with a diagnostic,
    // not read past the caller's argument span.
    if (raw_args.size() != hook.expectedRawArgs) {
        throw interp::Trap(
            interp::TrapKind::HostError,
            "wasabi hook arity mismatch: \"" + mangledName(hook.spec) +
                "\" dispatched with " +
                std::to_string(raw_args.size()) +
                " raw argument(s), expected " +
                std::to_string(hook.expectedRawArgs));
    }
    const Location loc{raw_args[0].i32(), raw_args[1].i32()};

    // The dynamic arguments: the wire values themselves, unless i64
    // halves must be joined or the operand order differs from the
    // stack's (decoded into the scratch buffer then).
    std::span<const Value> dyn = raw_args.subspan(2);
    if (hook.decode) {
        size_t k = 2;
        for (size_t i = 0; i < hook.argTypes.size(); ++i) {
            if (hook.argTypes[i] == ValType::I64 && info_->splitI64) {
                uint64_t lo = raw_args[k].i32();
                uint64_t hi = raw_args[k + 1].i32();
                wire_[i] = Value::makeI64((hi << 32) | lo);
                k += 2;
            } else {
                wire_[i] = raw_args[k++];
            }
        }
        const auto end = wire_.begin() + hook.argTypes.size();
        // select's condition and call_indirect's table index travel
        // first on the wire but sit on top of the operand stack.
        if (hook.rotate)
            std::rotate(wire_.begin(), wire_.begin() + 1, end);
        dyn = std::span<const Value>(wire_.begin(), end);
    }

    if (hook.resolved) {
        fire(inst, resolvedSite(hook, loc), dyn);
        return;
    }
    HookSite site = hook.site;
    site.loc = loc;
    if (site.kind == HookKind::End)
        site.index = dyn[0].i32(); // the begin travels on the wire
    fire(inst, site, dyn);
}

const HookSite &
WasabiRuntime::resolvedSite(const BoundHook &hook, Location loc) const
{
    if (loc.func + size_t(1) < siteBase_.size() &&
        loc.instr < siteBase_[loc.func + 1] - siteBase_[loc.func]) {
        const uint32_t k = siteOf_[siteBase_[loc.func] + loc.instr];
        if (k != kNoSite && sites_[k].kind == hook.site.kind &&
            sites_[k].op == hook.site.op)
            return sites_[k];
    }
    throw interp::Trap(interp::TrapKind::HostError,
                       "wasabi hook \"" + mangledName(hook.spec) +
                           "\" called at func " +
                           std::to_string(loc.func) + " instr " +
                           std::to_string(loc.instr) +
                           ", which has no such hook site");
}

void
WasabiRuntime::fire(Instance &inst, const HookSite &site,
                    std::span<const Value> dyn)
{
    ++invocations_;
    if (profiler_ && profiler_->enabled()) {
        const uint64_t t_begin = profiler_->now();
        deliver<true>(inst, site, dyn);
        profiler_->addDispatch(site.kind, profiler_->now() - t_begin);
        return;
    }
    deliver<false>(inst, site, dyn);
}

template <bool kProfiled>
void
WasabiRuntime::deliver(Instance &inst, const HookSite &site,
                       std::span<const Value> dyn)
{
    auto notify = [this](HookKind kind, auto &&fn) {
        for (const Subscriber &s :
             subscribers_[static_cast<size_t>(kind)]) {
            if constexpr (kProfiled) {
                uint64_t t0 = profiler_->now();
                fn(*s.analysis);
                profiler_->addAnalysisHook(s.index, kind,
                                           profiler_->now() - t0);
            } else {
                fn(*s.analysis);
            }
        }
    };

    const Location loc = site.loc;
    switch (site.kind) {
      case HookKind::Start:
        notify(HookKind::Start, [&](Analysis &a) { a.onStart(loc); });
        break;
      case HookKind::Nop:
        notify(HookKind::Nop, [&](Analysis &a) { a.onNop(loc); });
        break;
      case HookKind::Unreachable:
        notify(HookKind::Unreachable,
               [&](Analysis &a) { a.onUnreachable(loc); });
        break;
      case HookKind::If:
        notify(HookKind::If, [&](Analysis &a) {
            a.onIf(loc, dyn[0].i32() != 0);
        });
        break;
      case HookKind::Br: {
        const core::BranchTarget target = site.branchTarget();
        notify(HookKind::Br, [&](Analysis &a) { a.onBr(loc, target); });
        break;
      }
      case HookKind::BrIf: {
        const core::BranchTarget target = site.branchTarget();
        const bool cond = dyn[0].i32() != 0;
        notify(HookKind::BrIf, [&](Analysis &a) {
            a.onBrIf(loc, target, cond);
        });
        break;
      }
      case HookKind::BrTable: {
        const core::BrTableInfo &table = *site.table;
        const uint32_t index = dyn[0].i32();
        notify(HookKind::BrTable, [&](Analysis &a) {
            a.onBrTable(loc, table.targets, table.defaultCase.target,
                        index);
        });
        // The blocks left by the selected entry are only known now;
        // fire their end hooks at runtime (paper §2.4.5).
        for (const core::EndedBlock &e : table.select(index).ended) {
            notify(HookKind::End, [&](Analysis &a) {
                a.onEnd(e.end, e.kind, e.begin);
            });
        }
        break;
      }
      case HookKind::Begin:
        notify(HookKind::Begin,
               [&](Analysis &a) { a.onBegin(loc, site.block); });
        break;
      case HookKind::End: {
        const Location begin{loc.func, site.index};
        notify(HookKind::End, [&](Analysis &a) {
            a.onEnd(loc, site.block, begin);
        });
        break;
      }
      case HookKind::Const:
        notify(HookKind::Const, [&](Analysis &a) {
            a.onConst(loc, site.op, dyn[0]);
        });
        break;
      case HookKind::Unary:
        notify(HookKind::Unary, [&](Analysis &a) {
            a.onUnary(loc, site.op, dyn[0], dyn[1]);
        });
        break;
      case HookKind::Binary:
        notify(HookKind::Binary, [&](Analysis &a) {
            a.onBinary(loc, site.op, dyn[0], dyn[1], dyn[2]);
        });
        break;
      case HookKind::Drop:
        notify(HookKind::Drop,
               [&](Analysis &a) { a.onDrop(loc, dyn[0]); });
        break;
      case HookKind::Select:
        notify(HookKind::Select, [&](Analysis &a) {
            a.onSelect(loc, dyn[2].i32() != 0, dyn[0], dyn[1]);
        });
        break;
      case HookKind::Local:
        notify(HookKind::Local, [&](Analysis &a) {
            a.onLocal(loc, site.op, site.index, dyn[0]);
        });
        break;
      case HookKind::Global:
        notify(HookKind::Global, [&](Analysis &a) {
            a.onGlobal(loc, site.op, site.index, dyn[0]);
        });
        break;
      case HookKind::Load: {
        const MemArg memarg{dyn[0].i32(), site.index};
        notify(HookKind::Load, [&](Analysis &a) {
            a.onLoad(loc, site.op, memarg, dyn[1]);
        });
        break;
      }
      case HookKind::Store: {
        const MemArg memarg{dyn[0].i32(), site.index};
        notify(HookKind::Store, [&](Analysis &a) {
            a.onStore(loc, site.op, memarg, dyn[1]);
        });
        break;
      }
      case HookKind::MemorySize:
        notify(HookKind::MemorySize, [&](Analysis &a) {
            a.onMemorySize(loc, dyn[0].i32());
        });
        break;
      case HookKind::MemoryGrow:
        notify(HookKind::MemoryGrow, [&](Analysis &a) {
            a.onMemoryGrow(loc, dyn[0].i32(), dyn[1].i32());
        });
        break;
      case HookKind::Call: {
        if (site.post) {
            notify(HookKind::Call,
                   [&](Analysis &a) { a.onCallPost(loc, dyn); });
            break;
        }
        uint32_t func = site.index;
        std::optional<uint32_t> table_index;
        std::span<const Value> args = dyn;
        if (site.indirect) {
            const uint32_t idx = dyn.back().i32();
            table_index = idx;
            args = dyn.first(dyn.size() - 1);
            // Resolve the runtime table index to the actually called
            // function, reported in the original index space (§2.3).
            func = Analysis::kUnresolvedFunc;
            if (idx < inst.table().size()) {
                if (std::optional<uint32_t> f = inst.table().get(idx))
                    func = info_->unmapFuncIdx(*f);
            }
        }
        notify(HookKind::Call, [&](Analysis &a) {
            a.onCallPre(loc, func, args, table_index);
        });
        break;
      }
      case HookKind::Return:
        notify(HookKind::Return,
               [&](Analysis &a) { a.onReturn(loc, dyn); });
        break;
    }
}

// ----- engine-intrinsic mode (DESIGN.md §12) ---------------------------

void
WasabiRuntime::onHook(Instance &inst, const HookSite &site,
                      std::span<const Value> dyn)
{
    if (site.ended.empty()) {
        fire(inst, site, dyn);
        return;
    }
    // A br/br_if/return that ends blocks (End is hooked): its own hook
    // if that kind is instrumented too, then — if the branch is taken
    // — one End hook per block it leaves, each its own invocation, as
    // rewrite mode's injected calls are.
    if (info_->instrumentedHooks.has(site.kind))
        fire(inst, site, dyn);
    if (site.kind == HookKind::BrIf && dyn[0].i32() == 0)
        return;
    for (const core::EndedBlock &e : site.ended) {
        HookSite end;
        end.kind = HookKind::End;
        end.block = e.kind;
        end.loc = e.end;
        end.index = e.begin.instr;
        fire(inst, end, {});
    }
}

void
WasabiRuntime::onCounts(const HookSite &site,
                        std::span<const uint64_t> outcomes)
{
    uint64_t total = 0;
    for (uint64_t n : outcomes)
        total += n;
    // The same invocations onHook() and fire() count: the site's own
    // hook, then one End hook per block a taken branch leaves.
    if (site.ended.empty() || info_->instrumentedHooks.has(site.kind)) {
        invocations_ += total;
        for (const Subscriber &s :
             subscribers_[static_cast<size_t>(site.kind)])
            s.analysis->onCounts(site, outcomes);
    }
    if (!site.ended.empty()) {
        const uint64_t taken =
            site.kind == HookKind::BrIf ? outcomes[1] : total;
        invocations_ += taken * site.ended.size();
        countEnds(site.ended, taken);
    } else if (site.kind == HookKind::BrTable) {
        // Within the br_table's own invocation, as fire() does.
        for (uint32_t i = 0; i < outcomes.size(); ++i)
            countEnds(site.table->select(i).ended, outcomes[i]);
    }
}

void
WasabiRuntime::countEnds(std::span<const core::EndedBlock> ended, uint64_t n)
{
    if (n == 0)
        return;
    for (const core::EndedBlock &e : ended) {
        HookSite end;
        end.kind = HookKind::End;
        end.block = e.kind;
        end.loc = e.end;
        end.index = e.begin.instr;
        for (const Subscriber &s :
             subscribers_[static_cast<size_t>(HookKind::End)])
            s.analysis->onCounts(end, std::span<const uint64_t>(&n, 1));
    }
}

HookSet
WasabiRuntime::countedKinds() const
{
    HookSet counted;
    if (profiler_)
        return counted; // profiling keeps real per-hook timings
    auto counts = [this](HookKind k) {
        for (const Subscriber &s : subscribers_[static_cast<size_t>(k)]) {
            if (!s.analysis->countedHooks().has(k))
                return false;
        }
        return true;
    };
    // The kinds that have sites: the instrumented ones, and the
    // branches that fire End hooks.
    HookSet sited = info_->instrumentedHooks;
    if (sited.has(HookKind::End))
        sited |= HookSet{HookKind::Br, HookKind::BrIf, HookKind::BrTable,
                         HookKind::Return};
    for (int k = 0; k < core::kNumHookKinds; ++k) {
        const HookKind kind = static_cast<HookKind>(k);
        if (sited.has(kind) && counts(kind))
            counted.add(kind);
    }
    // A br_table delivers End events even when End is not
    // instrumented (fire()), so it counts only if they do.
    if (!counts(HookKind::End))
        counted.remove(HookKind::BrTable);
    return counted;
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
    inst.engineCode().setIntrinsicHooks(info_->instrumentedHooks, this,
                                        countedKinds());
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
        if (f.imported() && f.import->module == core::kHookImportModule) {
            throw std::invalid_argument(
                "wasabi: module already imports rewrite-mode hooks (\"" +
                std::string(core::kHookImportModule) + "." +
                f.import->name +
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
