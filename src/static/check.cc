#include "static/check.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "core/control_stack.h"
#include "core/instrument.h"
#include "support/parallel.h"
#include "wasm/validator.h"

namespace wasabi::static_analysis {

using core::AbstractState;
using core::BlockKind;
using core::ControlFrame;
using core::HookKind;
using core::HookSet;
using core::HookSpec;
using core::kFunctionEntry;
using core::Location;
using core::packLoc;
using wasm::FuncType;
using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::OpClass;
using wasm::Opcode;
using wasm::ValType;

namespace {

/** What the symbolic evaluator knows about one operand-stack slot of
 * the instrumented code. Only the patterns the instrumenter emits for
 * hook arguments are tracked; everything else is Unknown. */
struct AbsVal {
    enum Kind : uint8_t {
        Unknown,
        ConstI32,
        ConstI64,
        LocalVal,      ///< local.get / local.tee of `local`
        ShiftedLocal,  ///< (local.get l) >> 64:32, pre-wrap high half
        SplitLo,       ///< low i32 half of i64 local `local`
        SplitHi,       ///< high i32 half of i64 local `local`
    };
    Kind kind = Unknown;
    uint64_t value = 0;
    uint32_t local = 0;
};

/** One recovered hook call in an instrumented function body. */
struct Site {
    const HookSpec *spec = nullptr;
    uint32_t origFunc = 0;     ///< first location argument
    uint32_t origInstr = 0;    ///< second location argument
    uint32_t instrumentedIdx = 0;
    std::vector<AbsVal> args;  ///< dynamic args (location args stripped)
};

/** Kind and begin location of the region closing at an `end`/`else`
 * instruction: the rule of core::ControlFrame::regionBegin, derived
 * here independently so the checker stays an oracle for it. */
struct RegionEnd {
    BlockKind kind = BlockKind::Block;
    uint32_t begin = 0;
};

std::string
locString(uint32_t instr)
{
    return instr == kFunctionEntry ? "entry" : std::to_string(instr);
}

class Checker {
  public:
    Checker(const Module &orig, const Module &instr,
            const CheckOptions &opts, const core::StaticInfo *info)
        : orig_(orig), instr_(instr), opts_(opts), info_(info)
    {
    }

    Diagnostics
    run()
    {
        if (auto err = wasm::validationError(orig_, support::kAllCpus)) {
            diags_.error("check.input.invalid-original",
                         "original module does not validate: " + *err);
            return std::move(diags_);
        }
        if (!recoverHooks())
            return std::move(diags_);
        if (auto err = wasm::validationError(instr_, support::kAllCpus)) {
            diags_.error("check.structure.invalid-instrumented",
                         "instrumented module does not validate: " +
                             *err);
        }
        checkStructure();
        for (uint32_t g = 0; g < instr_.numFunctions(); ++g) {
            if (!instr_.functions[g].imported())
                scanFunction(g);
        }
        for (uint32_t f = 0; f < orig_.numFunctions(); ++f) {
            if (!orig_.functions[f].imported())
                checkCoverage(f);
        }
        if (info_) {
            checkMetadata(*info_);
        } else {
            // The two-binary path has no side-table metadata in the
            // artifact; regenerate it and check the instrumenter's
            // output (also cross-checking the hook-import set). The
            // reference shares orig_, which outlives it; the byte
            // entry builds no side tables, so build them here.
            core::InstrumentOptions iopts;
            iopts.splitI64 = split_;
            iopts.numThreads = support::kAllCpus;
            core::InstrumentedBinary ref = core::instrumentToBytes(
                std::shared_ptr<const Module>(std::shared_ptr<void>(),
                                              &orig_),
                hooks_, iopts);
            static_cast<core::SideTables &>(*ref.info) =
                core::sideTables(orig_, support::kAllCpus);
            compareHookSets(ref.info->hooks);
            checkMetadata(*ref.info);
        }
        return std::move(diags_);
    }

  private:
    // ----- hook-import recovery --------------------------------------

    uint32_t numHooks() const
    {
        return static_cast<uint32_t>(specs_.size());
    }

    /** Original function index -> instrumented function index. */
    uint32_t
    mapFunc(uint32_t f) const
    {
        return f < base_ ? f : f + numHooks();
    }

    bool
    recoverHooks()
    {
        base_ = orig_.numImportedFunctions();
        const uint32_t instr_imports = instr_.numImportedFunctions();
        if (instr_imports < base_) {
            diags_.error("check.structure.import-mismatch",
                         "instrumented module dropped original "
                         "function imports (" +
                             std::to_string(instr_imports) + " < " +
                             std::to_string(base_) + ")");
            return false;
        }
        for (uint32_t i = 0; i < base_; ++i) {
            const Function &of = orig_.functions[i];
            const Function &nf = instr_.functions[i];
            if (*of.import != *nf.import ||
                orig_.funcType(i) != instr_.funcType(i)) {
                diags_.error("check.structure.import-mismatch",
                             "original import " + std::to_string(i) +
                                 " (" + of.import->module + "." +
                                 of.import->name +
                                 ") not preserved in place");
                return false;
            }
        }

        std::unordered_set<std::string> seen;
        for (uint32_t i = base_; i < instr_imports; ++i) {
            const Function &hf = instr_.functions[i];
            if (hf.import->module != core::kHookImportModule) {
                diags_.error("check.hooks.layout",
                             "import " + std::to_string(i) + " (" +
                                 hf.import->module + "." +
                                 hf.import->name +
                                 ") interleaved with hook imports of "
                                 "module '" +
                                 core::kHookImportModule + "'");
                return false;
            }
            std::optional<HookSpec> spec =
                core::parseHookName(hf.import->name);
            parsed_.push_back(spec.has_value());
            if (!spec) {
                diags_.error("check.hooks.unknown-import",
                             "hook import '" + hf.import->name +
                                 "' is not a well-formed low-level "
                                 "hook name");
                // Keep a placeholder so indices line up.
                spec = HookSpec{};
            }
            if (!seen.insert(hf.import->name).second) {
                diags_.error("check.hooks.duplicate",
                             "hook '" + hf.import->name +
                                 "' imported more than once (hooks "
                                 "must be deduplicated)");
            }
            specs_.push_back(*spec);
        }

        if (info_) {
            // With metadata the identities are known; verify the
            // binary agrees with them, then prefer the metadata.
            if (info_->hooks.size() != specs_.size()) {
                diags_.error(
                    "check.hooks.set-mismatch",
                    "StaticInfo lists " +
                        std::to_string(info_->hooks.size()) +
                        " hooks but the binary imports " +
                        std::to_string(specs_.size()));
            } else {
                for (uint32_t h = 0; h < numHooks(); ++h) {
                    if (mangledName(info_->hooks[h]) !=
                        instr_.functions[base_ + h].import->name) {
                        diags_.error(
                            "check.hooks.set-mismatch",
                            "hook id " + std::to_string(h) +
                                " is '" +
                                instr_.functions[base_ + h]
                                    .import->name +
                                "' in the binary but '" +
                                mangledName(info_->hooks[h]) +
                                "' in the StaticInfo");
                    }
                }
                specs_ = info_->hooks;
                parsed_.assign(specs_.size(), true);
            }
            split_ = info_->splitI64;
            hooks_ = info_->instrumentedHooks;
        } else {
            split_ = detectSplit();
            if (opts_.hooks) {
                hooks_ = *opts_.hooks;
            } else {
                for (const HookSpec &s : specs_)
                    hooks_.add(s.kind);
            }
        }

        for (uint32_t h = 0; h < numHooks(); ++h) {
            if (!parsed_[h])
                continue; // unknown-import already reported
            const HookSpec &spec = specs_[h];
            const FuncType &actual = instr_.funcType(base_ + h);
            FuncType expected = lowLevelType(spec, split_);
            if (actual != expected) {
                diags_.error(
                    "check.hooks.bad-type",
                    "hook '" +
                        instr_.functions[base_ + h].import->name +
                        "' has type " + toString(actual) +
                        ", expected " + toString(expected));
            }
            if (!kindAllowed(spec.kind)) {
                diags_.error(
                    "check.selective.disabled-kind-import",
                    "hook '" +
                        instr_.functions[base_ + h].import->name +
                        "' belongs to disabled hook kind '" +
                        name(spec.kind) + "'");
            }
        }
        return true;
    }

    /** Auto-detect the i64-split ABI from the first hook import whose
     * type differs between the two ABIs. */
    bool
    detectSplit() const
    {
        for (uint32_t h = 0; h < numHooks(); ++h) {
            FuncType with = lowLevelType(specs_[h], true);
            FuncType without = lowLevelType(specs_[h], false);
            if (with == without)
                continue;
            const FuncType &actual = instr_.funcType(base_ + h);
            if (actual == with)
                return true;
            if (actual == without)
                return false;
        }
        return true; // the paper's default ABI
    }

    /** A hook kind whose sites/imports are permitted under the
     * effective hook set. br_table instrumentation is also emitted
     * when only `end` is enabled (its side table drives the dynamic
     * end hooks, §2.4.5). */
    bool
    kindAllowed(HookKind k) const
    {
        return hooks_.has(k) ||
               (k == HookKind::BrTable && hooks_.has(HookKind::End));
    }

    void
    compareHookSets(const std::vector<HookSpec> &reference)
    {
        std::unordered_set<std::string> actual, expected;
        for (const HookSpec &s : specs_)
            actual.insert(mangledName(s));
        for (const HookSpec &s : reference)
            expected.insert(mangledName(s));
        for (const std::string &n : expected) {
            if (!actual.count(n)) {
                diags_.error("check.hooks.set-mismatch",
                             "instrumenting the original produces "
                             "hook '" +
                                 n + "' which the artifact lacks");
            }
        }
        for (const std::string &n : actual) {
            if (!expected.count(n)) {
                diags_.error("check.hooks.set-mismatch",
                             "artifact imports hook '" + n +
                                 "' which instrumenting the original "
                                 "does not produce");
            }
        }
    }

    // ----- structural preservation -----------------------------------

    void
    checkStructure()
    {
        if (instr_.numFunctions() !=
            orig_.numFunctions() + numHooks()) {
            diags_.error("check.structure.function-count",
                         "instrumented module has " +
                             std::to_string(instr_.numFunctions()) +
                             " functions, expected " +
                             std::to_string(orig_.numFunctions() +
                                            numHooks()));
            return;
        }
        for (uint32_t f = 0; f < orig_.numFunctions(); ++f) {
            uint32_t g = mapFunc(f);
            if (orig_.funcType(f) != instr_.funcType(g)) {
                diags_.error("check.structure.func-type",
                             "function signature changed: " +
                                 toString(orig_.funcType(f)) +
                                 " -> " + toString(instr_.funcType(g)),
                             f);
            }
            if (orig_.functions[f].exportNames !=
                instr_.functions[g].exportNames) {
                diags_.error("check.structure.exports",
                             "function export names changed", f);
            }
            const std::vector<ValType> &ol = orig_.functions[f].locals;
            const std::vector<ValType> &nl = instr_.functions[g].locals;
            if (nl.size() < ol.size() ||
                !std::equal(ol.begin(), ol.end(), nl.begin())) {
                diags_.error("check.structure.locals",
                             "original locals not preserved as a "
                             "prefix of the instrumented locals",
                             f);
            }
        }
        if (orig_.globals.size() != instr_.globals.size())
            diags_.error("check.structure.globals",
                         "global count changed");
        if (orig_.memories.size() != instr_.memories.size())
            diags_.error("check.structure.memories",
                         "memory count changed");
        if (orig_.tables.size() != instr_.tables.size())
            diags_.error("check.structure.tables",
                         "table count changed");
        if (orig_.data.size() != instr_.data.size())
            diags_.error("check.structure.data",
                         "data segment count changed");
        if (orig_.elements.size() == instr_.elements.size()) {
            for (size_t s = 0; s < orig_.elements.size(); ++s) {
                const auto &oseg = orig_.elements[s];
                const auto &nseg = instr_.elements[s];
                bool ok =
                    oseg.funcIdxs.size() == nseg.funcIdxs.size();
                for (size_t k = 0; ok && k < oseg.funcIdxs.size(); ++k)
                    ok = nseg.funcIdxs[k] == mapFunc(oseg.funcIdxs[k]);
                if (!ok) {
                    diags_.error(
                        "check.structure.elements",
                        "element segment " + std::to_string(s) +
                            " not remapped to the shifted function "
                            "index space");
                }
            }
        } else {
            diags_.error("check.structure.elements",
                         "element segment count changed");
        }
        bool start_ok =
            orig_.start.has_value() == instr_.start.has_value() &&
            (!orig_.start || *instr_.start == mapFunc(*orig_.start));
        if (!start_ok)
            diags_.error("check.structure.start",
                         "start function not preserved/remapped");
        if (instr_.types.size() < orig_.types.size() ||
            !std::equal(orig_.types.begin(), orig_.types.end(),
                        instr_.types.begin())) {
            diags_.error("check.structure.types",
                         "original type section not preserved as a "
                         "prefix of the instrumented types");
        }
    }

    // ----- region-end shapes of original functions -------------------

    /** end/else instruction index -> closed region, per function. */
    const std::unordered_map<uint32_t, RegionEnd> &
    regionEnds(uint32_t f)
    {
        auto it = regionEnds_.find(f);
        if (it != regionEnds_.end())
            return it->second;
        const std::vector<Instr> &body = orig_.functions[f].body;
        std::vector<core::BlockMatch> matches = core::matchBlocks(body);
        std::unordered_map<uint32_t, RegionEnd> ends;
        for (uint32_t i = 0; i < body.size(); ++i) {
            if (!wasm::isBlockStart(body[i].op))
                continue;
            OpClass cls = wasm::opInfo(body[i].op).cls;
            if (matches[i].elseIdx) {
                // Then-region ends at the else; else-region at the end.
                ends[*matches[i].elseIdx] = {BlockKind::If, i};
                ends[matches[i].endIdx] = {BlockKind::Else,
                                           *matches[i].elseIdx};
            } else {
                BlockKind kind = cls == OpClass::Block ? BlockKind::Block
                                 : cls == OpClass::Loop
                                     ? BlockKind::Loop
                                     : BlockKind::If;
                ends[matches[i].endIdx] = {kind, i};
            }
        }
        ends[static_cast<uint32_t>(body.size()) - 1] = {
            BlockKind::Function, kFunctionEntry};
        return regionEnds_.emplace(f, std::move(ends)).first->second;
    }

    // ----- symbolic scan of instrumented bodies ----------------------

    void
    scanFunction(uint32_t g)
    {
        if (g < base_ + numHooks())
            return; // layout error already reported
        const uint32_t f = g - numHooks();
        if (f >= orig_.numFunctions() ||
            orig_.functions[f].imported())
            return; // function-count mismatch already reported
        const std::vector<Instr> &body = instr_.functions[g].body;
        std::vector<AbsVal> stack;

        auto pop = [&stack]() -> AbsVal {
            if (stack.empty())
                return AbsVal{};
            AbsVal v = stack.back();
            stack.pop_back();
            return v;
        };
        auto popN = [&pop](size_t n) {
            for (size_t k = 0; k < n; ++k)
                pop();
        };
        auto pushUnknown = [&stack](size_t n) {
            stack.insert(stack.end(), n, AbsVal{});
        };

        for (uint32_t i = 0; i < body.size(); ++i) {
            const Instr &in = body[i];
            const wasm::OpInfo &info = wasm::opInfo(in.op);
            switch (info.cls) {
              case OpClass::Const:
                if (in.op == Opcode::I32Const) {
                    stack.push_back(
                        {AbsVal::ConstI32, in.imm.i32v, 0});
                } else if (in.op == Opcode::I64Const) {
                    stack.push_back(
                        {AbsVal::ConstI64, in.imm.i64v, 0});
                } else {
                    pushUnknown(1);
                }
                break;
              case OpClass::LocalGet:
                stack.push_back({AbsVal::LocalVal, 0, in.imm.idx});
                break;
              case OpClass::LocalTee:
                pop();
                stack.push_back({AbsVal::LocalVal, 0, in.imm.idx});
                break;
              case OpClass::LocalSet:
                pop();
                break;
              case OpClass::GlobalGet:
                pushUnknown(1);
                break;
              case OpClass::GlobalSet:
                pop();
                break;
              case OpClass::Unary:
                if (in.op == Opcode::I32WrapI64) {
                    AbsVal v = pop();
                    if (v.kind == AbsVal::LocalVal)
                        stack.push_back(
                            {AbsVal::SplitLo, 0, v.local});
                    else if (v.kind == AbsVal::ShiftedLocal)
                        stack.push_back(
                            {AbsVal::SplitHi, 0, v.local});
                    else
                        pushUnknown(1);
                } else {
                    pop();
                    pushUnknown(1);
                }
                break;
              case OpClass::Binary:
                if (in.op == Opcode::I64ShrU) {
                    AbsVal amount = pop();
                    AbsVal v = pop();
                    if (v.kind == AbsVal::LocalVal &&
                        amount.kind == AbsVal::ConstI64 &&
                        amount.value == 32) {
                        stack.push_back(
                            {AbsVal::ShiftedLocal, 0, v.local});
                    } else {
                        pushUnknown(1);
                    }
                } else {
                    popN(2);
                    pushUnknown(1);
                }
                break;
              case OpClass::Call: {
                uint32_t callee = in.imm.idx;
                if (callee >= base_ && callee < base_ + numHooks()) {
                    recordSite(f, callee - base_, i, stack);
                } else if (callee < instr_.numFunctions()) {
                    const FuncType &t = instr_.funcType(callee);
                    popN(t.params.size());
                    pushUnknown(t.results.size());
                } else {
                    stack.clear();
                }
                break;
              }
              case OpClass::CallIndirect: {
                pop(); // table index
                if (in.imm.idx < instr_.types.size()) {
                    const FuncType &t = instr_.types[in.imm.idx];
                    popN(t.params.size());
                    pushUnknown(t.results.size());
                } else {
                    stack.clear();
                }
                break;
              }
              case OpClass::Drop:
                pop();
                break;
              case OpClass::Select:
                popN(3);
                pushUnknown(1);
                break;
              case OpClass::Load:
                pop();
                pushUnknown(1);
                break;
              case OpClass::Store:
                popN(2);
                break;
              case OpClass::MemorySize:
                pushUnknown(1);
                break;
              case OpClass::MemoryGrow:
                pop();
                pushUnknown(1);
                break;
              case OpClass::Nop:
                break;
              default:
                // Control flow: hook arguments never straddle a
                // block boundary, so forgetting everything is sound.
                stack.clear();
                break;
            }
        }
    }

    /** Record (and immediately sanity-check) one hook call site. */
    void
    recordSite(uint32_t f, uint32_t hook_id, uint32_t instrumented_idx,
               std::vector<AbsVal> &stack)
    {
        const HookSpec &spec = specs_[hook_id];
        size_t arity = lowLevelType(spec, split_).params.size();
        std::vector<AbsVal> args(arity);
        for (size_t k = 0; k < arity; ++k) {
            size_t pos = arity - 1 - k;
            if (!stack.empty()) {
                args[pos] = stack.back();
                stack.pop_back();
            }
        }
        // Hooks return nothing; the stack is simply shorter now.

        if (args.size() < 2 || args[0].kind != AbsVal::ConstI32 ||
            args[1].kind != AbsVal::ConstI32) {
            diags_.error("check.loc.nonconstant",
                         "hook call '" + mangledName(spec) +
                             "' lacks constant (function, "
                             "instruction) location arguments",
                         f);
            return;
        }
        Site site;
        site.spec = &specs_[hook_id];
        site.origFunc = static_cast<uint32_t>(args[0].value);
        site.origInstr = static_cast<uint32_t>(args[1].value);
        site.instrumentedIdx = instrumented_idx;
        site.args.assign(args.begin() + 2, args.end());

        if (site.origFunc != f) {
            diags_.error("check.loc.wrong-function",
                         "hook call '" + mangledName(spec) +
                             "' reports function " +
                             std::to_string(site.origFunc) +
                             " but lives in function " +
                             std::to_string(f),
                         f, site.origInstr);
            return;
        }
        const std::vector<Instr> &obody = orig_.functions[f].body;
        if (site.origInstr != kFunctionEntry &&
            site.origInstr >= obody.size()) {
            diags_.error("check.loc.out-of-range",
                         "hook call '" + mangledName(spec) +
                             "' reports instruction " +
                             std::to_string(site.origInstr) +
                             " beyond the original body (" +
                             std::to_string(obody.size()) +
                             " instructions)",
                         f, site.origInstr);
            return;
        }
        if (!kindAllowed(spec.kind)) {
            diags_.error("check.selective.disabled-kind-site",
                         "instruction instrumented with hook '" +
                             mangledName(spec) +
                             "' of disabled kind '" +
                             name(spec.kind) + "'",
                         f, site.origInstr);
        }
        checkSiteKind(f, site);
        checkSiteArgs(f, site);
        sites_[packLoc({f, site.origInstr})].push_back(std::move(site));
    }

    /** The hook's kind must match the original instruction it claims
     * to observe. */
    void
    checkSiteKind(uint32_t f, const Site &site)
    {
        const HookSpec &spec = *site.spec;
        const std::vector<Instr> &body = orig_.functions[f].body;

        auto mismatch = [&](const std::string &why) {
            diags_.error("check.selective.kind-mismatch",
                         "hook '" + mangledName(spec) + "' at (" +
                             std::to_string(f) + ", " +
                             locString(site.origInstr) + "): " + why,
                         f, site.origInstr);
        };

        if (site.origInstr == kFunctionEntry) {
            bool entry_ok =
                (spec.kind == HookKind::Begin &&
                 spec.block == BlockKind::Function) ||
                (spec.kind == HookKind::Start && orig_.start &&
                 *orig_.start == f);
            if (!entry_ok)
                mismatch("only begin_function/start hooks may target "
                         "the function entry");
            return;
        }

        const Instr &in = body[site.origInstr];
        OpClass cls = wasm::opInfo(in.op).cls;
        switch (spec.kind) {
          case HookKind::Nop:
          case HookKind::Unreachable:
          case HookKind::MemorySize:
          case HookKind::MemoryGrow:
          case HookKind::Drop:
          case HookKind::Select:
          case HookKind::If:
          case HookKind::Br:
          case HookKind::BrIf:
          case HookKind::BrTable:
          case HookKind::Return:
            if (core::hookKindForClass(cls) != spec.kind &&
                !(spec.kind == HookKind::If && cls == OpClass::If))
                mismatch("original instruction '" +
                         std::string(wasm::name(in.op)) +
                         "' is of a different kind");
            break;
          case HookKind::Load:
          case HookKind::Store:
          case HookKind::Const:
          case HookKind::Unary:
          case HookKind::Binary:
          case HookKind::Local:
          case HookKind::Global:
            if (core::hookKindForClass(cls) != spec.kind ||
                spec.op != in.op)
                mismatch("original instruction '" +
                         std::string(wasm::name(in.op)) +
                         "' does not match the hook's opcode");
            break;
          case HookKind::Call:
            if (cls != OpClass::Call && cls != OpClass::CallIndirect) {
                mismatch("original instruction '" +
                         std::string(wasm::name(in.op)) +
                         "' is not a call");
            } else if (!spec.post &&
                       spec.indirect != (cls == OpClass::CallIndirect)) {
                mismatch("call_pre direct/indirect flavor does not "
                         "match the instruction");
            }
            break;
          case HookKind::Begin: {
            OpClass want = cls;
            bool ok = (spec.block == BlockKind::Block &&
                       want == OpClass::Block) ||
                      (spec.block == BlockKind::Loop &&
                       want == OpClass::Loop) ||
                      (spec.block == BlockKind::If &&
                       want == OpClass::If) ||
                      (spec.block == BlockKind::Else &&
                       want == OpClass::Else);
            if (!ok)
                mismatch("begin hook block kind '" +
                         std::string(name(spec.block)) +
                         "' does not open at '" +
                         std::string(wasm::name(in.op)) + "'");
            break;
          }
          case HookKind::End: {
            const auto &ends = regionEnds(f);
            auto it = ends.find(site.origInstr);
            if (it == ends.end()) {
                mismatch("end hook targets an instruction that closes "
                         "no region");
            } else if (it->second.kind != spec.block) {
                mismatch("end hook block kind '" +
                         std::string(name(spec.block)) +
                         "' but the region closing here is a '" +
                         std::string(name(it->second.kind)) + "'");
            }
            break;
          }
          case HookKind::Start:
            mismatch("start hook not at the start function's entry");
            break;
        }
    }

    /** Argument shape at the site: end hooks name the right begin,
     * i64 operands are split into same-source (low, high) pairs. */
    void
    checkSiteArgs(uint32_t f, const Site &site)
    {
        const HookSpec &spec = *site.spec;

        if (spec.kind == HookKind::End &&
            site.origInstr != kFunctionEntry) {
            const auto &ends = regionEnds(f);
            auto it = ends.find(site.origInstr);
            if (it != ends.end() && !site.args.empty()) {
                const AbsVal &b = site.args[0];
                if (b.kind != AbsVal::ConstI32 ||
                    static_cast<uint32_t>(b.value) !=
                        it->second.begin) {
                    diags_.error(
                        "check.end.wrong-begin",
                        "end hook's begin argument does not name the "
                        "matching block begin (expected " +
                            locString(it->second.begin) + ")",
                        f, site.origInstr);
                }
            }
        }

        if (!split_)
            return;
        const std::vector<ValType> unsplit =
            lowLevelType(spec, false).params;
        size_t ai = 0;
        for (size_t p = 2; p < unsplit.size(); ++p) {
            if (unsplit[p] != ValType::I64) {
                ++ai;
                continue;
            }
            if (ai + 1 >= site.args.size())
                break; // arity mismatch already reported via types
            const AbsVal &lo = site.args[ai];
            const AbsVal &hi = site.args[ai + 1];
            bool split_pair = lo.kind == AbsVal::SplitLo &&
                              hi.kind == AbsVal::SplitHi &&
                              lo.local == hi.local;
            bool const_pair = lo.kind == AbsVal::ConstI32 &&
                              hi.kind == AbsVal::ConstI32;
            if (!split_pair && !const_pair) {
                diags_.error(
                    "check.i64.unsplit",
                    "i64 operand of hook '" + mangledName(spec) +
                        "' is not passed as a (low, high) i32 pair "
                        "derived from one value",
                    f, site.origInstr);
            } else if (const_pair && spec.kind == HookKind::Const &&
                       spec.op == Opcode::I64Const &&
                       site.origInstr != kFunctionEntry) {
                uint64_t v = orig_.functions[f]
                                 .body[site.origInstr]
                                 .imm.i64v;
                if (static_cast<uint32_t>(lo.value) !=
                        static_cast<uint32_t>(v) ||
                    static_cast<uint32_t>(hi.value) !=
                        static_cast<uint32_t>(v >> 32)) {
                    diags_.error(
                        "check.i64.const-halves",
                        "statically split i64.const halves do not "
                        "recombine to the original constant",
                        f, site.origInstr);
                }
            }
            ai += 2;
        }
    }

    // ----- coverage: enabled classes are fully instrumented ----------

    bool
    hasSite(uint32_t f, uint32_t instr,
            const std::function<bool(const Site &)> &pred) const
    {
        auto it = sites_.find(packLoc({f, instr}));
        if (it == sites_.end())
            return false;
        return std::any_of(it->second.begin(), it->second.end(), pred);
    }

    void
    requireSite(uint32_t f, uint32_t instr, const std::string &what,
                const std::function<bool(const Site &)> &pred)
    {
        if (!hasSite(f, instr, pred)) {
            diags_.error("check.selective.missing-hook",
                         "enabled hook '" + what +
                             "' missing at this instruction",
                         f, instr);
        }
    }

    void
    requireEndSitesForTraversal(uint32_t f,
                                const std::vector<ControlFrame> &frames)
    {
        for (const ControlFrame &fr : frames) {
            uint32_t end_idx =
                fr.kind == BlockKind::If && fr.elseIdx ? *fr.elseIdx
                                                       : fr.endIdx;
            BlockKind kind = fr.kind;
            requireSite(f, end_idx, "end_" + std::string(name(kind)),
                        [kind](const Site &s) {
                            return s.spec->kind == HookKind::End &&
                                   s.spec->block == kind;
                        });
        }
    }

    void
    checkCoverage(uint32_t f)
    {
        const Function &func = orig_.functions[f];
        const std::vector<Instr> &body = func.body;
        AbstractState state(orig_, f);

        if (hooks_.has(HookKind::Begin)) {
            requireSite(f, kFunctionEntry, "begin_function",
                        [](const Site &s) {
                            return s.spec->kind == HookKind::Begin &&
                                   s.spec->block == BlockKind::Function;
                        });
        }
        if (hooks_.has(HookKind::Start) && orig_.start &&
            *orig_.start == f) {
            requireSite(f, kFunctionEntry, "start",
                        [](const Site &s) {
                            return s.spec->kind == HookKind::Start;
                        });
        }

        for (uint32_t i = 0; i < body.size(); ++i) {
            const Instr &in = body[i];
            OpClass cls = wasm::opInfo(in.op).cls;
            if (state.reachable()) {
                checkCoverageAt(f, i, in, cls, state);
            } else if (cls == OpClass::Else &&
                       !state.frames().back().deadEntry &&
                       hooks_.has(HookKind::Begin)) {
                // A dead then-region whose `if` was entered live still
                // guards a reachable else-region (instrumenter's
                // special case).
                requireSite(f, i, "begin_else", [](const Site &s) {
                    return s.spec->kind == HookKind::Begin &&
                           s.spec->block == BlockKind::Else;
                });
            }
            state.apply(in, i);
        }
    }

    void
    checkCoverageAt(uint32_t f, uint32_t i, const Instr &in, OpClass cls,
                    const AbstractState &state)
    {
        auto simple = [&](HookKind kind, const char *what) {
            if (hooks_.has(kind)) {
                requireSite(f, i, what, [kind](const Site &s) {
                    return s.spec->kind == kind;
                });
            }
        };
        auto perOp = [&](HookKind kind) {
            if (hooks_.has(kind)) {
                Opcode op = in.op;
                requireSite(f, i, wasm::name(in.op),
                            [kind, op](const Site &s) {
                                return s.spec->kind == kind &&
                                       s.spec->op == op;
                            });
            }
        };
        auto begin = [&](BlockKind block, const char *what) {
            if (hooks_.has(HookKind::Begin)) {
                requireSite(f, i, what, [block](const Site &s) {
                    return s.spec->kind == HookKind::Begin &&
                           s.spec->block == block;
                });
            }
        };

        switch (cls) {
          case OpClass::Nop:
            simple(HookKind::Nop, "nop");
            break;
          case OpClass::Unreachable:
            simple(HookKind::Unreachable, "unreachable");
            break;
          case OpClass::MemorySize:
            simple(HookKind::MemorySize, "memory.size");
            break;
          case OpClass::MemoryGrow:
            simple(HookKind::MemoryGrow, "memory.grow");
            break;
          case OpClass::Block:
            begin(BlockKind::Block, "begin_block");
            break;
          case OpClass::Loop:
            begin(BlockKind::Loop, "begin_loop");
            break;
          case OpClass::If:
            simple(HookKind::If, "if_cond");
            begin(BlockKind::If, "begin_if");
            break;
          case OpClass::Else:
            if (hooks_.has(HookKind::End)) {
                requireSite(f, i, "end_if", [](const Site &s) {
                    return s.spec->kind == HookKind::End &&
                           s.spec->block == BlockKind::If;
                });
            }
            begin(BlockKind::Else, "begin_else");
            break;
          case OpClass::End:
            if (hooks_.has(HookKind::End)) {
                BlockKind kind = state.frames().back().kind;
                requireSite(f, i,
                            "end_" + std::string(name(kind)),
                            [kind](const Site &s) {
                                return s.spec->kind == HookKind::End &&
                                       s.spec->block == kind;
                            });
            }
            break;
          case OpClass::Br:
            simple(HookKind::Br, "br");
            if (hooks_.has(HookKind::End)) {
                requireEndSitesForTraversal(
                    f, state.traversedFrames(in.imm.idx));
            }
            break;
          case OpClass::BrIf:
            simple(HookKind::BrIf, "br_if");
            if (hooks_.has(HookKind::End)) {
                requireEndSitesForTraversal(
                    f, state.traversedFrames(in.imm.idx));
            }
            break;
          case OpClass::BrTable:
            // Emitted when br_table OR end hooks are enabled: the
            // side table drives the runtime-selected end hooks.
            if (hooks_.has(HookKind::BrTable) ||
                hooks_.has(HookKind::End)) {
                requireSite(f, i, "br_table", [](const Site &s) {
                    return s.spec->kind == HookKind::BrTable;
                });
            }
            break;
          case OpClass::Return: {
            if (hooks_.has(HookKind::Return)) {
                std::vector<ValType> results =
                    orig_.funcType(f).results;
                requireSite(f, i, "return",
                            [&results](const Site &s) {
                                return s.spec->kind ==
                                           HookKind::Return &&
                                       s.spec->types == results;
                            });
            }
            if (hooks_.has(HookKind::End)) {
                requireEndSitesForTraversal(
                    f, state.allFramesInnermostFirst());
            }
            break;
          }
          case OpClass::Call:
          case OpClass::CallIndirect: {
            if (!hooks_.has(HookKind::Call))
                break;
            bool indirect = cls == OpClass::CallIndirect;
            const FuncType &type = indirect
                                       ? orig_.types.at(in.imm.idx)
                                       : orig_.funcType(in.imm.idx);
            requireSite(f, i, indirect ? "call_pre_indirect" : "call_pre",
                        [&type, indirect](const Site &s) {
                            return s.spec->kind == HookKind::Call &&
                                   !s.spec->post &&
                                   s.spec->indirect == indirect &&
                                   s.spec->types == type.params;
                        });
            requireSite(f, i, "call_post", [&type](const Site &s) {
                return s.spec->kind == HookKind::Call &&
                       s.spec->post &&
                       s.spec->types == type.results;
            });
            break;
          }
          case OpClass::Drop: {
            if (!hooks_.has(HookKind::Drop))
                break;
            std::optional<ValType> t = state.top(0);
            requireSite(f, i, "drop", [t](const Site &s) {
                return s.spec->kind == HookKind::Drop &&
                       (!t || s.spec->types ==
                                  std::vector<ValType>{*t});
            });
            break;
          }
          case OpClass::Select: {
            if (!hooks_.has(HookKind::Select))
                break;
            std::optional<ValType> t = state.top(1);
            requireSite(f, i, "select", [t](const Site &s) {
                return s.spec->kind == HookKind::Select &&
                       (!t || s.spec->types ==
                                  std::vector<ValType>{*t});
            });
            break;
          }
          case OpClass::LocalGet:
          case OpClass::LocalSet:
          case OpClass::LocalTee:
            perOp(HookKind::Local);
            break;
          case OpClass::GlobalGet:
          case OpClass::GlobalSet:
            perOp(HookKind::Global);
            break;
          case OpClass::Load:
            perOp(HookKind::Load);
            break;
          case OpClass::Store:
            perOp(HookKind::Store);
            break;
          case OpClass::Const:
            perOp(HookKind::Const);
            break;
          case OpClass::Unary:
            perOp(HookKind::Unary);
            break;
          case OpClass::Binary:
            perOp(HookKind::Binary);
            break;
        }
    }

    // ----- side-table / branch-target metadata -----------------------

    void
    checkMetadata(const core::StaticInfo &info)
    {
        for (uint32_t f = 0; f < orig_.numFunctions(); ++f) {
            if (!orig_.functions[f].imported())
                checkFunctionMetadata(info, f);
        }
    }

    std::vector<core::EndedBlock>
    expectedEnded(uint32_t f, const std::vector<ControlFrame> &frames)
    {
        std::vector<core::EndedBlock> out;
        for (const ControlFrame &fr : frames) {
            uint32_t end_idx =
                fr.kind == BlockKind::If && fr.elseIdx ? *fr.elseIdx
                                                       : fr.endIdx;
            uint32_t begin_idx =
                fr.kind == BlockKind::Else && fr.elseIdx ? *fr.elseIdx
                                                         : fr.beginIdx;
            out.push_back(core::EndedBlock{
                fr.kind, Location{f, end_idx}, Location{f, begin_idx}});
        }
        return out;
    }

    bool
    endedMatches(const std::vector<core::EndedBlock> &actual,
                 const std::vector<core::EndedBlock> &expected)
    {
        if (actual.size() != expected.size())
            return false;
        for (size_t k = 0; k < actual.size(); ++k) {
            if (actual[k].kind != expected[k].kind ||
                !(actual[k].end == expected[k].end) ||
                !(actual[k].begin == expected[k].begin))
                return false;
        }
        return true;
    }

    void
    checkFunctionMetadata(const core::StaticInfo &info, uint32_t f)
    {
        const std::vector<Instr> &body = orig_.functions[f].body;
        AbstractState state(orig_, f);
        for (uint32_t i = 0; i < body.size(); ++i) {
            const Instr &in = body[i];
            OpClass cls = wasm::opInfo(in.op).cls;
            bool live = state.reachable();
            Location loc{f, i};

            if (live && (cls == OpClass::Br || cls == OpClass::BrIf)) {
                const core::BranchTarget *bt = info.findBrTarget(loc);
                uint32_t resolved = state.resolveLabel(in.imm.idx);
                if (!bt) {
                    diags_.error("check.sidetable.br-target",
                                 "no resolved branch target recorded "
                                 "for this branch",
                                 f, i);
                } else if (bt->label != in.imm.idx ||
                           !(bt->location == Location{f, resolved})) {
                    diags_.error(
                        "check.sidetable.br-target",
                        "recorded branch target (label " +
                            std::to_string(bt->label) + " -> instr " +
                            locString(bt->location.instr) +
                            ") disagrees with the abstract control "
                            "stack (label " +
                            std::to_string(in.imm.idx) + " -> instr " +
                            locString(resolved) + ")",
                        f, i);
                }
            }

            if (live && cls == OpClass::BrTable) {
                const core::BrTableInfo *tbl = info.findBrTable(loc);
                if (!tbl) {
                    diags_.error("check.sidetable.missing",
                                 "no side table recorded for this "
                                 "br_table",
                                 f, i);
                } else {
                    checkBrTable(f, i, in, *tbl, state);
                }
            }

            if (cls == OpClass::End || cls == OpClass::Else) {
                const core::BlockEndInfo *be = info.findBlockEnd(loc);
                const auto &ends = regionEnds(f);
                auto it = ends.find(i);
                if (!be) {
                    diags_.error("check.sidetable.block-end",
                                 "no block-end info recorded", f, i);
                } else if (it != ends.end() &&
                           (be->kind != it->second.kind ||
                            !(be->begin ==
                              Location{f, it->second.begin}))) {
                    diags_.error("check.sidetable.block-end",
                                 "recorded block-end info disagrees "
                                 "with the block structure",
                                 f, i);
                }
            }

            state.apply(in, i);
        }
    }

    void
    checkBrTable(uint32_t f, uint32_t i, const Instr &in,
                 const core::BrTableInfo &tbl, const AbstractState &state)
    {
        std::span<const uint32_t> labels = orig_.functions[f].labels(in);
        if (tbl.cases.size() + 1 != labels.size()) {
            diags_.error(
                "check.sidetable.case-count",
                "side table has " + std::to_string(tbl.cases.size()) +
                    " cases for a br_table with " +
                    std::to_string(labels.size() - 1) +
                    " non-default targets",
                f, i);
            return;
        }
        auto checkEntry = [&](const core::BrTableEntry &entry,
                              uint32_t label, const char *what) {
            uint32_t resolved = state.resolveLabel(label);
            bool target_ok =
                entry.target.label == label &&
                entry.target.location == Location{f, resolved};
            bool ended_ok = endedMatches(
                entry.ended,
                expectedEnded(f, state.traversedFrames(label)));
            if (!target_ok || !ended_ok) {
                diags_.error(
                    "check.sidetable.entry",
                    std::string(what) +
                        " entry does not cover its target (label " +
                        std::to_string(label) + " -> instr " +
                        locString(resolved) + ")",
                    f, i);
            }
        };
        for (size_t k = 0; k + 1 < labels.size(); ++k)
            checkEntry(tbl.cases[k], labels[k],
                       ("case " + std::to_string(k)).c_str());
        checkEntry(tbl.defaultCase, labels.back(), "default");
    }

    // ----- state ------------------------------------------------------

    const Module &orig_;
    const Module &instr_;
    CheckOptions opts_;
    const core::StaticInfo *info_;

    Diagnostics diags_;
    uint32_t base_ = 0;
    std::vector<HookSpec> specs_;
    /** Whether each hook import's name parsed to a real spec. */
    std::vector<bool> parsed_;
    bool split_ = true;
    HookSet hooks_;
    /** Hook call sites keyed by packed original location. */
    std::unordered_map<uint64_t, std::vector<Site>> sites_;
    /** Per-function end/else region shapes (lazy). */
    std::unordered_map<uint32_t,
                       std::unordered_map<uint32_t, RegionEnd>>
        regionEnds_;
};

} // namespace

Diagnostics
checkInstrumentation(const Module &original, const Module &instrumented,
                     const CheckOptions &opts)
{
    return Checker(original, instrumented, opts, nullptr).run();
}

Diagnostics
checkInstrumentation(const core::StaticInfo &info,
                     const Module &instrumented)
{
    return Checker(*info.original, instrumented, {}, &info).run();
}

} // namespace wasabi::static_analysis
