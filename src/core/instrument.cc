#include "core/instrument.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/control_stack.h"
#include "core/hook_map.h"
#include "support/parallel.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/name_section.h"

namespace wasabi::core {

using wasm::FuncType;
using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;
using wasm::OpClass;
using wasm::OpInfo;
using wasm::ValType;

namespace {

/** Placeholder base for hook call targets, resolved in the stitch.
 * Keeping hook targets symbolic makes per-function instrumentation
 * independent and hence parallelizable. */
constexpr uint32_t kHookBase = 0x80000000u;

/** A call whose function index is left out of a body's bytes: the
 * index of @p target belongs at byte @p offset. The target is
 * kHookBase + a hook id, or a function index of the input module. */
struct CallReloc {
    uint32_t offset;
    uint32_t target;
};

/** Per-function instrumentation output. */
struct FuncOut {
    /** The instrumented body's bytes, with every call's function index
     * left out (see calls). */
    std::vector<uint8_t> code;
    /** The calls of code, in order. */
    std::vector<CallReloc> calls;
    std::vector<ValType> extraLocals;
};

/** A HookSpec's fields with its type list borrowed: the per-worker
 * hook cache is probed with it, so that a hit allocates nothing. */
struct HookKey {
    HookKind kind = HookKind::Nop;
    Opcode op = Opcode::Nop;
    std::span<const ValType> types;
    bool indirect = false;
    bool post = false;
    BlockKind block = BlockKind::Block;

    HookSpec
    spec() const
    {
        return HookSpec{kind, op, {types.begin(), types.end()},
                        indirect, post, block};
    }
};

HookKey
keyOf(const HookKey &k)
{
    return k;
}

HookKey
keyOf(const HookSpec &s)
{
    return HookKey{s.kind, s.op, s.types, s.indirect, s.post, s.block};
}

/** Hash and equality of HookSpec and HookKey alike (transparent). */
struct HookKeyHash {
    using is_transparent = void;

    template <class K>
    size_t
    operator()(const K &key) const
    {
        HookKey k = keyOf(key);
        size_t h = static_cast<size_t>(k.kind) |
                   static_cast<size_t>(k.op) << 8 |
                   static_cast<size_t>(k.block) << 16 |
                   static_cast<size_t>(k.indirect) << 24 |
                   static_cast<size_t>(k.post) << 25;
        for (ValType t : k.types)
            h = h * 0x100000001b3ull + static_cast<size_t>(t) + 1;
        return h;
    }
};

struct HookKeyEq {
    using is_transparent = void;

    template <class A, class B>
    bool
    operator()(const A &a, const B &b) const
    {
        HookKey x = keyOf(a), y = keyOf(b);
        return x.kind == y.kind && x.op == y.op && x.block == y.block &&
               x.indirect == y.indirect && x.post == y.post &&
               std::ranges::equal(x.types, y.types);
    }
};

/** A worker's hook ids, shared across the functions it instruments. */
using HookCache =
    std::unordered_map<HookSpec, uint32_t, HookKeyHash, HookKeyEq>;

/** Instruments a single function (runs on a worker thread). */
class FuncInstrumenter {
  public:
    FuncInstrumenter(const Module &m, uint32_t func_idx, HookSet hooks,
                     const InstrumentOptions &opts, HookMap &hook_map,
                     HookCache &hook_cache)
        : m_(m), funcIdx_(func_idx), hooks_(hooks), opts_(opts),
          hookMap_(hook_map), hookCache_(hook_cache),
          func_(m.functions.at(func_idx)), state_(m, func_idx)
    {
        firstScratch_ =
            static_cast<uint32_t>(m.funcType(func_idx).params.size() +
                                  func_.locals.size());
    }

    FuncOut
    run()
    {
        // Function-entry hooks.
        if (hooks_.has(HookKind::Start) && m_.start &&
            *m_.start == funcIdx_) {
            emitLoc(kFunctionEntry);
            emitHookCall(HookKey{.kind = HookKind::Start});
        }
        if (hooks_.has(HookKind::Begin)) {
            emitLoc(kFunctionEntry);
            emitHookCall(HookKey{.kind = HookKind::Begin,
                                 .block = BlockKind::Function});
        }

        for (uint32_t i = 0; i < func_.body.size(); ++i) {
            instrumentInstr(func_.body[i], i);
            state_.apply(func_.body[i], i);
        }
        return std::move(out_);
    }

  private:
    // ----- emission helpers ------------------------------------------

    /** Append @p instr's bytes. A call's function index is left out
     * and recorded; a br_table (always one of the input body's) reads
     * its labels from the input function's pool. */
    void
    emit(const Instr &instr)
    {
        if (instr.op == Opcode::Call) {
            out_.code.push_back(static_cast<uint8_t>(Opcode::Call));
            out_.calls.push_back(
                {static_cast<uint32_t>(out_.code.size()), instr.imm.idx});
            return;
        }
        wasm::encodeInstr(out_.code, instr, func_.labelPool);
    }

    /** Push the two location arguments (function, instruction). */
    void
    emitLoc(uint32_t instr_idx)
    {
        emit(Instr::i32Const(funcIdx_));
        emit(Instr::i32Const(instr_idx));
    }

    /** Call into the (deduplicated) low-level hook for @p key.
     * A per-worker cache keeps the hot path off the shared map's
     * readers/writer lock (important for parallel instrumentation —
     * every instrumented instruction resolves a hook id). */
    void
    emitHookCall(const HookKey &key)
    {
        auto it = hookCache_.find(key);
        uint32_t id;
        if (it != hookCache_.end()) {
            id = it->second;
        } else {
            HookSpec spec = key.spec();
            id = hookMap_.getOrAdd(spec);
            hookCache_.emplace(std::move(spec), id);
        }
        emit(Instr::call(kHookBase + id));
    }

    /** Scratch local of type @p t for slot @p slot; slots separate
     * concurrently-live temporaries within one instrumentation unit.
     * Locals are declared in first-use order. */
    uint32_t
    scratch(ValType t, int slot)
    {
        const size_t key = static_cast<size_t>(slot) * wasm::kNumValTypes +
                           static_cast<size_t>(t);
        if (key >= scratch_.size())
            scratch_.resize(key + 1, kNoScratch);
        uint32_t &idx = scratch_[key];
        if (idx == kNoScratch) {
            idx = firstScratch_ +
                  static_cast<uint32_t>(out_.extraLocals.size());
            out_.extraLocals.push_back(t);
        }
        return idx;
    }

    /** Push the value of a local as hook argument(s): i64 values are
     * split into (low, high) i32 halves when the split ABI is on
     * (paper §2.4.6, Table 3 row 6). */
    void
    emitLocalArg(uint32_t local, ValType t)
    {
        emit(Instr::localGet(local));
        if (t == ValType::I64 && opts_.splitI64) {
            emit(Instr(Opcode::I32WrapI64)); // low half
            emit(Instr::localGet(local));
            emit(Instr::i64Const(32));
            emit(Instr(Opcode::I64ShrU));
            emit(Instr(Opcode::I32WrapI64)); // high half
        }
    }

    /** Push a global's value as hook argument(s). */
    void
    emitGlobalArg(uint32_t global, ValType t)
    {
        if (t == ValType::I64 && opts_.splitI64) {
            uint32_t tmp = scratch(t, 0);
            emit(Instr::globalGet(global));
            emit(Instr::localSet(tmp));
            emitLocalArg(tmp, t);
        } else {
            emit(Instr::globalGet(global));
        }
    }

    /** Emit the end-hook call for one traversed frame (§2.4.5). */
    void
    emitEndHookFor(const ControlFrame &f)
    {
        emitLoc(f.regionEnd());
        emit(Instr::i32Const(f.regionBegin()));
        emitHookCall(HookKey{.kind = HookKind::End, .block = f.kind});
    }

    // ----- per-instruction instrumentation ----------------------------

    void
    instrumentInstr(const Instr &instr, uint32_t i)
    {
        const OpInfo &info = wasm::opInfo(instr.op);

        if (!state_.reachable()) {
            // Dead code never executes: copy it unchanged. (Its types
            // may be unknowable anyway, cf. drop in unreachable code.)
            // Exception: an `else` whose *then*-branch ended dead still
            // guards a reachable else-region and needs its begin hook,
            // provided the `if` itself was entered live.
            if (info.cls == OpClass::Else &&
                !state_.frames().back().deadEntry) {
                emit(instr);
                if (hooks_.has(HookKind::Begin)) {
                    emitLoc(i);
                    emitHookCall(HookKey{.kind = HookKind::Begin,
                                         .block = BlockKind::Else});
                }
                return;
            }
            emit(instr);
            return;
        }

        switch (info.cls) {
          case OpClass::Nop:
            emit(instr);
            if (hooks_.has(HookKind::Nop)) {
                emitLoc(i);
                emitHookCall(HookKey{.kind = HookKind::Nop});
            }
            break;

          case OpClass::Unreachable:
            // The hook must run *before* the trapping instruction.
            if (hooks_.has(HookKind::Unreachable)) {
                emitLoc(i);
                emitHookCall(HookKey{.kind = HookKind::Unreachable});
            }
            emit(instr);
            break;

          case OpClass::Block:
          case OpClass::Loop: {
            emit(instr);
            if (hooks_.has(HookKind::Begin)) {
                emitLoc(i);
                emitHookCall(HookKey{
                    .kind = HookKind::Begin,
                    .block = info.cls == OpClass::Block ? BlockKind::Block
                                                        : BlockKind::Loop});
            }
            break;
          }

          case OpClass::If: {
            if (hooks_.has(HookKind::If)) {
                uint32_t c = scratch(ValType::I32, 0);
                emit(Instr::localTee(c));
                emitLoc(i);
                emit(Instr::localGet(c));
                emitHookCall(HookKey{.kind = HookKind::If});
            }
            emit(instr);
            if (hooks_.has(HookKind::Begin)) {
                emitLoc(i);
                emitHookCall(HookKey{.kind = HookKind::Begin,
                                     .block = BlockKind::If});
            }
            break;
          }

          case OpClass::Else: {
            // Exiting the then-region: fire its end hook first.
            if (hooks_.has(HookKind::End)) {
                const ControlFrame &f = state_.frames().back();
                emitLoc(i);
                emit(Instr::i32Const(f.beginIdx));
                emitHookCall(HookKey{.kind = HookKind::End,
                                     .block = BlockKind::If});
            }
            emit(instr);
            if (hooks_.has(HookKind::Begin)) {
                emitLoc(i);
                emitHookCall(HookKey{.kind = HookKind::Begin,
                                     .block = BlockKind::Else});
            }
            break;
          }

          case OpClass::End: {
            if (hooks_.has(HookKind::End)) {
                const ControlFrame &f = state_.frames().back();
                emitLoc(i);
                emit(Instr::i32Const(f.regionBegin()));
                emitHookCall(
                    HookKey{.kind = HookKind::End, .block = f.kind});
            }
            emit(instr);
            break;
          }

          case OpClass::Br: {
            uint32_t label = instr.imm.idx;
            if (hooks_.has(HookKind::Br)) {
                emitLoc(i);
                emitHookCall(HookKey{.kind = HookKind::Br});
            }
            if (hooks_.has(HookKind::End)) {
                for (const ControlFrame &f : state_.traversedFrames(label))
                    emitEndHookFor(f);
            }
            emit(instr);
            break;
          }

          case OpClass::BrIf: {
            uint32_t label = instr.imm.idx;
            bool want_hook = hooks_.has(HookKind::BrIf);
            bool want_ends = hooks_.has(HookKind::End);
            if (want_hook || want_ends) {
                uint32_t c = scratch(ValType::I32, 0);
                emit(Instr::localTee(c));
                if (want_hook) {
                    emitLoc(i);
                    emit(Instr::localGet(c));
                    emitHookCall(HookKey{.kind = HookKind::BrIf});
                }
                if (want_ends) {
                    // End hooks fire only if the branch is taken.
                    emit(Instr::localGet(c));
                    emit(Instr::blockStart(Opcode::If, std::nullopt));
                    for (const ControlFrame &f :
                         state_.traversedFrames(label)) {
                        emitEndHookFor(f);
                    }
                    emit(Instr(Opcode::End));
                }
            }
            emit(instr);
            break;
          }

          case OpClass::BrTable: {
            // Which branch is taken — and thus which blocks are left —
            // is only known at runtime; the low-level hook dispatches
            // through the instruction's side table (paper §2.4.5).
            if (hooks_.has(HookKind::BrTable) ||
                hooks_.has(HookKind::End)) {
                uint32_t idx = scratch(ValType::I32, 0);
                emit(Instr::localTee(idx));
                emitLoc(i);
                emit(Instr::localGet(idx));
                emitHookCall(HookKey{.kind = HookKind::BrTable});
            }
            emit(instr);
            break;
          }

          case OpClass::Return: {
            const std::vector<ValType> &results =
                m_.funcType(funcIdx_).results;
            if (hooks_.has(HookKind::Return)) {
                HookKey spec{.kind = HookKind::Return, .types = results};
                if (results.empty()) {
                    emitLoc(i);
                    emitHookCall(spec);
                } else {
                    uint32_t r = scratch(results[0], 0);
                    emit(Instr::localTee(r));
                    emitLoc(i);
                    emitLocalArg(r, results[0]);
                    emitHookCall(spec);
                }
            }
            if (hooks_.has(HookKind::End)) {
                for (const ControlFrame &f :
                     state_.allFramesInnermostFirst()) {
                    emitEndHookFor(f);
                }
            }
            emit(instr);
            break;
          }

          case OpClass::Call:
          case OpClass::CallIndirect: {
            bool indirect = info.cls == OpClass::CallIndirect;
            const FuncType &type = indirect
                                       ? m_.types.at(instr.imm.idx)
                                       : m_.funcType(instr.imm.idx);
            if (!hooks_.has(HookKind::Call)) {
                emit(instr);
                break;
            }
            int nargs = static_cast<int>(type.params.size());
            uint32_t tbl = 0;
            if (indirect) {
                tbl = scratch(ValType::I32, nargs);
                emit(Instr::localSet(tbl));
            }
            // Save arguments into fresh locals (top of stack first).
            for (int j = nargs - 1; j >= 0; --j)
                emit(Instr::localSet(scratch(type.params[j], j)));
            // call_pre hook: loc, (table index,) args.
            emitLoc(i);
            if (indirect)
                emit(Instr::localGet(tbl));
            for (int j = 0; j < nargs; ++j)
                emitLocalArg(scratch(type.params[j], j), type.params[j]);
            emitHookCall(HookKey{.kind = HookKind::Call,
                                 .types = type.params,
                                 .indirect = indirect});
            // Restore arguments and perform the call.
            for (int j = 0; j < nargs; ++j)
                emit(Instr::localGet(scratch(type.params[j], j)));
            if (indirect)
                emit(Instr::localGet(tbl));
            emit(instr);
            // call_post hook: loc, results.
            HookKey post{.kind = HookKind::Call,
                         .types = type.results,
                         .post = true};
            if (type.results.empty()) {
                emitLoc(i);
                emitHookCall(post);
            } else {
                uint32_t r = scratch(type.results[0], nargs + 1);
                emit(Instr::localTee(r));
                emitLoc(i);
                emitLocalArg(r, type.results[0]);
                emitHookCall(post);
            }
            break;
          }

          case OpClass::Drop: {
            std::optional<ValType> t = state_.top(0);
            assert(t && "drop input type must be known in live code");
            if (!hooks_.has(HookKind::Drop)) {
                emit(instr);
                break;
            }
            // The hook call consumes the value in place of the drop
            // (Table 3 row 4).
            uint32_t v = scratch(*t, 0);
            emit(Instr::localSet(v));
            emitLoc(i);
            emitLocalArg(v, *t);
            emitHookCall(
                HookKey{.kind = HookKind::Drop, .types = {&*t, 1}});
            break;
          }

          case OpClass::Select: {
            std::optional<ValType> t = state_.top(1);
            assert(t && "select input type must be known in live code");
            if (!hooks_.has(HookKind::Select)) {
                emit(instr);
                break;
            }
            uint32_t c = scratch(ValType::I32, 0);
            uint32_t a = scratch(*t, 1);
            uint32_t b = scratch(*t, 2);
            emit(Instr::localSet(c));
            emit(Instr::localSet(b));
            emit(Instr::localTee(a));
            emit(Instr::localGet(b));
            emit(Instr::localGet(c));
            emit(instr); // the select itself
            emitLoc(i);
            emit(Instr::localGet(c));
            emitLocalArg(a, *t);
            emitLocalArg(b, *t);
            emitHookCall(
                HookKey{.kind = HookKind::Select, .types = {&*t, 1}});
            break;
          }

          case OpClass::LocalGet:
          case OpClass::LocalSet:
          case OpClass::LocalTee: {
            emit(instr);
            if (hooks_.has(HookKind::Local)) {
                ValType t = localType(instr.imm.idx);
                emitLoc(i);
                emitLocalArg(instr.imm.idx, t);
                emitHookCall(HookKey{.kind = HookKind::Local,
                                     .op = instr.op,
                                     .types = {&t, 1}});
            }
            break;
          }

          case OpClass::GlobalGet:
          case OpClass::GlobalSet: {
            emit(instr);
            if (hooks_.has(HookKind::Global)) {
                ValType t = m_.globals.at(instr.imm.idx).type;
                emitLoc(i);
                emitGlobalArg(instr.imm.idx, t);
                emitHookCall(HookKey{.kind = HookKind::Global,
                                     .op = instr.op,
                                     .types = {&t, 1}});
            }
            break;
          }

          case OpClass::Load: {
            if (!hooks_.has(HookKind::Load)) {
                emit(instr);
                break;
            }
            uint32_t addr = scratch(ValType::I32, 0);
            uint32_t v = scratch(info.out, 1);
            emit(Instr::localTee(addr));
            emit(instr);
            emit(Instr::localTee(v));
            emitLoc(i);
            emit(Instr::localGet(addr));
            emitLocalArg(v, info.out);
            emitHookCall(
                HookKey{.kind = HookKind::Load, .op = instr.op});
            break;
          }

          case OpClass::Store: {
            if (!hooks_.has(HookKind::Store)) {
                emit(instr);
                break;
            }
            ValType vt = info.in[1];
            uint32_t addr = scratch(ValType::I32, 0);
            uint32_t v = scratch(vt, 1);
            emit(Instr::localSet(v));
            emit(Instr::localTee(addr));
            emit(Instr::localGet(v));
            emit(instr);
            emitLoc(i);
            emit(Instr::localGet(addr));
            emitLocalArg(v, vt);
            emitHookCall(
                HookKey{.kind = HookKind::Store, .op = instr.op});
            break;
          }

          case OpClass::MemorySize: {
            emit(instr);
            if (hooks_.has(HookKind::MemorySize)) {
                uint32_t s = scratch(ValType::I32, 0);
                emit(Instr::localTee(s));
                emitLoc(i);
                emit(Instr::localGet(s));
                emitHookCall(HookKey{.kind = HookKind::MemorySize});
            }
            break;
          }

          case OpClass::MemoryGrow: {
            if (!hooks_.has(HookKind::MemoryGrow)) {
                emit(instr);
                break;
            }
            uint32_t d = scratch(ValType::I32, 0);
            uint32_t p = scratch(ValType::I32, 1);
            emit(Instr::localTee(d));
            emit(instr);
            emit(Instr::localTee(p));
            emitLoc(i);
            emit(Instr::localGet(d));
            emit(Instr::localGet(p));
            emitHookCall(HookKey{.kind = HookKind::MemoryGrow});
            break;
          }

          case OpClass::Const: {
            emit(instr);
            if (hooks_.has(HookKind::Const)) {
                emitLoc(i);
                if (instr.op == Opcode::I64Const && opts_.splitI64) {
                    // The halves are known statically.
                    emit(Instr::i32Const(
                        static_cast<uint32_t>(instr.imm.i64v)));
                    emit(Instr::i32Const(
                        static_cast<uint32_t>(instr.imm.i64v >> 32)));
                } else {
                    emit(instr); // re-push the constant for the hook
                }
                emitHookCall(
                    HookKey{.kind = HookKind::Const, .op = instr.op});
            }
            break;
          }

          case OpClass::Unary: {
            if (!hooks_.has(HookKind::Unary)) {
                emit(instr);
                break;
            }
            uint32_t in = scratch(info.in[0], 0);
            uint32_t r = scratch(info.out, 1);
            emit(Instr::localTee(in));
            emit(instr);
            emit(Instr::localTee(r));
            emitLoc(i);
            emitLocalArg(in, info.in[0]);
            emitLocalArg(r, info.out);
            emitHookCall(
                HookKey{.kind = HookKind::Unary, .op = instr.op});
            break;
          }

          case OpClass::Binary: {
            if (!hooks_.has(HookKind::Binary)) {
                emit(instr);
                break;
            }
            uint32_t a = scratch(info.in[0], 0);
            uint32_t b = scratch(info.in[1], 1);
            uint32_t r = scratch(info.out, 2);
            emit(Instr::localSet(b));
            emit(Instr::localTee(a));
            emit(Instr::localGet(b));
            emit(instr);
            emit(Instr::localTee(r));
            emitLoc(i);
            emitLocalArg(a, info.in[0]);
            emitLocalArg(b, info.in[1]);
            emitLocalArg(r, info.out);
            emitHookCall(
                HookKey{.kind = HookKind::Binary, .op = instr.op});
            break;
          }
        }
    }

    ValType
    localType(uint32_t idx) const
    {
        const std::vector<ValType> &params =
            m_.funcType(funcIdx_).params;
        if (idx < params.size())
            return params[idx];
        return func_.locals.at(idx - params.size());
    }

    const Module &m_;
    uint32_t funcIdx_;
    HookSet hooks_;
    const InstrumentOptions &opts_;
    HookMap &hookMap_;
    HookCache &hookCache_;
    const Function &func_;
    AbstractState state_;
    FuncOut out_;
    uint32_t firstScratch_;
    /** Scratch local per (slot, type), kNoScratch until first use. */
    static constexpr uint32_t kNoScratch = UINT32_MAX;
    std::vector<uint32_t> scratch_;
};

/** Patch a function index after hook imports were inserted. */
uint32_t
remapFuncIdx(uint32_t idx, uint32_t num_orig_imports, uint32_t num_hooks)
{
    if (idx >= kHookBase)
        return num_orig_imports + (idx - kHookBase);
    if (idx < num_orig_imports)
        return idx;
    return idx + num_hooks;
}

/** The code section of the output: each instrumented body's bytes
 * with its calls' resolved function indices put back in. A body's
 * buffers are released as soon as it is written. */
class StitchedBodies final : public wasm::BodyWriter {
  public:
    /** @p outs is indexed by input function; output function f is
     * input function f - @p num_hooks (defined functions follow the
     * hook imports). */
    StitchedBodies(std::vector<FuncOut> &outs, uint32_t num_hooks)
        : outs_(outs), numHooks_(num_hooks)
    {
    }

    size_t
    size(uint32_t func_idx) override
    {
        const FuncOut &o = outs_[func_idx - numHooks_];
        size_t n = o.code.size();
        for (const CallReloc &c : o.calls)
            n += wasm::ulebSize(c.target);
        return n;
    }

    void
    write(std::vector<uint8_t> &out, uint32_t func_idx) override
    {
        FuncOut &o = outs_[func_idx - numHooks_];
        uint32_t pos = 0;
        for (const CallReloc &c : o.calls) {
            out.insert(out.end(), o.code.begin() + pos,
                       o.code.begin() + c.offset);
            wasm::encodeULEB(out, c.target);
            pos = c.offset;
        }
        out.insert(out.end(), o.code.begin() + pos, o.code.end());
        std::vector<uint8_t>().swap(o.code);
        std::vector<CallReloc>().swap(o.calls);
    }

  private:
    std::vector<FuncOut> &outs_;
    uint32_t numHooks_;
};

} // namespace

InstrumentedBinary
instrumentToBytes(std::shared_ptr<const Module> module, HookSet hooks,
                  const InstrumentOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    const auto t_begin = Clock::now();
    auto since_begin = [&t_begin]() {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t_begin)
                .count());
    };

    const Module &m = *module;
    const uint32_t num_funcs = m.numFunctions();
    HookMap hook_map;
    std::vector<FuncOut> outs(num_funcs);
    InstrumentStats stats;

    // An explicit count is kept as given, so `profile --threads=N`
    // lists N worker spans; 0 is one worker per CPU.
    const unsigned threads = opts.numThreads
                                 ? opts.numThreads
                                 : support::workerCount(0, num_funcs);
    stats.workers.resize(threads);
    // The caches are per worker: they keep the hot hook-id lookups off
    // the shared map's lock (paper §3: the monomorphization map is the
    // only synchronization point of the parallel instrumentation).
    std::vector<HookCache> caches(threads);
    support::parallelFor(num_funcs, threads, [&](size_t f, unsigned w) {
        if (m.functions[f].imported())
            return;
        InstrumentStats::Worker &wstats = stats.workers[w];
        if (wstats.functions == 0)
            wstats.startNanos = since_begin();
        outs[f] = FuncInstrumenter(m, static_cast<uint32_t>(f), hooks,
                                   opts, hook_map, caches[w])
                      .run();
        ++wstats.functions;
        wstats.nanos = since_begin() - wstats.startNanos;
    });
    for (const InstrumentStats::Worker &w : stats.workers)
        stats.functionsInstrumented += w.functions;
    stats.hookMap = hook_map.stats();

    auto info = std::make_shared<StaticInfo>();
    info->original = module;
    info->numOrigImports = m.numImportedFunctions();
    info->splitI64 = opts.splitI64;
    info->instrumentedHooks = hooks;

    const uint32_t base = info->numOrigImports;
    std::vector<HookSpec> specs = hook_map.specs();
    const uint32_t num_hooks = static_cast<uint32_t>(specs.size());

    // Resolve every call target for the shifted index space. Hook ids
    // were handed out in the order the workers asked for them;
    // renumber them in first-use order (function, then instruction
    // index), which is the order one worker assigns, so the output
    // does not depend on the thread count.
    constexpr uint32_t kUnnumbered = UINT32_MAX;
    std::vector<uint32_t> hook_id(num_hooks, kUnnumbered);
    uint32_t next_id = 0;
    for (FuncOut &o : outs) {
        for (CallReloc &c : o.calls) {
            if (c.target >= kHookBase) {
                uint32_t &id = hook_id[c.target - kHookBase];
                if (id == kUnnumbered)
                    id = next_id++;
                c.target = kHookBase + id;
            }
            c.target = remapFuncIdx(c.target, base, num_hooks);
        }
    }
    assert(next_id == num_hooks && "every hook id is called");
    info->hooks.resize(num_hooks);
    for (uint32_t h = 0; h < num_hooks; ++h)
        info->hooks[hook_id[h]] = std::move(specs[h]);

    // The output module without code: the input's sections, and its
    // functions without bodies (the stitch writes those).
    Module out;
    out.types = m.types;
    out.globals = m.globals;
    out.tables = m.tables;
    out.memories = m.memories;
    out.elements = m.elements;
    out.data = m.data;
    out.start = m.start;
    out.customs = m.customs;
    out.functions.reserve(num_funcs + num_hooks);
    for (const Function &f : m.functions) {
        Function &g = out.functions.emplace_back();
        g.typeIdx = f.typeIdx;
        g.import = f.import;
        g.locals = f.locals;
        g.exportNames = f.exportNames;
        g.debugName = f.debugName;
    }

    // Lift any "name" custom section into debugNames now: its function
    // indices refer to the pre-instrumentation index space and would be
    // stale after hook imports shift them; the section is rebuilt from
    // debugNames at the end. The structured parse additionally keeps
    // the local-name subsection so it can be remapped instead of lost.
    wasm::NameSectionData names = wasm::parseNameSection(out);
    wasm::applyNameSection(out);

    // Create the hook import functions and splice them in right after
    // the original imports, so hook id h gets function index base + h.
    std::vector<Function> hook_funcs;
    hook_funcs.reserve(num_hooks);
    for (const HookSpec &spec : info->hooks) {
        Function hf;
        hf.typeIdx = out.addType(lowLevelType(spec, opts.splitI64));
        hf.import = wasm::ImportRef{kHookImportModule, mangledName(spec)};
        hf.debugName = mangledName(spec);
        hook_funcs.push_back(std::move(hf));
    }
    out.functions.insert(out.functions.begin() + base, hook_funcs.begin(),
                         hook_funcs.end());

    // Declare the extra locals.
    for (uint32_t f = 0; f < num_funcs; ++f) {
        if (m.functions[f].imported())
            continue;
        std::vector<ValType> &locals = out.functions.at(f + num_hooks).locals;
        locals.insert(locals.end(), outs[f].extraLocals.begin(),
                      outs[f].extraLocals.end());
    }

    // Element segments and the start function name functions too.
    for (wasm::ElementSegment &seg : out.elements) {
        for (uint32_t &f : seg.funcIdxs)
            f = remapFuncIdx(f, base, num_hooks);
    }
    if (out.start)
        out.start = remapFuncIdx(*out.start, base, num_hooks);

    // Re-emit the name section against the new index space (hook
    // imports carry their mangled names as debug names). Local-name
    // subsections survive instrumentation: extra locals are appended
    // after the original ones, so per-function local indices stay
    // valid and only the function index shifts. Label names are
    // dropped — instrumented bodies are rewritten, so label positions
    // would be stale.
    std::vector<uint32_t> name_func_map(num_funcs);
    for (uint32_t f = 0; f < num_funcs; ++f)
        name_func_map[f] = remapFuncIdx(f, base, num_hooks);
    wasm::remapNameData(names, name_func_map);
    names.labelNames.clear();
    names.funcNames.clear();
    for (uint32_t i = 0; i < out.functions.size(); ++i) {
        if (!out.functions[i].debugName.empty())
            names.funcNames.push_back(
                {static_cast<uint32_t>(i), out.functions[i].debugName});
    }
    wasm::setNameSection(out, names);

    const uint64_t encode_begin = since_begin();
    StitchedBodies bodies(outs, num_hooks);
    std::vector<uint8_t> bytes = wasm::encodeModule(out, bodies);

    stats.hooksGenerated = num_hooks;
    stats.wallNanos = since_begin();
    stats.encodeNanos = stats.wallNanos - encode_begin;
    return InstrumentedBinary{std::move(bytes), std::move(info),
                              std::move(stats)};
}

InstrumentResult
instrument(const Module &m, HookSet hooks, const InstrumentOptions &opts)
{
    InstrumentedBinary b =
        instrumentToBytes(std::make_shared<const Module>(m), hooks, opts);
    static_cast<SideTables &>(*b.info) =
        sideTables(*b.info->original, opts.numThreads);
    Module out = wasm::decodeModule(b.bytes);
    wasm::applyNameSection(out);
    return InstrumentResult{std::move(out), std::move(b.info),
                            std::move(b.stats)};
}

} // namespace wasabi::core
