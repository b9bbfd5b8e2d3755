/**
 * @file
 * The fast engine's inner loop: a computed-goto (switch fallback)
 * dispatcher over pre-decoded FInstr code running on one contiguous
 * value stack with an explicit frame stack. Locals live in the value
 * stack (a call's arguments become the callee's first locals in
 * place), so calls allocate nothing.
 *
 * Hot state — instruction pointer, stack pointer, locals base, memory
 * base/size, globals base, fuel, stat counters — is held in locals
 * and synced back to the Instance/ExecStats at the points where it
 * can be observed: host calls, memory growth, and unwind.
 */

#include <algorithm>
#include <bit>
#include <cstring>

#include "interp/engine/code.h"
#include "interp/engine/engine.h"
#include "interp/numerics.h"

namespace wasabi::interp::engine {

using wasm::Opcode;
using wasm::Value;
using wasm::ValType;

// All narrow loads/stores assemble values bytewise little-endian via
// memcpy of the low bytes; that shortcut is only correct on LE hosts.
static_assert(std::endian::native == std::endian::little,
              "fast engine assumes a little-endian host");

namespace {

/** A suspended caller: where to resume, and its frame base. */
struct Frame {
    const CompiledFunction *fn;
    const FInstr *retIp;
    size_t baseOff; ///< offset into the value stack (it can move)
};

} // namespace

#if defined(__GNUC__) || defined(__clang__)
#define WASABI_VM_GOTO 1
#else
#define WASABI_VM_GOTO 0
#endif

#if WASABI_VM_GOTO
#define VM_CASE(name) lbl_##name
#define VM_NEXT()                                                       \
    do {                                                                \
        in = ip++;                                                      \
        goto *kJump[static_cast<size_t>(in->op)];                       \
    } while (0)
#else
#define VM_CASE(name) case FOp::name
#define VM_NEXT() goto vm_top
#endif

/**
 * Batched fuel + instruction accounting. Matches the legacy
 * per-dispatch scheme exactly: with f fuel remaining and a batch of c
 * instructions, the legacy walker executes f of them (each counted)
 * and traps dispatching the next — everything it executed was pure
 * and frame-local, so retiring the whole batch up front and reporting
 * `instructions += f` on exhaustion is observationally identical.
 */
#define VM_CHARGE(cexpr)                                                \
    do {                                                                \
        uint32_t c__ = (cexpr);                                         \
        if (c__ != 0) {                                                 \
            if (hasFuel) {                                              \
                if (fuel < c__) {                                       \
                    statInstr += fuel;                                  \
                    fuel = 0;                                           \
                    throw Trap(TrapKind::FuelExhausted);                \
                }                                                       \
                fuel -= c__;                                            \
            }                                                           \
            statInstr += c__;                                           \
        }                                                               \
    } while (0)

/** Low and high halves of a fused slot's packed `b` operand. */
#define VM_LO(b_) static_cast<uint32_t>(b_)
#define VM_HI(b_) static_cast<uint32_t>((b_) >> 32)

/** An i32 binary op and its fused forms (code.h), from one list line.
 * Every form computes the one expression over its own operands. */
#define VM_I32_FORMS(X_, name, expr)                                    \
    VM_CASE(name) : {                                                   \
        uint32_t r = (--sp)->i32();                                     \
        uint32_t l = (sp - 1)->i32();                                   \
        *(sp - 1) = Value::makeI32(expr);                               \
        VM_NEXT();                                                      \
    }                                                                   \
    VM_CASE(name##Imm) : {                                              \
        uint32_t r = in->a;                                             \
        uint32_t l = (sp - 1)->i32();                                   \
        *(sp - 1) = Value::makeI32(expr);                               \
        VM_NEXT();                                                      \
    }                                                                   \
    VM_CASE(name##Local) : {                                            \
        uint32_t r = lb[in->a].i32();                                   \
        uint32_t l = (sp - 1)->i32();                                   \
        *(sp - 1) = Value::makeI32(expr);                               \
        VM_NEXT();                                                      \
    }                                                                   \
    VM_CASE(name##LocalImm) : {                                         \
        uint32_t r = VM_LO(in->b);                                      \
        uint32_t l = lb[in->a].i32();                                   \
        *sp++ = Value::makeI32(expr);                                   \
        VM_NEXT();                                                      \
    }

/** Compare a local with an immediate and branch; the translator
 * fuses only branches that carry and unwind nothing. */
#define VM_I32_BRIF(X_, name, expr)                                     \
    VM_CASE(name##BrIf) : {                                             \
        VM_CHARGE(in->charge);                                          \
        uint32_t r = VM_LO(in->b);                                      \
        uint32_t l = lb[VM_HI(in->b)].i32();                            \
        if (expr)                                                       \
            ip = fn->code.data() + in->a;                               \
        VM_NEXT();                                                      \
    }

/** A full-width load at a u64 effective address, and its fused form
 * after an `i32.add C` (the add wraps in 32 bits before the static
 * offset is added, as in the unfused pair). */
#define VM_LOAD_AT(addr, T, vt)                                         \
    VM_CHARGE(in->charge);                                              \
    ++statMem;                                                          \
    uint64_t ea = static_cast<uint64_t>(addr) + in->a;                  \
    if (ea + sizeof(T) > msz)                                           \
        throw Trap(TrapKind::MemoryOutOfBounds);                        \
    T v;                                                                \
    std::memcpy(&v, mb + ea, sizeof(T));                                \
    *(sp - 1) = Value(ValType::vt, v);                                  \
    VM_NEXT();

#define VM_LOAD(X_, name, T, vt)                                        \
    VM_CASE(name) : { VM_LOAD_AT((sp - 1)->i32(), T, vt) }              \
    VM_CASE(name##AddImm) : {                                           \
        VM_LOAD_AT(static_cast<uint32_t>((sp - 1)->i32() + VM_LO(in->b)),\
                   T, vt)                                               \
    }

#define VM_BIN_F64(name, op_)                                           \
    VM_CASE(name) : {                                                   \
        double r = (--sp)->f64();                                       \
        double l = (sp - 1)->f64();                                     \
        *(sp - 1) = Value::makeF64(canonNaN(l op_ r));                  \
        VM_NEXT();                                                      \
    }

namespace {

std::vector<Value>
run(Instance &inst, uint32_t func_idx, std::span<const Value> args,
    ExecStats &stats, size_t max_call_depth)
{
    CompiledModule &cm = inst.engineCode();
    const wasm::Module &m = cm.module();
    const CompiledFunction &entry = cm.function(func_idx);

    // --- value + frame stacks --------------------------------------
    std::vector<Value> stack;
    size_t entry_locals = args.size() + entry.localInit.size();
    stack.resize(std::max<size_t>(
        std::max(entry_locals, static_cast<size_t>(entry.numLocals)) +
            entry.maxOperand,
        512));
    Value *stackData = stack.data();
    std::copy(args.begin(), args.end(), stackData);
    std::copy(entry.localInit.begin(), entry.localInit.end(),
              stackData + args.size());

    std::vector<Frame> frames;
    frames.reserve(64);

    // --- hot state, hoisted out of the Instance --------------------
    const CompiledFunction *fn = &entry;
    const FInstr *ip = entry.code.data();
    const FInstr *in = ip;
    size_t curBase = 0;
    Value *lb = stackData;              ///< locals base of current frame
    Value *sp = stackData + entry_locals; ///< one past top of stack
    std::optional<uint64_t> &fuelSlot = inst.fuel();
    bool hasFuel = fuelSlot.has_value();
    uint64_t fuel = hasFuel ? *fuelSlot : 0;
    uint64_t statInstr = 0, statCalls = 0, statMem = 0;
    uint8_t *mb = inst.memory().raw().data();
    size_t msz = inst.memory().raw().size();
    Value *gl = inst.globalsData();

    // Scratch shared by the common call/return blocks below.
    uint32_t retArity = 0;
    uint32_t calleeIdx = 0;
    uint32_t hostParams = 0;
    uint32_t hostRet = 0;
    std::vector<Value> hostResults;

    // Intrinsic instrumentation (DESIGN.md §12): the dispatch sink
    // and the small capture buffer HookStash fills for hooks whose
    // instruction consumes the values they observe (at most 3: the
    // select hook's first/second/cond, or a binary op's two operands
    // followed, at dispatch, by its result).
    IntrinsicSink *const sink = cm.intrinsicSink();
    Value hookStash[3];

    auto flushCounters = [&] {
        stats.instructions += statInstr;
        stats.calls += statCalls;
        stats.memoryOps += statMem;
        statInstr = statCalls = statMem = 0;
        if (hasFuel)
            fuelSlot = fuel;
    };
    auto reloadAfterHost = [&] {
        hasFuel = fuelSlot.has_value();
        fuel = hasFuel ? *fuelSlot : 0;
        mb = inst.memory().raw().data();
        msz = inst.memory().raw().size();
        gl = inst.globalsData();
    };

#if WASABI_VM_GOTO
    static const void *const kJump[] = {
#define WASABI_VM_LBL(name) &&lbl_##name,
        WASABI_ENGINE_FOPS(WASABI_VM_LBL)
        WASABI_ENGINE_FUSED_FOPS(WASABI_VM_LBL)
#undef WASABI_VM_LBL
    };
#endif

    try {
#if WASABI_VM_GOTO
        VM_NEXT();
#else
      vm_top:
        in = ip++;
        switch (in->op) {
#endif

        VM_CASE(Charge) : {
            VM_CHARGE(in->charge);
            VM_NEXT();
        }
        VM_CASE(Jump) : {
            VM_CHARGE(in->charge);
            ip = fn->code.data() + in->a;
            VM_NEXT();
        }
        VM_CASE(Br) : {
            VM_CHARGE(in->charge);
            uint32_t keep = in->aux;
            Value *dst = lb + in->b;
            for (uint32_t k = 0; k < keep; ++k)
                dst[k] = *(sp - keep + k);
            sp = dst + keep;
            ip = fn->code.data() + in->a;
            VM_NEXT();
        }
        VM_CASE(BrIf) : {
            VM_CHARGE(in->charge);
            if ((--sp)->i32() != 0) {
                uint32_t keep = in->aux;
                Value *dst = lb + in->b;
                for (uint32_t k = 0; k < keep; ++k)
                    dst[k] = *(sp - keep + k);
                sp = dst + keep;
                ip = fn->code.data() + in->a;
            }
            VM_NEXT();
        }
        VM_CASE(BrIfNot) : {
            VM_CHARGE(in->charge);
            if ((--sp)->i32() == 0)
                ip = fn->code.data() + in->a;
            VM_NEXT();
        }
        VM_CASE(BrTable) : {
            VM_CHARGE(in->charge);
            uint32_t idx = (--sp)->i32();
            uint32_t n = static_cast<uint32_t>(in->b);
            const BrTarget &t =
                fn->tablePool[in->a + (idx < n - 1 ? idx : n - 1)];
            Value *dst = lb + t.slot;
            for (uint32_t k = 0; k < t.keep; ++k)
                dst[k] = *(sp - t.keep + k);
            sp = dst + t.keep;
            ip = fn->code.data() + t.pc;
            VM_NEXT();
        }
        VM_CASE(Return) : {
            VM_CHARGE(in->charge);
            retArity = in->aux;
            goto do_return;
        }
        VM_CASE(End) : {
            VM_CHARGE(in->charge);
            if (static_cast<size_t>(sp - lb) != fn->numLocals + in->aux) {
                // Replaces the old debug-only assert: a structurally
                // broken body leaves the wrong number of results.
                throw Trap(TrapKind::InternalError,
                           "operand stack height at function exit does "
                           "not match the result arity");
            }
            retArity = in->aux;
            goto do_return;
        }
        VM_CASE(FrameExit) : {
            // Landing pad of branches to the function label; the
            // legacy walker exits without charging anything more.
            retArity = in->aux;
            goto do_return;
        }
        VM_CASE(Call) : {
            VM_CHARGE(in->charge);
            ++statCalls;
            calleeIdx = in->a;
            goto do_wasm_call;
        }
        VM_CASE(CallHost) : {
            VM_CHARGE(in->charge);
            ++statCalls;
            calleeIdx = in->a;
            hostParams = static_cast<uint32_t>(in->b);
            hostRet = in->aux;
            goto do_host_call;
        }
        VM_CASE(CallIndirect) : {
            VM_CHARGE(in->charge);
            ++statCalls;
            std::optional<uint32_t> callee =
                inst.table().get((--sp)->i32());
            if (!callee)
                throw Trap(TrapKind::UninitializedTableElement);
            if (cm.funcCanonicalType(*callee) != in->a)
                throw Trap(TrapKind::IndirectCallTypeMismatch);
            calleeIdx = *callee;
            if (m.functions[calleeIdx].imported()) {
                hostParams = static_cast<uint32_t>(in->b);
                hostRet = in->aux;
                goto do_host_call;
            }
            goto do_wasm_call;
        }
        VM_CASE(Unreachable) : {
            VM_CHARGE(in->charge);
            throw Trap(TrapKind::Unreachable);
        }
        VM_CASE(Hook) : {
            // Engine-intrinsic instrumentation dispatch (DESIGN.md
            // §12). Counters are flushed first so the analysis
            // observes exact retired counts — the same guarantee the
            // host-call boundary gives rewrite mode — and reloaded
            // after, since an analysis may legitimately inspect (or a
            // profiler grow) instance state.
            VM_CHARGE(in->charge);
            if (sink != nullptr) {
                const HookSite &site = fn->hookSites[in->a];
                flushCounters();
                // The dynamic arguments in operand-stack order: the
                // stashed operands the instruction consumed, then its
                // live result (at most one beside a stash).
                std::span<const Value> dyn(sp - site.peek, site.peek);
                if (site.stash != 0) {
                    if (site.peek != 0)
                        hookStash[site.stash] = *(sp - 1);
                    dyn = std::span<const Value>(hookStash,
                                                 site.stash + site.peek);
                }
                sink->onHook(inst, site, dyn);
                reloadAfterHost();
            }
            VM_NEXT();
        }
        VM_CASE(Count) : {
            // Counter probe (DESIGN.md §12): the counts reach the sink
            // when the outermost invocation leaves the VM.
            VM_CHARGE(in->charge);
            ++*reinterpret_cast<uint64_t *>(in->b);
            VM_NEXT();
        }
        VM_CASE(CountCond) : {
            VM_CHARGE(in->charge);
            const uint32_t v = (sp - 1)->i32();
            ++reinterpret_cast<uint64_t *>(in->b)[v < in->a ? v : in->a];
            VM_NEXT();
        }
        VM_CASE(HookStash) : {
            // Capture operands a hooked instruction is about to
            // consume; the following Hook slot passes them on.
            for (uint32_t k = 0; k < in->aux; ++k)
                hookStash[k] = *(sp - in->aux + k);
            VM_NEXT();
        }
        VM_CASE(Drop) : {
            --sp;
            VM_NEXT();
        }
        VM_CASE(Select) : {
            uint32_t cond = (--sp)->i32();
            Value second = *--sp;
            if (cond == 0)
                *(sp - 1) = second;
            VM_NEXT();
        }
        VM_CASE(LocalGet) : {
            *sp++ = lb[in->a];
            VM_NEXT();
        }
        VM_CASE(LocalSet) : {
            lb[in->a] = *--sp;
            VM_NEXT();
        }
        VM_CASE(LocalTee) : {
            lb[in->a] = *(sp - 1);
            VM_NEXT();
        }
        VM_CASE(GlobalGet) : {
            *sp++ = gl[in->a];
            VM_NEXT();
        }
        VM_CASE(GlobalSet) : {
            VM_CHARGE(in->charge);
            gl[in->a] = *--sp;
            VM_NEXT();
        }
        WASABI_ENGINE_LOADS(VM_LOAD, _)
        VM_CASE(LoadExt) : {
            VM_CHARGE(in->charge);
            ++statMem;
            uint64_t w = in->b;
            uint64_t ea =
                static_cast<uint64_t>((sp - 1)->i32()) + in->a;
            if (ea + w > msz)
                throw Trap(TrapKind::MemoryOutOfBounds);
            uint64_t raw = 0;
            std::memcpy(&raw, mb + ea, w);
            *(sp - 1) =
                loadedValue(static_cast<Opcode>(in->aux), raw);
            VM_NEXT();
        }
        VM_CASE(I32Store) : {
            VM_CHARGE(in->charge);
            ++statMem;
            Value v = *--sp;
            uint64_t ea =
                static_cast<uint64_t>((--sp)->i32()) + in->a;
            if (ea + 4 > msz)
                throw Trap(TrapKind::MemoryOutOfBounds);
            uint32_t bits = static_cast<uint32_t>(v.bits);
            std::memcpy(mb + ea, &bits, 4);
            VM_NEXT();
        }
        VM_CASE(I64Store) : {
            VM_CHARGE(in->charge);
            ++statMem;
            Value v = *--sp;
            uint64_t ea =
                static_cast<uint64_t>((--sp)->i32()) + in->a;
            if (ea + 8 > msz)
                throw Trap(TrapKind::MemoryOutOfBounds);
            std::memcpy(mb + ea, &v.bits, 8);
            VM_NEXT();
        }
        VM_CASE(F32Store) : {
            VM_CHARGE(in->charge);
            ++statMem;
            Value v = *--sp;
            uint64_t ea =
                static_cast<uint64_t>((--sp)->i32()) + in->a;
            if (ea + 4 > msz)
                throw Trap(TrapKind::MemoryOutOfBounds);
            uint32_t bits = static_cast<uint32_t>(v.bits);
            std::memcpy(mb + ea, &bits, 4);
            VM_NEXT();
        }
        VM_CASE(F64Store) : {
            VM_CHARGE(in->charge);
            ++statMem;
            Value v = *--sp;
            uint64_t ea =
                static_cast<uint64_t>((--sp)->i32()) + in->a;
            if (ea + 8 > msz)
                throw Trap(TrapKind::MemoryOutOfBounds);
            std::memcpy(mb + ea, &v.bits, 8);
            VM_NEXT();
        }
        VM_CASE(StoreNarrow) : {
            VM_CHARGE(in->charge);
            ++statMem;
            Value v = *--sp;
            uint64_t w = in->aux;
            uint64_t ea =
                static_cast<uint64_t>((--sp)->i32()) + in->a;
            if (ea + w > msz)
                throw Trap(TrapKind::MemoryOutOfBounds);
            std::memcpy(mb + ea, &v.bits, w);
            VM_NEXT();
        }
        VM_CASE(MemorySize) : {
            VM_CHARGE(in->charge);
            ++statMem;
            *sp++ = Value::makeI32(
                static_cast<uint32_t>(msz / wasm::kPageSize));
            VM_NEXT();
        }
        VM_CASE(MemoryGrow) : {
            VM_CHARGE(in->charge);
            ++statMem;
            uint32_t delta = (sp - 1)->i32();
            *(sp - 1) = Value::makeI32(inst.memory().grow(delta));
            mb = inst.memory().raw().data();
            msz = inst.memory().raw().size();
            VM_NEXT();
        }
        VM_CASE(Const) : {
            *sp++ = Value(static_cast<ValType>(in->aux), in->b);
            VM_NEXT();
        }
        VM_CASE(UnaryPure) : {
            *(sp - 1) =
                evalUnary(static_cast<Opcode>(in->aux), *(sp - 1));
            VM_NEXT();
        }
        VM_CASE(UnaryTrap) : {
            VM_CHARGE(in->charge);
            *(sp - 1) =
                evalUnary(static_cast<Opcode>(in->aux), *(sp - 1));
            VM_NEXT();
        }
        VM_CASE(BinaryPure) : {
            Value r = *--sp;
            *(sp - 1) =
                evalBinary(static_cast<Opcode>(in->aux), *(sp - 1), r);
            VM_NEXT();
        }
        VM_CASE(BinaryTrap) : {
            VM_CHARGE(in->charge);
            Value r = *--sp;
            *(sp - 1) =
                evalBinary(static_cast<Opcode>(in->aux), *(sp - 1), r);
            VM_NEXT();
        }

        // Specialized batched numerics; each expression mirrors the
        // corresponding evalUnary/evalBinary case bit for bit.
        WASABI_ENGINE_I32_ARITH(VM_I32_FORMS, _)
        WASABI_ENGINE_I32_CMP(VM_I32_FORMS, _)
        WASABI_ENGINE_I32_CMP(VM_I32_BRIF, _)
        VM_CASE(I32Eqz) : {
            *(sp - 1) = Value::makeI32((sp - 1)->i32() == 0 ? 1 : 0);
            VM_NEXT();
        }
        VM_CASE(I64Add) : {
            uint64_t r = (--sp)->i64();
            *(sp - 1) = Value::makeI64((sp - 1)->i64() + r);
            VM_NEXT();
        }
        VM_CASE(F32Add) : {
            float r = (--sp)->f32();
            *(sp - 1) = Value::makeF32(canonNaN((sp - 1)->f32() + r));
            VM_NEXT();
        }
        VM_CASE(F32Mul) : {
            float r = (--sp)->f32();
            *(sp - 1) = Value::makeF32(canonNaN((sp - 1)->f32() * r));
            VM_NEXT();
        }
        VM_BIN_F64(F64Add, +)
        VM_BIN_F64(F64Sub, -)
        VM_BIN_F64(F64Mul, *)
        VM_BIN_F64(F64Div, /)

        // The remaining superinstructions (code.h).
        VM_CASE(I32MulAddImm) : {
            *(sp - 1) = Value::makeI32((sp - 1)->i32() * in->a +
                                       VM_LO(in->b));
            VM_NEXT();
        }
        VM_CASE(I32MulAddLocalImm) : {
            *sp++ = Value::makeI32(lb[in->a].i32() * VM_LO(in->b) +
                                   VM_HI(in->b));
            VM_NEXT();
        }
        VM_CASE(I32AddLocalImmSet) : {
            lb[VM_HI(in->b)] =
                Value::makeI32(lb[in->a].i32() + VM_LO(in->b));
            VM_NEXT();
        }
        VM_CASE(I32IncBr) : {
            VM_CHARGE(in->charge);
            Value &v = lb[VM_HI(in->b)];
            v = Value::makeI32(v.i32() + VM_LO(in->b));
            ip = fn->code.data() + in->a;
            VM_NEXT();
        }

#if !WASABI_VM_GOTO
        } // switch
        throw std::logic_error("fast engine: invalid opcode");
#endif

      do_wasm_call : {
        if (frames.size() + 1 > max_call_depth)
            throw Trap(TrapKind::CallStackExhausted);
        const CompiledFunction &callee = cm.function(calleeIdx);
        size_t sp_off = static_cast<size_t>(sp - stackData);
        size_t new_base = sp_off - callee.numParams;
        size_t need = new_base + callee.frameSlots();
        if (need > stack.size()) {
            stack.resize(std::max(need, stack.size() * 2));
            stackData = stack.data();
            sp = stackData + sp_off;
        }
        frames.push_back(Frame{fn, ip, curBase});
        if (!callee.localInit.empty()) {
            std::memcpy(sp, callee.localInit.data(),
                        callee.localInit.size() * sizeof(Value));
            sp += callee.localInit.size();
        }
        fn = &callee;
        curBase = new_base;
        lb = stackData + new_base;
        ip = callee.code.data();
        VM_NEXT();
      }

      do_host_call : {
        if (frames.size() + 1 > max_call_depth)
            throw Trap(TrapKind::CallStackExhausted);
        flushCounters(); // the host can observe stats and fuel
        hostResults.clear();
        inst.hostFunc(calleeIdx)(
            inst, std::span<const Value>(sp - hostParams, hostParams),
            hostResults);
        reloadAfterHost();
        if (hostResults.size() != hostRet) {
            // Hardening: a buggy host silently corrupted the legacy
            // walker's stack; both engines now trap instead.
            throw Trap(TrapKind::InternalError,
                       "host function returned " +
                           std::to_string(hostResults.size()) +
                           " results, expected " +
                           std::to_string(hostRet));
        }
        sp -= hostParams;
        for (const Value &v : hostResults)
            *sp++ = v;
        VM_NEXT();
      }

      do_return : {
        Value *dst = stackData + curBase;
        std::memmove(dst, sp - retArity, retArity * sizeof(Value));
        sp = dst + retArity;
        if (frames.empty())
            goto vm_done;
        Frame f = frames.back();
        frames.pop_back();
        fn = f.fn;
        ip = f.retIp;
        curBase = f.baseOff;
        lb = stackData + curBase;
        VM_NEXT();
      }

      vm_done:
        flushCounters();
        return std::vector<Value>(stackData, stackData + retArity);
    } catch (...) {
        flushCounters();
        throw;
    }
}

} // namespace

std::vector<Value>
execute(Instance &inst, uint32_t func_idx, std::span<const Value> args,
        ExecStats &stats, size_t max_call_depth)
{
    CompiledModule &cm = inst.engineCode();
    cm.enterVm();
    std::vector<Value> results;
    try {
        results = run(inst, func_idx, args, stats, max_call_depth);
    } catch (...) {
        cm.leaveVm();
        throw;
    }
    cm.leaveVm();
    return results;
}

void
CompiledModule::foldCounts()
{
    for (uint32_t f : counting_) {
        CompiledFunction &fn = funcs_[f];
        for (const CompiledFunction::CountedSite &c : fn.countedSites) {
            std::span<uint64_t> n(fn.counters.data() + c.first,
                                  c.outcomes);
            if (std::all_of(n.begin(), n.end(),
                            [](uint64_t k) { return k == 0; }))
                continue;
            if (intrinsicSink_ != nullptr)
                intrinsicSink_->onCounts(fn.hookSites[c.site], n);
            std::fill(n.begin(), n.end(), 0);
        }
    }
}

#undef VM_BIN_F64
#undef VM_LOAD
#undef VM_LOAD_AT
#undef VM_I32_BRIF
#undef VM_I32_FORMS
#undef VM_HI
#undef VM_LO
#undef VM_CHARGE
#undef VM_NEXT
#undef VM_CASE

} // namespace wasabi::interp::engine
