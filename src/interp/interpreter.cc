#include "interp/interpreter.h"

#include "interp/engine/code.h"
#include "interp/engine/engine.h"
#include "interp/numerics.h"

namespace wasabi::interp {

using wasm::Instr;
using wasm::Opcode;
using wasm::OpClass;
using wasm::OpInfo;
using wasm::Value;
using wasm::ValType;

namespace {

/** One entry of the label stack during execution. */
struct Label {
    uint32_t brArity;   ///< values a branch to this label carries
    size_t height;      ///< operand stack height at label entry
    size_t cont;        ///< pc to continue at when branched to
    bool isLoop;
};

/** Access width in bytes of a load/store opcode. */
size_t
accessWidth(Opcode op)
{
    return wasm::memAccessBytes(op);
}

} // namespace

std::vector<Value>
Interpreter::invoke(Instance &inst, uint32_t func_idx,
                    std::span<const Value> args)
{
    // An argument list that does not match the signature would make
    // the engines read below the value stack (garbage locals, frame
    // teardown under-popping into heap corruption) — reject it before
    // either engine touches the stack.
    const wasm::FuncType &type = inst.module().funcType(func_idx);
    if (args.size() != type.params.size())
        throw std::invalid_argument(
            "function expects " + std::to_string(type.params.size()) +
            " argument(s), got " + std::to_string(args.size()));
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i].type != type.params[i])
            throw std::invalid_argument(
                "argument " + std::to_string(i) + " has type " +
                wasm::name(args[i].type) + ", function expects " +
                wasm::name(type.params[i]));
    }
    try {
        // Host entry points take the shared legacy path in both
        // engines (it only forwards to the host function).
        if (engine == EngineKind::Fast &&
            !inst.module().functions.at(func_idx).imported()) {
            return engine::execute(inst, func_idx, args, stats_,
                                   maxCallDepth);
        }
        // Engine-intrinsic hooks live in the fast engine's translated
        // code; silently running uninstrumented on the legacy walker
        // would drop the whole hook stream.
        if (engine == EngineKind::Legacy && inst.engineCode_ &&
            inst.engineCode_->intrinsicSink() != nullptr) {
            throw std::invalid_argument(
                "engine-intrinsic instrumentation requires the fast "
                "engine (--engine=fast); the legacy interpreter cannot "
                "dispatch intrinsic hooks");
        }
        return callFunction(inst, func_idx, args, 0);
    } catch (const Trap &) {
        ++stats_.traps;
        throw;
    }
}

std::vector<Value>
Interpreter::invokeExport(Instance &inst, const std::string &name,
                          std::span<const Value> args)
{
    std::optional<uint32_t> idx = inst.module().findFuncExport(name);
    if (!idx)
        throw std::invalid_argument("no exported function named " + name);
    return invoke(inst, *idx, args);
}

std::vector<Value>
Interpreter::callFunction(Instance &inst, uint32_t func_idx,
                          std::span<const Value> args, size_t depth)
{
    if (depth > maxCallDepth)
        throw Trap(TrapKind::CallStackExhausted);

    const wasm::Module &m = inst.module();
    const wasm::Function &func = m.functions.at(func_idx);
    const wasm::FuncType &type = m.funcType(func_idx);

    if (func.imported()) {
        std::vector<Value> results;
        inst.hostFunc(func_idx)(inst, args, results);
        if (results.size() != type.results.size()) {
            // A misbehaving host would silently corrupt the caller's
            // operand stack; trap instead (both engines check this).
            throw Trap(TrapKind::InternalError,
                       "host function returned " +
                           std::to_string(results.size()) +
                           " results, expected " +
                           std::to_string(type.results.size()));
        }
        return results;
    }

    // Set up locals: parameters followed by zero-initialized locals.
    std::vector<Value> locals(args.begin(), args.end());
    for (ValType t : func.locals)
        locals.push_back(Value::zero(t));

    const std::vector<Instr> &body = func.body;
    const ControlSideTable &sides = inst.sideTable(func_idx);
    const uint32_t result_arity =
        static_cast<uint32_t>(type.results.size());

    std::vector<Value> stack;
    std::vector<Label> labels;
    labels.push_back({result_arity, 0, body.size(), false});

    auto pop = [&stack]() {
        Value v = stack.back();
        stack.pop_back();
        return v;
    };

    size_t pc = 0;

    // Branch to relative label n: carries brArity values, unwinds the
    // operand stack, and adjusts pc and the label stack.
    auto branchTo = [&](uint32_t n) {
        size_t target = labels.size() - 1 - n;
        const Label &l = labels[target];
        size_t keep = l.brArity;
        // Move the carried values down to the label's base height.
        for (size_t i = 0; i < keep; ++i)
            stack[l.height + i] = stack[stack.size() - keep + i];
        stack.resize(l.height + keep);
        pc = l.cont;
        labels.resize(l.isLoop ? target + 1 : target);
    };

    while (pc < body.size()) {
        if (inst.fuel()) {
            if (*inst.fuel() == 0)
                throw Trap(TrapKind::FuelExhausted);
            --*inst.fuel();
        }
        ++stats_.instructions;

        const Instr &instr = body[pc];
        const OpInfo &info = wasm::opInfo(instr.op);
        switch (info.cls) {
          case OpClass::Nop:
            break;
          case OpClass::Unreachable:
            throw Trap(TrapKind::Unreachable);
          case OpClass::Block:
            labels.push_back({instr.block() ? 1u : 0u, stack.size(),
                              sides.byInstr[pc].endIdx + 1, false});
            break;
          case OpClass::Loop:
            labels.push_back({0, stack.size(), pc + 1, true});
            break;
          case OpClass::If: {
            uint32_t cond = pop().i32();
            const ControlSideTable::Entry &e = sides.byInstr[pc];
            labels.push_back({instr.block() ? 1u : 0u, stack.size(),
                              e.endIdx + 1, false});
            if (!cond) {
                if (e.elseIdx) {
                    // Enter the else branch (skip the else opcode).
                    pc = *e.elseIdx + 1;
                } else {
                    // Dispatch the end, which pops the label.
                    pc = e.endIdx;
                }
                continue;
            }
            break;
          }
          case OpClass::Else: {
            // Reached by falling out of the then-branch: skip to the
            // matching end (= innermost label's cont - 1), which pops
            // the if label.
            pc = labels.back().cont - 1;
            continue; // re-dispatch at `end`
          }
          case OpClass::End: {
            labels.pop_back();
            if (labels.empty()) {
                // Function end: results are on the stack. A mismatch
                // means a structurally broken body; the old debug-only
                // assert let Release builds return garbage.
                if (stack.size() != result_arity)
                    throw Trap(TrapKind::InternalError,
                               "operand stack height at function exit "
                               "does not match the result arity");
                return stack;
            }
            break;
          }
          case OpClass::Br:
            branchTo(instr.imm.idx);
            continue;
          case OpClass::BrIf: {
            uint32_t cond = pop().i32();
            if (cond) {
                branchTo(instr.imm.idx);
                continue;
            }
            break;
          }
          case OpClass::BrTable: {
            uint32_t idx = pop().i32();
            std::span<const uint32_t> targets = func.labels(instr);
            uint32_t n = idx < targets.size() - 1 ? targets[idx]
                                                  : targets.back();
            branchTo(n);
            continue;
          }
          case OpClass::Return: {
            std::vector<Value> results(result_arity);
            for (size_t i = result_arity; i-- > 0;)
                results[i] = pop();
            return results;
          }
          case OpClass::Call: {
            ++stats_.calls;
            uint32_t callee = instr.imm.idx;
            const wasm::FuncType &ct = m.funcType(callee);
            std::vector<Value> call_args(ct.params.size());
            for (size_t i = ct.params.size(); i-- > 0;)
                call_args[i] = pop();
            std::vector<Value> results =
                callFunction(inst, callee, call_args, depth + 1);
            for (const Value &v : results)
                stack.push_back(v);
            break;
          }
          case OpClass::CallIndirect: {
            ++stats_.calls;
            uint32_t table_idx = pop().i32();
            std::optional<uint32_t> callee = inst.table().get(table_idx);
            if (!callee)
                throw Trap(TrapKind::UninitializedTableElement);
            const wasm::FuncType &expect = m.types.at(instr.imm.idx);
            if (m.funcType(*callee) != expect)
                throw Trap(TrapKind::IndirectCallTypeMismatch);
            std::vector<Value> call_args(expect.params.size());
            for (size_t i = expect.params.size(); i-- > 0;)
                call_args[i] = pop();
            std::vector<Value> results =
                callFunction(inst, *callee, call_args, depth + 1);
            for (const Value &v : results)
                stack.push_back(v);
            break;
          }
          case OpClass::Drop:
            stack.pop_back();
            break;
          case OpClass::Select: {
            uint32_t cond = pop().i32();
            Value second = pop();
            Value first = pop();
            stack.push_back(cond ? first : second);
            break;
          }
          case OpClass::LocalGet:
            stack.push_back(locals[instr.imm.idx]);
            break;
          case OpClass::LocalSet:
            locals[instr.imm.idx] = pop();
            break;
          case OpClass::LocalTee:
            locals[instr.imm.idx] = stack.back();
            break;
          case OpClass::GlobalGet:
            stack.push_back(inst.globalGet(instr.imm.idx));
            break;
          case OpClass::GlobalSet:
            inst.globalSet(instr.imm.idx, pop());
            break;
          case OpClass::Load: {
            ++stats_.memoryOps;
            uint32_t addr = pop().i32();
            size_t width = accessWidth(instr.op);
            uint64_t raw =
                inst.memory().readLE(addr, instr.imm.mem.offset, width);
            stack.push_back(loadedValue(instr.op, raw));
            break;
          }
          case OpClass::Store: {
            ++stats_.memoryOps;
            Value v = pop();
            uint32_t addr = pop().i32();
            size_t width = accessWidth(instr.op);
            inst.memory().writeLE(addr, instr.imm.mem.offset, width,
                                  v.bits);
            break;
          }
          case OpClass::MemorySize:
            ++stats_.memoryOps;
            stack.push_back(Value::makeI32(inst.memory().sizePages()));
            break;
          case OpClass::MemoryGrow: {
            ++stats_.memoryOps;
            uint32_t delta = pop().i32();
            stack.push_back(Value::makeI32(inst.memory().grow(delta)));
            break;
          }
          case OpClass::Const:
            stack.push_back(instr.constValue());
            break;
          case OpClass::Unary: {
            Value in = pop();
            stack.push_back(evalUnary(instr.op, in));
            break;
          }
          case OpClass::Binary: {
            Value r = pop();
            Value l = pop();
            stack.push_back(evalBinary(instr.op, l, r));
            break;
          }
        }
        ++pc;
    }
    // Only reachable for builder-made bodies without a final `end`.
    if (stack.size() != result_arity)
        throw Trap(TrapKind::InternalError,
                   "operand stack height at function exit does not "
                   "match the result arity");
    return stack;
}

} // namespace wasabi::interp
