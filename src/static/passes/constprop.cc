#include "static/passes/constprop.h"

#include <optional>
#include <vector>

#include "core/static_info.h"
#include "static/dataflow.h"
#include "static/passes/problems.h"

namespace wasabi::static_analysis::passes {

using wasm::Instr;
using wasm::Module;
using wasm::OpClass;
using wasm::Opcode;
using wasm::ValType;

namespace {

/** Fold an i32-producing unary op over a known input. */
AbsConst
foldUnary(Opcode op, uint32_t a)
{
    switch (op) {
      case Opcode::I32Eqz:
        return a == 0 ? 1u : 0u;
      case Opcode::I32Clz: {
        uint32_t n = 0;
        for (uint32_t bit = 31;; --bit) {
            if (a & (1u << bit))
                break;
            ++n;
            if (bit == 0)
                break;
        }
        return n;
      }
      case Opcode::I32Ctz: {
        uint32_t n = 0;
        for (uint32_t bit = 0; bit < 32 && !(a & (1u << bit)); ++bit)
            ++n;
        return n;
      }
      case Opcode::I32Popcnt: {
        uint32_t n = 0;
        for (uint32_t bit = 0; bit < 32; ++bit)
            n += (a >> bit) & 1;
        return n;
      }
      default:
        return std::nullopt;
    }
}

/** Fold an i32-producing binary op over known inputs. Trapping inputs
 * (division by zero, INT_MIN / -1) stay unknown — the instruction
 * never completes, so no constant reaches the branch anyway. */
AbsConst
foldBinary(Opcode op, uint32_t a, uint32_t b)
{
    const int32_t sa = static_cast<int32_t>(a);
    const int32_t sb = static_cast<int32_t>(b);
    const int64_t wa = sa, wb = sb;
    switch (op) {
      case Opcode::I32Add:
        return a + b;
      case Opcode::I32Sub:
        return a - b;
      case Opcode::I32Mul:
        return a * b;
      case Opcode::I32DivS:
        if (b == 0 || (a == 0x80000000u && b == 0xFFFFFFFFu))
            return std::nullopt;
        return static_cast<uint32_t>(wa / wb);
      case Opcode::I32DivU:
        return b == 0 ? AbsConst{} : AbsConst{a / b};
      case Opcode::I32RemS:
        if (b == 0)
            return std::nullopt;
        if (a == 0x80000000u && b == 0xFFFFFFFFu)
            return 0u;
        return static_cast<uint32_t>(wa % wb);
      case Opcode::I32RemU:
        return b == 0 ? AbsConst{} : AbsConst{a % b};
      case Opcode::I32And:
        return a & b;
      case Opcode::I32Or:
        return a | b;
      case Opcode::I32Xor:
        return a ^ b;
      case Opcode::I32Shl:
        return a << (b & 31);
      case Opcode::I32ShrS:
        return static_cast<uint32_t>(sa >> (b & 31));
      case Opcode::I32ShrU:
        return a >> (b & 31);
      case Opcode::I32Rotl:
        return (b & 31) == 0 ? a
                             : (a << (b & 31)) | (a >> (32 - (b & 31)));
      case Opcode::I32Rotr:
        return (b & 31) == 0 ? a
                             : (a >> (b & 31)) | (a << (32 - (b & 31)));
      case Opcode::I32Eq:
        return a == b ? 1u : 0u;
      case Opcode::I32Ne:
        return a != b ? 1u : 0u;
      case Opcode::I32LtS:
        return sa < sb ? 1u : 0u;
      case Opcode::I32LtU:
        return a < b ? 1u : 0u;
      case Opcode::I32GtS:
        return sa > sb ? 1u : 0u;
      case Opcode::I32GtU:
        return a > b ? 1u : 0u;
      case Opcode::I32LeS:
        return sa <= sb ? 1u : 0u;
      case Opcode::I32LeU:
        return a <= b ? 1u : 0u;
      case Opcode::I32GeS:
        return sa >= sb ? 1u : 0u;
      case Opcode::I32GeU:
        return a >= b ? 1u : 0u;
      default:
        return std::nullopt;
    }
}

} // namespace

ConstPropProblem::ConstPropProblem(const Module &m, uint32_t func_idx)
    : m_(m), body_(m.functions.at(func_idx).body),
      control_(body_.size())
{
    const std::vector<ValType> &params = m.funcType(func_idx).params;
    localTypes_ = params;
    const std::vector<ValType> &locals = m.functions.at(func_idx).locals;
    localTypes_.insert(localTypes_.end(), locals.begin(), locals.end());
    numParams_ = static_cast<uint32_t>(params.size());
}

LocalsValue
ConstPropProblem::boundary() const
{
    LocalsValue v;
    v.reached = true;
    v.locals.resize(localTypes_.size());
    // Parameters are unknown; declared locals are zero-initialized by
    // the Wasm semantics (tracked for i32 only).
    for (size_t k = numParams_; k < localTypes_.size(); ++k) {
        if (localTypes_[k] == ValType::I32)
            v.locals[k] = 0;
    }
    return v;
}

bool
ConstPropProblem::merge(LocalsValue &into, const LocalsValue &from) const
{
    if (!from.reached)
        return false;
    if (!into.reached) {
        into = from;
        return true;
    }
    bool changed = false;
    for (size_t k = 0; k < into.locals.size(); ++k) {
        if (into.locals[k] &&
            (!from.locals[k] || *from.locals[k] != *into.locals[k])) {
            into.locals[k] = std::nullopt;
            changed = true;
        }
    }
    return changed;
}

void
ConstPropProblem::transfer(const Cfg &cfg, uint32_t b,
                           const LocalsValue &in, LocalsValue &out)
{
    out.reached = in.reached;
    if (!in.reached)
        return;
    out.locals = in.locals;
    simulate(cfg.blocks()[b], out.locals);
}

void
ConstPropProblem::simulate(const BasicBlock &blk,
                           std::vector<AbsConst> &locals)
{
    if (blk.empty())
        return;
    std::vector<AbsConst> &stack = stack_;
    stack.clear();
    auto pop = [&stack]() -> AbsConst {
        if (stack.empty())
            return std::nullopt;
        AbsConst v = stack.back();
        stack.pop_back();
        return v;
    };
    auto popN = [&pop](size_t n) {
        for (size_t k = 0; k < n; ++k)
            pop();
    };
    auto pushUnknown = [&stack](size_t n) {
        stack.insert(stack.end(), n, std::nullopt);
    };

    for (uint32_t i = blk.first; i <= blk.last; ++i) {
        const Instr &in = body_[i];
        const wasm::OpInfo &info = wasm::opInfo(in.op);
        switch (info.cls) {
          case OpClass::Const:
            if (in.op == Opcode::I32Const)
                stack.push_back(in.imm.i32v);
            else
                pushUnknown(1);
            break;
          case OpClass::LocalGet:
            stack.push_back(localTypes_[in.imm.idx] == ValType::I32
                                ? locals[in.imm.idx]
                                : std::nullopt);
            break;
          case OpClass::LocalSet: {
            AbsConst v = pop();
            locals[in.imm.idx] =
                localTypes_[in.imm.idx] == ValType::I32
                    ? v
                    : AbsConst{};
            break;
          }
          case OpClass::LocalTee:
            if (localTypes_[in.imm.idx] == ValType::I32 &&
                !stack.empty())
                locals[in.imm.idx] = stack.back();
            else
                locals[in.imm.idx] = std::nullopt;
            break;
          case OpClass::GlobalGet:
            stack.push_back(
                immutableI32GlobalInit(m_, in.imm.idx));
            break;
          case OpClass::GlobalSet:
            pop();
            break;
          case OpClass::Unary: {
            AbsConst v = pop();
            stack.push_back(v ? foldUnary(in.op, *v)
                              : std::nullopt);
            break;
          }
          case OpClass::Binary: {
            AbsConst b2 = pop();
            AbsConst a = pop();
            stack.push_back(a && b2 ? foldBinary(in.op, *a, *b2)
                                    : std::nullopt);
            break;
          }
          case OpClass::Drop:
            pop();
            break;
          case OpClass::Select: {
            AbsConst c = pop();
            AbsConst onFalse = pop();
            AbsConst onTrue = pop();
            stack.push_back(c ? (*c ? onTrue : onFalse)
                              : std::nullopt);
            break;
          }
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
          case OpClass::Call: {
            const wasm::FuncType &t = m_.funcType(in.imm.idx);
            popN(t.params.size());
            pushUnknown(t.results.size());
            break;
          }
          case OpClass::CallIndirect: {
            const wasm::FuncType &t = m_.types.at(in.imm.idx);
            control_[i] = pop(); // table index
            popN(t.params.size());
            pushUnknown(t.results.size());
            break;
          }
          case OpClass::Nop:
            break;
          case OpClass::If:
          case OpClass::BrTable:
            control_[i] = pop();
            stack.clear();
            break;
          case OpClass::BrIf:
            control_[i] = pop();
            break;
          default:
            // block/loop/else/end/br/return/unreachable: operand
            // values do not flow across structural boundaries in
            // this abstraction.
            stack.clear();
            break;
        }
    }
}

ConstFacts
constFactsOf(const Module &m, const Cfg &cfg,
             const std::vector<AbsConst> &controls,
             const std::vector<LocalsValue> &in)
{
    ConstFacts facts;
    const std::vector<Instr> &body = m.functions.at(cfg.funcIdx()).body;
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!in[b].reached)
            continue; // unreachable: no facts (reported elsewhere)
        const BasicBlock &blk = cfg.blocks()[b];
        for (uint32_t i = blk.first; i <= blk.last; ++i) {
            if (!controls[i])
                continue;
            const uint64_t key = core::packLoc({cfg.funcIdx(), i});
            switch (wasm::opInfo(body[i].op).cls) {
              case OpClass::BrIf:
                facts.brIfCond[key] = *controls[i];
                break;
              case OpClass::If:
                facts.ifCond[key] = *controls[i];
                break;
              case OpClass::BrTable:
                facts.brTableIndex[key] = *controls[i];
                break;
              default: // call_indirect
                facts.callIndirectIndex[key] = *controls[i];
                break;
            }
        }
    }
    return facts;
}

ConstFacts
constantFacts(const Module &m, uint32_t func_idx)
{
    const wasm::Function &func = m.functions.at(func_idx);
    if (func.imported() || func.body.empty())
        return {};

    Cfg cfg(m, func_idx);
    ConstPropProblem problem(m, func_idx);
    std::vector<LocalsValue> in = solveForward(cfg, problem);
    // The solver's last transfer of a block runs on its fixpoint
    // in-value (a changed in-value makes the block dirty again), so
    // the controls recorded by that simulation are the block's facts.
    return constFactsOf(m, cfg, problem.controls(), in);
}

std::optional<uint32_t>
foldI32Unary(Opcode op, uint32_t a)
{
    return foldUnary(op, a);
}

std::optional<uint32_t>
foldI32Binary(Opcode op, uint32_t a, uint32_t b)
{
    return foldBinary(op, a, b);
}

std::optional<uint32_t>
immutableI32GlobalInit(const Module &m, uint32_t global_idx)
{
    if (global_idx >= m.globals.size())
        return std::nullopt;
    const wasm::Global &g = m.globals[global_idx];
    if (g.mut || g.imported() || g.type != ValType::I32)
        return std::nullopt;
    // Initializer is `i32.const v; end` (a global.get initializer
    // would reference an import, whose value is unknown here).
    if (g.init.size() != 2 || g.init[0].op != Opcode::I32Const ||
        g.init[1].op != Opcode::End)
        return std::nullopt;
    return g.init[0].imm.i32v;
}

} // namespace wasabi::static_analysis::passes
