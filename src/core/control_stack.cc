#include "core/control_stack.h"

#include <cassert>

namespace wasabi::core {

using wasm::Instr;
using wasm::Opcode;
using wasm::OpClass;
using wasm::ValType;

std::vector<BlockMatch>
matchBlocks(const std::vector<Instr> &body)
{
    std::vector<BlockMatch> matches(body.size());
    std::vector<uint32_t> opens;
    for (uint32_t i = 0; i < body.size(); ++i) {
        Opcode op = body[i].op;
        if (wasm::isBlockStart(op)) {
            opens.push_back(i);
        } else if (op == Opcode::Else) {
            assert(!opens.empty());
            matches[opens.back()].elseIdx = i;
        } else if (op == Opcode::End) {
            if (!opens.empty()) {
                matches[opens.back()].endIdx = i;
                opens.pop_back();
            }
        }
    }
    assert(opens.empty());
    return matches;
}

AbstractState::AbstractState(const wasm::Module &m, uint32_t func_idx)
    : m_(m), func_(m.functions.at(func_idx)),
      matches_(matchBlocks(func_.body))
{
    const wasm::FuncType &type = m.funcType(func_idx);
    locals_ = type.params;
    locals_.insert(locals_.end(), func_.locals.begin(), func_.locals.end());

    ControlFrame fn;
    fn.kind = BlockKind::Function;
    fn.beginIdx = kFunctionEntry;
    fn.endIdx = static_cast<uint32_t>(func_.body.size()) - 1;
    fn.result = type.results.empty()
                    ? std::nullopt
                    : std::optional<ValType>(type.results[0]);
    fn.height = 0;
    frames_.push_back(fn);
}

std::optional<ValType>
AbstractState::top(size_t k) const
{
    const ControlFrame &frame = frames_.back();
    if (stack_.size() < frame.height + k + 1) {
        assert(frame.unreachable);
        return std::nullopt;
    }
    return stack_[stack_.size() - 1 - k];
}

const ControlFrame &
AbstractState::frameForLabel(uint32_t n) const
{
    assert(n < frames_.size());
    return frames_[frames_.size() - 1 - n];
}

uint32_t
AbstractState::resolveLabel(uint32_t n) const
{
    return frameForLabel(n).branchTargetIdx();
}

std::vector<ControlFrame>
AbstractState::traversedFrames(uint32_t n) const
{
    std::vector<ControlFrame> out;
    for (uint32_t i = 0; i <= n; ++i)
        out.push_back(frames_[frames_.size() - 1 - i]);
    return out;
}

std::vector<ControlFrame>
AbstractState::allFramesInnermostFirst() const
{
    return traversedFrames(static_cast<uint32_t>(frames_.size()) - 1);
}

std::optional<ValType>
AbstractState::pop()
{
    ControlFrame &frame = frames_.back();
    if (stack_.size() == frame.height) {
        assert(frame.unreachable);
        return std::nullopt;
    }
    std::optional<ValType> t = stack_.back();
    stack_.pop_back();
    return t;
}

void
AbstractState::pushResults(const wasm::FuncType &type)
{
    for (ValType t : type.results)
        push(t);
}

void
AbstractState::popParams(const wasm::FuncType &type)
{
    for (size_t i = 0; i < type.params.size(); ++i)
        pop();
}

void
AbstractState::setUnreachable()
{
    ControlFrame &frame = frames_.back();
    stack_.resize(frame.height);
    frame.unreachable = true;
}

void
AbstractState::apply(const Instr &instr, uint32_t instr_idx)
{
    const wasm::OpInfo &info = wasm::opInfo(instr.op);
    switch (info.cls) {
      case OpClass::Nop:
        break;
      case OpClass::Unreachable:
        setUnreachable();
        break;
      case OpClass::Block:
      case OpClass::Loop:
      case OpClass::If: {
        if (info.cls == OpClass::If)
            pop(); // condition
        ControlFrame f;
        f.kind = info.cls == OpClass::Block  ? BlockKind::Block
                 : info.cls == OpClass::Loop ? BlockKind::Loop
                                             : BlockKind::If;
        f.beginIdx = instr_idx;
        f.endIdx = matches_[instr_idx].endIdx;
        f.elseIdx = matches_[instr_idx].elseIdx;
        f.result = instr.block();
        f.height = stack_.size();
        f.deadEntry = frames_.back().unreachable;
        f.unreachable = f.deadEntry;
        frames_.push_back(f);
        break;
      }
      case OpClass::Else: {
        ControlFrame &f = frames_.back();
        assert(f.kind == BlockKind::If);
        f.kind = BlockKind::Else;
        stack_.resize(f.height);
        // The else-region is reachable iff the if was entered live.
        f.unreachable = f.deadEntry;
        break;
      }
      case OpClass::End: {
        ControlFrame f = frames_.back();
        frames_.pop_back();
        if (!frames_.empty()) {
            stack_.resize(f.height);
            if (f.result)
                push(*f.result);
        }
        break;
      }
      case OpClass::Br:
        setUnreachable();
        break;
      case OpClass::BrIf:
        pop(); // condition; label types unchanged on fallthrough
        break;
      case OpClass::BrTable:
        pop();
        setUnreachable();
        break;
      case OpClass::Return:
        setUnreachable();
        break;
      case OpClass::Call: {
        const wasm::FuncType &t = m_.funcType(instr.imm.idx);
        popParams(t);
        pushResults(t);
        break;
      }
      case OpClass::CallIndirect: {
        pop(); // table index
        const wasm::FuncType &t = m_.types.at(instr.imm.idx);
        popParams(t);
        pushResults(t);
        break;
      }
      case OpClass::Drop:
        pop();
        break;
      case OpClass::Select: {
        pop(); // condition
        std::optional<ValType> t1 = pop();
        std::optional<ValType> t2 = pop();
        push(t1 ? t1 : t2);
        break;
      }
      case OpClass::LocalGet:
        push(locals_.at(instr.imm.idx));
        break;
      case OpClass::LocalSet:
        pop();
        break;
      case OpClass::LocalTee:
        break; // value stays
      case OpClass::GlobalGet:
        push(m_.globals.at(instr.imm.idx).type);
        break;
      case OpClass::GlobalSet:
        pop();
        break;
      case OpClass::Load:
        pop();
        push(info.out);
        break;
      case OpClass::Store:
        pop();
        pop();
        break;
      case OpClass::MemorySize:
        push(ValType::I32);
        break;
      case OpClass::MemoryGrow:
        pop();
        push(ValType::I32);
        break;
      case OpClass::Const:
        push(info.out);
        break;
      case OpClass::Unary:
        pop();
        push(info.out);
        break;
      case OpClass::Binary:
        pop();
        pop();
        push(info.out);
        break;
    }
}

} // namespace wasabi::core
