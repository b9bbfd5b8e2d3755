#include "wasm/validator.h"

#include <optional>
#include <vector>

#include "support/parallel.h"

namespace wasabi::wasm {

namespace {

/**
 * An operand-stack entry during validation: a concrete type, or
 * "unknown" (nullopt) for values produced in unreachable code.
 */
using StackType = std::optional<ValType>;

/** One control frame of the standard validation algorithm. */
struct CtrlFrame {
    Opcode opcode;                   ///< block/loop/if/else/function
    std::vector<ValType> startTypes; ///< label types of a loop
    std::vector<ValType> endTypes;   ///< label types of other blocks
    size_t height;                   ///< operand stack height at entry
    bool unreachable = false;
};

/** Type checker for one function body. */
class FuncValidator {
  public:
    FuncValidator(const Module &m, uint32_t func_idx)
        : m_(m), funcIdx_(func_idx), func_(m.functions.at(func_idx))
    {
        const FuncType &type = m_.funcType(func_idx);
        locals_ = type.params;
        locals_.insert(locals_.end(), func_.locals.begin(),
                       func_.locals.end());
        pushCtrl(Opcode::Block, {}, type.results);
    }

    void
    run()
    {
        const std::vector<Instr> &body = func_.body;
        if (body.empty() || body.back().op != Opcode::End)
            fail("function body must end with `end`");
        for (instrIdx_ = 0; instrIdx_ < body.size(); ++instrIdx_)
            check(body[instrIdx_]);
        if (!ctrls_.empty())
            fail("unbalanced blocks: control stack not empty at end");
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ValidationError(msg, funcIdx_, instrIdx_);
    }

    void
    pushVal(StackType t)
    {
        vals_.push_back(t);
    }

    StackType
    popVal()
    {
        CtrlFrame &frame = ctrls_.back();
        if (vals_.size() == frame.height) {
            if (frame.unreachable)
                return std::nullopt;
            fail("operand stack underflow");
        }
        StackType t = vals_.back();
        vals_.pop_back();
        return t;
    }

    StackType
    popExpect(StackType expect)
    {
        StackType actual = popVal();
        if (actual && expect && *actual != *expect) {
            fail(std::string("type mismatch: expected ") + name(*expect) +
                 ", got " + name(*actual));
        }
        return actual ? actual : expect;
    }

    void
    popExpect(const std::vector<ValType> &types)
    {
        for (auto it = types.rbegin(); it != types.rend(); ++it)
            popExpect(*it);
    }

    void
    pushAll(const std::vector<ValType> &types)
    {
        for (ValType t : types)
            pushVal(t);
    }

    void
    pushCtrl(Opcode op, std::vector<ValType> start,
             std::vector<ValType> end)
    {
        ctrls_.push_back(
            {op, std::move(start), std::move(end), vals_.size(), false});
    }

    CtrlFrame
    popCtrl()
    {
        if (ctrls_.empty())
            fail("control stack underflow");
        CtrlFrame frame = ctrls_.back();
        // End of a block must leave exactly its result types.
        popExpect(frame.endTypes);
        if (vals_.size() != frame.height)
            fail("operand stack not empty at end of block");
        ctrls_.pop_back();
        return frame;
    }

    const std::vector<ValType> &
    labelTypes(const CtrlFrame &frame) const
    {
        return frame.opcode == Opcode::Loop ? frame.startTypes
                                            : frame.endTypes;
    }

    const CtrlFrame &
    frameAt(uint32_t label) const
    {
        if (label >= ctrls_.size())
            fail("branch label out of range");
        return ctrls_[ctrls_.size() - 1 - label];
    }

    void
    setUnreachable()
    {
        CtrlFrame &frame = ctrls_.back();
        vals_.resize(frame.height);
        frame.unreachable = true;
    }

    std::vector<ValType>
    blockResults(const Instr &instr) const
    {
        if (BlockType bt = instr.block())
            return {*bt};
        return {};
    }

    ValType
    localType(uint32_t idx) const
    {
        if (idx >= locals_.size())
            fail("local index out of range");
        return locals_[idx];
    }

    const Global &
    globalAt(uint32_t idx) const
    {
        if (idx >= m_.globals.size())
            fail("global index out of range");
        return m_.globals[idx];
    }

    void
    checkMemExists() const
    {
        if (m_.memories.empty())
            fail("memory instruction without memory");
    }

    void
    checkAlign(const Instr &instr) const
    {
        // Natural alignment limit: align exponent must not exceed
        // log2 of the access width.
        static const int kWidthLog2[] = {2, 3, 2, 3}; // full-width by type
        const OpInfo &info = opInfo(instr.op);
        int max_align;
        std::string nm = info.name;
        if (nm.find("8") != std::string::npos &&
            nm.find("16") == std::string::npos) {
            max_align = 0;
        } else if (nm.find("16") != std::string::npos) {
            max_align = 1;
        } else if (nm.find("32") != std::string::npos &&
                   (nm.rfind("i64", 0) == 0)) {
            max_align = 2; // i64.load32_*/store32
        } else {
            ValType t = info.cls == OpClass::Load ? info.out : info.in[1];
            max_align = kWidthLog2[static_cast<int>(t)];
        }
        if (static_cast<int>(instr.imm.mem.align) > max_align)
            fail("alignment exceeds natural alignment");
    }

    void
    check(const Instr &instr)
    {
        const OpInfo &info = opInfo(instr.op);
        switch (info.cls) {
          case OpClass::Nop:
            break;
          case OpClass::Unreachable:
            setUnreachable();
            break;
          case OpClass::Block:
            pushCtrl(Opcode::Block, {}, blockResults(instr));
            break;
          case OpClass::Loop:
            pushCtrl(Opcode::Loop, {}, blockResults(instr));
            break;
          case OpClass::If:
            popExpect(ValType::I32);
            pushCtrl(Opcode::If, {}, blockResults(instr));
            break;
          case OpClass::Else: {
            if (ctrls_.empty() || ctrls_.back().opcode != Opcode::If)
                fail("else without matching if");
            CtrlFrame frame = popCtrl();
            pushCtrl(Opcode::Else, frame.startTypes, frame.endTypes);
            break;
          }
          case OpClass::End: {
            CtrlFrame frame = popCtrl();
            // An if without else must have empty result type.
            if (frame.opcode == Opcode::If && !frame.endTypes.empty())
                fail("if without else must not produce a value");
            if (!ctrls_.empty())
                pushAll(frame.endTypes);
            else if (instrIdx_ + 1 != func_.body.size())
                fail("instructions after function end");
            break;
          }
          case OpClass::Br: {
            popExpect(labelTypes(frameAt(instr.imm.idx)));
            setUnreachable();
            break;
          }
          case OpClass::BrIf: {
            popExpect(ValType::I32);
            const std::vector<ValType> &types =
                labelTypes(frameAt(instr.imm.idx));
            popExpect(types);
            pushAll(types);
            break;
          }
          case OpClass::BrTable: {
            popExpect(ValType::I32);
            std::span<const uint32_t> labels = func_.labels(instr);
            if (labels.empty())
                fail("br_table without default");
            const std::vector<ValType> &default_types =
                labelTypes(frameAt(labels.back()));
            for (size_t i = 0; i + 1 < labels.size(); ++i) {
                const std::vector<ValType> &types =
                    labelTypes(frameAt(labels[i]));
                if (types != default_types)
                    fail("br_table targets have inconsistent types");
            }
            popExpect(default_types);
            setUnreachable();
            break;
          }
          case OpClass::Return: {
            popExpect(m_.funcType(funcIdx_).results);
            setUnreachable();
            break;
          }
          case OpClass::Call: {
            if (instr.imm.idx >= m_.functions.size())
                fail("call function index out of range");
            const FuncType &type = m_.funcType(instr.imm.idx);
            popExpect(type.params);
            pushAll(type.results);
            break;
          }
          case OpClass::CallIndirect: {
            if (m_.tables.empty())
                fail("call_indirect without table");
            if (instr.imm.idx >= m_.types.size())
                fail("call_indirect type index out of range");
            popExpect(ValType::I32);
            const FuncType &type = m_.types[instr.imm.idx];
            popExpect(type.params);
            pushAll(type.results);
            break;
          }
          case OpClass::Drop:
            popVal();
            break;
          case OpClass::Select: {
            popExpect(ValType::I32);
            StackType t1 = popVal();
            StackType t2 = popExpect(t1);
            pushVal(t1 ? t1 : t2);
            break;
          }
          case OpClass::LocalGet:
            pushVal(localType(instr.imm.idx));
            break;
          case OpClass::LocalSet:
            popExpect(localType(instr.imm.idx));
            break;
          case OpClass::LocalTee: {
            ValType t = localType(instr.imm.idx);
            popExpect(t);
            pushVal(t);
            break;
          }
          case OpClass::GlobalGet:
            pushVal(globalAt(instr.imm.idx).type);
            break;
          case OpClass::GlobalSet: {
            const Global &g = globalAt(instr.imm.idx);
            if (!g.mut)
                fail("global.set of immutable global");
            popExpect(g.type);
            break;
          }
          case OpClass::Load:
            checkMemExists();
            checkAlign(instr);
            popExpect(ValType::I32);
            pushVal(info.out);
            break;
          case OpClass::Store:
            checkMemExists();
            checkAlign(instr);
            popExpect(info.in[1]);
            popExpect(ValType::I32);
            break;
          case OpClass::MemorySize:
            checkMemExists();
            pushVal(ValType::I32);
            break;
          case OpClass::MemoryGrow:
            checkMemExists();
            popExpect(ValType::I32);
            pushVal(ValType::I32);
            break;
          case OpClass::Const:
            pushVal(info.out);
            break;
          case OpClass::Unary:
            popExpect(info.in[0]);
            pushVal(info.out);
            break;
          case OpClass::Binary:
            popExpect(info.in[1]);
            popExpect(info.in[0]);
            pushVal(info.out);
            break;
        }
    }

    const Module &m_;
    uint32_t funcIdx_;
    const Function &func_;
    std::vector<ValType> locals_;
    std::vector<StackType> vals_;
    std::vector<CtrlFrame> ctrls_;
    size_t instrIdx_ = 0;
};

/** Check a constant initializer expression of the expected type.
 * @p what names the owning entity including its index, e.g.
 * "global 3" or "element segment 0". */
void
checkConstExpr(const Module &m, const std::vector<Instr> &expr,
               ValType expected, const std::string &what)
{
    if (expr.size() != 2 || expr.back().op != Opcode::End) {
        throw ValidationError(what +
                              ": initializer must be one constant "
                              "instruction followed by end");
    }
    const Instr &instr = expr.front();
    ValType produced;
    switch (instr.op) {
      case Opcode::I32Const: produced = ValType::I32; break;
      case Opcode::I64Const: produced = ValType::I64; break;
      case Opcode::F32Const: produced = ValType::F32; break;
      case Opcode::F64Const: produced = ValType::F64; break;
      case Opcode::GlobalGet: {
        if (instr.imm.idx >= m.globals.size()) {
            throw ValidationError(
                what + ": init global index " +
                std::to_string(instr.imm.idx) + " out of range (" +
                std::to_string(m.globals.size()) + " globals)");
        }
        const Global &g = m.globals[instr.imm.idx];
        if (!g.imported() || g.mut) {
            throw ValidationError(what + ": init global.get " +
                                  std::to_string(instr.imm.idx) +
                                  " must reference an imported "
                                  "immutable global");
        }
        produced = g.type;
        break;
      }
      default:
        throw ValidationError(what + ": non-constant initializer "
                                     "instruction '" +
                              name(instr.op) + "'");
    }
    if (produced != expected) {
        throw ValidationError(what + ": initializer produces " +
                              std::string(name(produced)) +
                              " but the entity expects " +
                              name(expected));
    }
}

} // namespace

void
validateModule(const Module &m, unsigned workers)
{
    // Index-space invariants.
    if (m.tables.size() > 1)
        throw ValidationError("at most one table allowed (MVP)");
    if (m.memories.size() > 1)
        throw ValidationError("at most one memory allowed (MVP)");

    auto checkOrder = [](auto const &vec, const char *what) {
        bool seen_defined = false;
        for (size_t i = 0; i < vec.size(); ++i) {
            if (vec[i].imported() && seen_defined) {
                throw ValidationError(std::string(what) + ": import at "
                                      "index " +
                                      std::to_string(i) +
                                      " after defined entity");
            }
            if (!vec[i].imported())
                seen_defined = true;
        }
    };
    checkOrder(m.functions, "functions");
    checkOrder(m.tables, "tables");
    checkOrder(m.memories, "memories");
    checkOrder(m.globals, "globals");

    for (uint32_t i = 0; i < m.functions.size(); ++i) {
        const Function &f = m.functions[i];
        if (f.typeIdx >= m.types.size()) {
            throw ValidationError("type index " +
                                      std::to_string(f.typeIdx) +
                                      " out of range (" +
                                      std::to_string(m.types.size()) +
                                      " types)",
                                  i);
        }
        if (m.types[f.typeIdx].results.size() > 1) {
            throw ValidationError("multiple results not allowed (MVP)",
                                  i);
        }
        if (f.locals.size() > kMaxLocals) {
            throw ValidationError("too many locals (" +
                                      std::to_string(f.locals.size()) +
                                      ", at most " +
                                      std::to_string(kMaxLocals) + ")",
                                  i);
        }
    }

    for (size_t i = 0; i < m.globals.size(); ++i) {
        const Global &g = m.globals[i];
        if (!g.imported()) {
            checkConstExpr(m, g.init, g.type,
                           "global " + std::to_string(i));
        }
    }

    if (!m.tables.empty()) {
        const Limits &l = m.tables[0].limits;
        if (l.max && *l.max < l.min)
            throw ValidationError("table max < min");
    }
    if (!m.memories.empty()) {
        const Limits &l = m.memories[0].limits;
        if (l.max && *l.max < l.min)
            throw ValidationError("memory max < min");
        if (l.min > 65536 || (l.max && *l.max > 65536))
            throw ValidationError("memory limits exceed 4 GiB");
    }

    for (size_t i = 0; i < m.elements.size(); ++i) {
        const ElementSegment &seg = m.elements[i];
        std::string what = "element segment " + std::to_string(i);
        if (seg.tableIdx >= m.tables.size()) {
            throw ValidationError(what + ": table index " +
                                  std::to_string(seg.tableIdx) +
                                  " out of range");
        }
        checkConstExpr(m, seg.offset, ValType::I32, what);
        for (uint32_t f : seg.funcIdxs) {
            if (f >= m.functions.size()) {
                throw ValidationError(
                    what + ": function index " + std::to_string(f) +
                    " out of range (" +
                    std::to_string(m.functions.size()) + " functions)");
            }
        }
    }

    for (size_t i = 0; i < m.data.size(); ++i) {
        const DataSegment &seg = m.data[i];
        std::string what = "data segment " + std::to_string(i);
        if (seg.memIdx >= m.memories.size()) {
            throw ValidationError(what + ": memory index " +
                                  std::to_string(seg.memIdx) +
                                  " out of range");
        }
        checkConstExpr(m, seg.offset, ValType::I32, what);
    }

    if (m.start) {
        if (*m.start >= m.functions.size()) {
            throw ValidationError("start function index " +
                                  std::to_string(*m.start) +
                                  " out of range (" +
                                  std::to_string(m.functions.size()) +
                                  " functions)");
        }
        const FuncType &t = m.funcType(*m.start);
        if (!t.params.empty() || !t.results.empty()) {
            throw ValidationError("start function must have type "
                                  "[]->[], has " +
                                      toString(t),
                                  *m.start);
        }
    }

    // Bodies are independent; parallelFor rethrows the lowest
    // function's error, the one a serial loop stops at.
    const size_t n = m.functions.size();
    support::parallelFor(n, support::workerCount(workers, n),
                         [&m](size_t i, unsigned) {
                             if (!m.functions[i].imported())
                                 FuncValidator(m, static_cast<uint32_t>(i))
                                     .run();
                         });
}

std::optional<std::string>
validationError(const Module &m, unsigned workers)
{
    try {
        validateModule(m, workers);
        return std::nullopt;
    } catch (const ValidationError &e) {
        return e.what();
    }
}

} // namespace wasabi::wasm
