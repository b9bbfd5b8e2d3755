#include "wasm/instr.h"

namespace wasabi::wasm {

Value
Instr::constValue() const
{
    switch (op) {
      case Opcode::I32Const: return Value::makeI32(imm.i32v);
      case Opcode::I64Const: return Value::makeI64(imm.i64v);
      case Opcode::F32Const: return Value::makeF32(imm.f32v);
      case Opcode::F64Const: return Value::makeF64(imm.f64v);
      default: return Value();
    }
}

bool
sameImm(const Instr &a, const Instr &b)
{
    if (a.op != b.op)
        return false;
    switch (opInfo(a.op).imm) {
      case ImmKind::None:
      case ImmKind::MemIdx:
        return true;
      case ImmKind::BlockType:
        return a.blockByte == b.blockByte;
      case ImmKind::Label:
      case ImmKind::Func:
      case ImmKind::CallInd:
      case ImmKind::Local:
      case ImmKind::Global:
        return a.imm.idx == b.imm.idx;
      case ImmKind::BrTableImm:
        return a.aux == b.aux && a.imm.idx == b.imm.idx;
      case ImmKind::Mem:
        return a.imm.mem == b.imm.mem;
      case ImmKind::I32:
        return a.imm.i32v == b.imm.i32v;
      case ImmKind::I64:
        return a.imm.i64v == b.imm.i64v;
      case ImmKind::F32:
      case ImmKind::F64:
        // Compare bit patterns so NaNs compare equal to themselves.
        return a.constValue() == b.constValue();
    }
    return false;
}

bool
Instr::operator==(const Instr &other) const
{
    return sameImm(*this, other);
}

} // namespace wasabi::wasm
