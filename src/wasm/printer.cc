#include "wasm/printer.h"

#include <sstream>

namespace wasabi::wasm {

std::string
toString(const Instr &instr, std::span<const uint32_t> pool)
{
    const OpInfo &info = opInfo(instr.op);
    std::ostringstream os;
    os << info.name;
    switch (info.imm) {
      case ImmKind::None:
      case ImmKind::MemIdx:
        break;
      case ImmKind::BlockType:
        if (BlockType bt = instr.block())
            os << " (result " << name(*bt) << ")";
        break;
      case ImmKind::Label:
      case ImmKind::Func:
      case ImmKind::Local:
      case ImmKind::Global:
        os << " " << instr.imm.idx;
        break;
      case ImmKind::CallInd:
        os << " (type " << instr.imm.idx << ")";
        break;
      case ImmKind::BrTableImm:
        for (uint32_t label : brTableLabels(pool, instr))
            os << " " << label;
        break;
      case ImmKind::Mem:
        if (instr.imm.mem.offset != 0)
            os << " offset=" << instr.imm.mem.offset;
        if (instr.imm.mem.align != 0)
            os << " align=" << (1u << instr.imm.mem.align);
        break;
      case ImmKind::I32:
        os << " " << static_cast<int32_t>(instr.imm.i32v);
        break;
      case ImmKind::I64:
        os << " " << static_cast<int64_t>(instr.imm.i64v);
        break;
      case ImmKind::F32:
        os << " " << instr.imm.f32v;
        break;
      case ImmKind::F64:
        os << " " << instr.imm.f64v;
        break;
    }
    return os.str();
}

std::string
toString(const Module &m, uint32_t func_idx)
{
    const Function &f = m.functions.at(func_idx);
    const FuncType &type = m.funcType(func_idx);
    std::ostringstream os;
    os << "  (func $" << func_idx;
    if (!f.debugName.empty())
        os << " ;; " << f.debugName;
    os << " " << toString(type);
    if (f.imported()) {
        os << " (import \"" << f.import->module << "\" \"" << f.import->name
           << "\"))\n";
        return os.str();
    }
    for (const std::string &e : f.exportNames)
        os << " (export \"" << e << "\")";
    os << "\n";
    if (!f.locals.empty()) {
        os << "    (local";
        for (ValType t : f.locals)
            os << " " << name(t);
        os << ")\n";
    }
    int indent = 2;
    for (size_t i = 0; i < f.body.size(); ++i) {
        const Instr &instr = f.body[i];
        OpClass c = opInfo(instr.op).cls;
        if (c == OpClass::End || c == OpClass::Else)
            indent = std::max(1, indent - 1);
        for (int s = 0; s < indent; ++s)
            os << "  ";
        os << toString(instr, f.labelPool) << "  ;; @" << i << "\n";
        if (isBlockStart(instr.op) || c == OpClass::Else)
            ++indent;
    }
    os << "  )\n";
    return os.str();
}

std::string
toString(const Module &m)
{
    std::ostringstream os;
    os << "(module\n";
    for (size_t i = 0; i < m.types.size(); ++i)
        os << "  (type $" << i << " " << toString(m.types[i]) << ")\n";
    for (const Global &g : m.globals) {
        os << "  (global " << (g.mut ? "(mut " : "(") << name(g.type)
           << "))\n";
    }
    for (const Memory &mem : m.memories) {
        os << "  (memory " << mem.limits.min;
        if (mem.limits.max)
            os << " " << *mem.limits.max;
        os << ")\n";
    }
    for (const Table &t : m.tables) {
        os << "  (table " << t.limits.min;
        if (t.limits.max)
            os << " " << *t.limits.max;
        os << " funcref)\n";
    }
    for (uint32_t i = 0; i < m.functions.size(); ++i)
        os << toString(m, i);
    if (m.start)
        os << "  (start $" << *m.start << ")\n";
    os << ")\n";
    return os.str();
}

} // namespace wasabi::wasm
