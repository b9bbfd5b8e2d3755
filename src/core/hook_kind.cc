#include "core/hook_kind.h"

#include <bit>

namespace wasabi::core {

const char *
name(HookKind kind)
{
    switch (kind) {
      case HookKind::Nop: return "nop";
      case HookKind::Unreachable: return "unreachable";
      case HookKind::MemorySize: return "memory_size";
      case HookKind::MemoryGrow: return "memory_grow";
      case HookKind::Select: return "select";
      case HookKind::Drop: return "drop";
      case HookKind::Load: return "load";
      case HookKind::Store: return "store";
      case HookKind::Call: return "call";
      case HookKind::Return: return "return";
      case HookKind::Const: return "const";
      case HookKind::Unary: return "unary";
      case HookKind::Binary: return "binary";
      case HookKind::Global: return "global";
      case HookKind::Local: return "local";
      case HookKind::Begin: return "begin";
      case HookKind::End: return "end";
      case HookKind::If: return "if";
      case HookKind::Br: return "br";
      case HookKind::BrIf: return "br_if";
      case HookKind::BrTable: return "br_table";
      case HookKind::Start: return "start";
    }
    return "?";
}

std::optional<HookKind>
hookKindByName(const std::string &hook_name)
{
    for (int i = 0; i < kNumHookKinds; ++i) {
        HookKind k = static_cast<HookKind>(i);
        if (hook_name == name(k))
            return k;
    }
    return std::nullopt;
}

std::optional<HookSet>
parseHookSet(const std::string &spec, std::string *error)
{
    if (spec.empty() || spec == "all")
        return HookSet::all();
    HookSet set;
    size_t pos = 0;
    for (;;) {
        size_t comma = spec.find(',', pos);
        std::string kind_name = spec.substr(pos, comma - pos);
        std::optional<HookKind> kind = hookKindByName(kind_name);
        if (!kind) {
            if (error)
                *error = kind_name.empty()
                             ? "empty hook kind in \"" + spec + "\""
                             : "unknown hook kind \"" + kind_name + "\"";
            return std::nullopt;
        }
        set.add(*kind);
        if (comma == std::string::npos)
            return set;
        pos = comma + 1;
    }
}

std::optional<HookKind>
hookKindForClass(wasm::OpClass cls)
{
    using wasm::OpClass;
    switch (cls) {
      case OpClass::Nop: return HookKind::Nop;
      case OpClass::Unreachable: return HookKind::Unreachable;
      case OpClass::Block:
      case OpClass::Loop:
        return HookKind::Begin;
      case OpClass::If: return HookKind::If;
      case OpClass::Else:
      case OpClass::End:
        return HookKind::End;
      case OpClass::Br: return HookKind::Br;
      case OpClass::BrIf: return HookKind::BrIf;
      case OpClass::BrTable: return HookKind::BrTable;
      case OpClass::Return: return HookKind::Return;
      case OpClass::Call:
      case OpClass::CallIndirect:
        return HookKind::Call;
      case OpClass::Drop: return HookKind::Drop;
      case OpClass::Select: return HookKind::Select;
      case OpClass::LocalGet:
      case OpClass::LocalSet:
      case OpClass::LocalTee:
        return HookKind::Local;
      case OpClass::GlobalGet:
      case OpClass::GlobalSet:
        return HookKind::Global;
      case OpClass::Load: return HookKind::Load;
      case OpClass::Store: return HookKind::Store;
      case OpClass::MemorySize: return HookKind::MemorySize;
      case OpClass::MemoryGrow: return HookKind::MemoryGrow;
      case OpClass::Const: return HookKind::Const;
      case OpClass::Unary: return HookKind::Unary;
      case OpClass::Binary: return HookKind::Binary;
    }
    return std::nullopt;
}

const std::vector<HookKind> &
figureOrderHookKinds()
{
    static const std::vector<HookKind> kinds = {
        HookKind::Nop,       HookKind::Unreachable, HookKind::MemorySize,
        HookKind::MemoryGrow, HookKind::Select,     HookKind::Drop,
        HookKind::Load,      HookKind::Store,       HookKind::Call,
        HookKind::Return,    HookKind::Const,       HookKind::Unary,
        HookKind::Binary,    HookKind::Global,      HookKind::Local,
        HookKind::Begin,     HookKind::End,         HookKind::If,
        HookKind::Br,        HookKind::BrIf,        HookKind::BrTable,
    };
    return kinds;
}

int
HookSet::count() const
{
    return std::popcount(bits_);
}

std::string
HookSet::toString() const
{
    std::string s;
    for (int i = 0; i < kNumHookKinds; ++i) {
        HookKind k = static_cast<HookKind>(i);
        if (has(k)) {
            if (!s.empty())
                s += ",";
            s += name(k);
        }
    }
    return s;
}

const char *
name(BlockKind kind)
{
    switch (kind) {
      case BlockKind::Function: return "function";
      case BlockKind::Block: return "block";
      case BlockKind::Loop: return "loop";
      case BlockKind::If: return "if";
      case BlockKind::Else: return "else";
    }
    return "?";
}

} // namespace wasabi::core
