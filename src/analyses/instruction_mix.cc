#include "analyses/instruction_mix.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace wasabi::analyses {

using runtime::HookKind;
using runtime::HookSet;
using runtime::Location;
using wasm::Opcode;

HookSet
InstructionMix::hooks() const
{
    return HookSet::all();
}

void
InstructionMix::onStart(Location)
{
    ++starts_;
    ++total_;
}
void InstructionMix::onNop(Location) { bump(Opcode::Nop); }
void InstructionMix::onUnreachable(Location) { bump(Opcode::Unreachable); }
void InstructionMix::onIf(Location, bool) { bump(Opcode::If); }
void InstructionMix::onBr(Location, runtime::BranchTarget) { bump(Opcode::Br); }
void
InstructionMix::onBrIf(Location, runtime::BranchTarget, bool)
{
    bump(Opcode::BrIf);
}
void
InstructionMix::onBrTable(Location, std::span<const runtime::BranchTarget>,
                          runtime::BranchTarget, uint32_t)
{
    bump(Opcode::BrTable);
}
void
InstructionMix::onBegin(Location, runtime::BlockKind kind)
{
    // Block entries stand in for the block/loop instructions.
    if (kind == runtime::BlockKind::Block)
        bump(Opcode::Block);
    else if (kind == runtime::BlockKind::Loop)
        bump(Opcode::Loop);
}
void InstructionMix::onConst(Location, Opcode op, wasm::Value) { bump(op); }
void
InstructionMix::onUnary(Location, Opcode op, wasm::Value, wasm::Value)
{
    bump(op);
}
void
InstructionMix::onBinary(Location, Opcode op, wasm::Value, wasm::Value,
                         wasm::Value)
{
    bump(op);
}
void InstructionMix::onDrop(Location, wasm::Value) { bump(Opcode::Drop); }
void
InstructionMix::onSelect(Location, bool, wasm::Value, wasm::Value)
{
    bump(Opcode::Select);
}
void
InstructionMix::onLocal(Location, Opcode op, uint32_t, wasm::Value)
{
    bump(op);
}
void
InstructionMix::onGlobal(Location, Opcode op, uint32_t, wasm::Value)
{
    bump(op);
}
void
InstructionMix::onLoad(Location, Opcode op, runtime::MemArg, wasm::Value)
{
    bump(op);
}
void
InstructionMix::onStore(Location, Opcode op, runtime::MemArg, wasm::Value)
{
    bump(op);
}
void
InstructionMix::onMemorySize(Location, uint32_t)
{
    bump(Opcode::MemorySize);
}
void
InstructionMix::onMemoryGrow(Location, uint32_t, uint32_t)
{
    bump(Opcode::MemoryGrow);
}
void
InstructionMix::onCallPre(Location, uint32_t, std::span<const wasm::Value>,
                          std::optional<uint32_t> table_index)
{
    bump(table_index ? Opcode::CallIndirect : Opcode::Call);
}
void
InstructionMix::onReturn(Location, std::span<const wasm::Value>)
{
    bump(Opcode::Return);
}

HookSet
InstructionMix::countedHooks() const
{
    return HookSet::all();
}

void
InstructionMix::onCounts(const runtime::HookSite &site,
                         std::span<const uint64_t> outcomes)
{
    uint64_t n = 0;
    for (uint64_t k : outcomes)
        n += k;
    switch (site.kind) {
      case HookKind::Start:
        starts_ += n;
        total_ += n;
        return;
      case HookKind::Nop: bump(Opcode::Nop, n); return;
      case HookKind::Unreachable: bump(Opcode::Unreachable, n); return;
      case HookKind::If: bump(Opcode::If, n); return;
      case HookKind::Br: bump(Opcode::Br, n); return;
      case HookKind::BrIf: bump(Opcode::BrIf, n); return;
      case HookKind::BrTable: bump(Opcode::BrTable, n); return;
      case HookKind::Begin:
        if (site.block == runtime::BlockKind::Block)
            bump(Opcode::Block, n);
        else if (site.block == runtime::BlockKind::Loop)
            bump(Opcode::Loop, n);
        return;
      case HookKind::End: return;
      case HookKind::Const:
      case HookKind::Unary:
      case HookKind::Binary:
      case HookKind::Local:
      case HookKind::Global:
      case HookKind::Load:
      case HookKind::Store:
        bump(site.op, n);
        return;
      case HookKind::Drop: bump(Opcode::Drop, n); return;
      case HookKind::Select: bump(Opcode::Select, n); return;
      case HookKind::MemorySize: bump(Opcode::MemorySize, n); return;
      case HookKind::MemoryGrow: bump(Opcode::MemoryGrow, n); return;
      case HookKind::Call:
        if (!site.post)
            bump(site.indirect ? Opcode::CallIndirect : Opcode::Call, n);
        return;
      case HookKind::Return: bump(Opcode::Return, n); return;
    }
}

const std::map<std::string, uint64_t> &
InstructionMix::counts() const
{
    if (countsTotal_ != total_) {
        counts_.clear();
        if (starts_ != 0)
            counts_["start"] = starts_;
        for (size_t op = 0; op < byOpcode_.size(); ++op) {
            if (byOpcode_[op] != 0)
                counts_[wasm::name(static_cast<Opcode>(op))] +=
                    byOpcode_[op];
        }
        countsTotal_ = total_;
    }
    return counts_;
}

std::string
InstructionMix::report(size_t top_n) const
{
    // Sorted from the key-ordered map: std::sort is unstable, so equal
    // counts keep the order they have always had only from this input.
    std::vector<std::pair<std::string, uint64_t>> sorted(counts().begin(),
                                                         counts().end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    std::ostringstream os;
    os << "total dynamic instructions observed: " << total_ << "\n";
    for (size_t i = 0; i < sorted.size() && i < top_n; ++i)
        os << "  " << sorted[i].first << ": " << sorted[i].second << "\n";
    return os.str();
}

} // namespace wasabi::analyses
