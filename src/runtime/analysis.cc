#include "runtime/analysis.h"

namespace wasabi::runtime {

// All hooks default to no-ops so analyses override only what they
// need; out-of-line definitions anchor the vtable here.

Analysis::~Analysis() = default;

void Analysis::onStart(Location) {}
void Analysis::onNop(Location) {}
void Analysis::onUnreachable(Location) {}
void Analysis::onIf(Location, bool) {}
void Analysis::onBr(Location, BranchTarget) {}
void Analysis::onBrIf(Location, BranchTarget, bool) {}
void
Analysis::onBrTable(Location, std::span<const BranchTarget>, BranchTarget,
                    uint32_t)
{
}
void Analysis::onBegin(Location, BlockKind) {}
void Analysis::onEnd(Location, BlockKind, Location) {}
void Analysis::onConst(Location, wasm::Opcode, wasm::Value) {}
void Analysis::onUnary(Location, wasm::Opcode, wasm::Value, wasm::Value) {}
void
Analysis::onBinary(Location, wasm::Opcode, wasm::Value, wasm::Value,
                   wasm::Value)
{
}
void Analysis::onDrop(Location, wasm::Value) {}
void Analysis::onSelect(Location, bool, wasm::Value, wasm::Value) {}
void Analysis::onLocal(Location, wasm::Opcode, uint32_t, wasm::Value) {}
void Analysis::onGlobal(Location, wasm::Opcode, uint32_t, wasm::Value) {}
void Analysis::onLoad(Location, wasm::Opcode, MemArg, wasm::Value) {}
void Analysis::onStore(Location, wasm::Opcode, MemArg, wasm::Value) {}
void Analysis::onMemorySize(Location, uint32_t) {}
void Analysis::onMemoryGrow(Location, uint32_t, uint32_t) {}
void
Analysis::onCallPre(Location, uint32_t, std::span<const wasm::Value>,
                    std::optional<uint32_t>)
{
}
void Analysis::onCallPost(Location, std::span<const wasm::Value>) {}
void Analysis::onReturn(Location, std::span<const wasm::Value>) {}

HookSet Analysis::countedHooks() const { return {}; }
void Analysis::onCounts(const HookSite &, std::span<const uint64_t>) {}

} // namespace wasabi::runtime
