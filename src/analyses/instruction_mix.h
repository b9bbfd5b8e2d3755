/**
 * @file
 * Instruction mix analysis (paper Table 4): counts how often each kind
 * of instruction is executed — a basis for performance and security
 * analyses.
 */

#ifndef WASABI_ANALYSES_INSTRUCTION_MIX_H
#define WASABI_ANALYSES_INSTRUCTION_MIX_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "runtime/analysis.h"

namespace wasabi::analyses {

/** Counts executed instructions by opcode; reports them by mnemonic. */
class InstructionMix final : public runtime::Analysis {
  public:
    runtime::HookSet hooks() const override;

    void onStart(runtime::Location) override;
    void onNop(runtime::Location) override;
    void onUnreachable(runtime::Location) override;
    void onIf(runtime::Location, bool) override;
    void onBr(runtime::Location, runtime::BranchTarget) override;
    void onBrIf(runtime::Location, runtime::BranchTarget, bool) override;
    void onBrTable(runtime::Location,
                   std::span<const runtime::BranchTarget>,
                   runtime::BranchTarget, uint32_t) override;
    void onBegin(runtime::Location, runtime::BlockKind) override;
    void onConst(runtime::Location, wasm::Opcode, wasm::Value) override;
    void onUnary(runtime::Location, wasm::Opcode, wasm::Value,
                 wasm::Value) override;
    void onBinary(runtime::Location, wasm::Opcode, wasm::Value,
                  wasm::Value, wasm::Value) override;
    void onDrop(runtime::Location, wasm::Value) override;
    void onSelect(runtime::Location, bool, wasm::Value,
                  wasm::Value) override;
    void onLocal(runtime::Location, wasm::Opcode, uint32_t,
                 wasm::Value) override;
    void onGlobal(runtime::Location, wasm::Opcode, uint32_t,
                  wasm::Value) override;
    void onLoad(runtime::Location, wasm::Opcode, runtime::MemArg,
                wasm::Value) override;
    void onStore(runtime::Location, wasm::Opcode, runtime::MemArg,
                 wasm::Value) override;
    void onMemorySize(runtime::Location, uint32_t) override;
    void onMemoryGrow(runtime::Location, uint32_t, uint32_t) override;
    void onCallPre(runtime::Location, uint32_t,
                   std::span<const wasm::Value>,
                   std::optional<uint32_t>) override;
    void onReturn(runtime::Location,
                  std::span<const wasm::Value>) override;

    /** Every kind: the opcode is the site's (DESIGN.md §12). */
    runtime::HookSet countedHooks() const override;
    void onCounts(const runtime::HookSite &site,
                  std::span<const uint64_t> outcomes) override;

    /** Executed-count per instruction mnemonic (built from the
     * per-opcode counters when read after new events). */
    const std::map<std::string, uint64_t> &counts() const;

    /** Total dynamic instruction count observed. */
    uint64_t total() const { return total_; }

    uint64_t
    count(const std::string &mnemonic) const
    {
        auto it = counts().find(mnemonic);
        return it == counts().end() ? 0 : it->second;
    }

    /** Human-readable report, most frequent first. */
    std::string report(size_t top_n = 20) const;

  private:
    void
    bump(wasm::Opcode op, uint64_t n = 1)
    {
        byOpcode_[static_cast<uint8_t>(op)] += n;
        total_ += n;
    }

    /** Counts by opcode; the module's start function, which is no
     * instruction, counts in its own slot. */
    std::array<uint64_t, 256> byOpcode_{};
    uint64_t starts_ = 0;
    uint64_t total_ = 0;
    /** counts() cache, current while countsTotal_ == total_. */
    mutable std::map<std::string, uint64_t> counts_;
    mutable uint64_t countsTotal_ = 0;
};

} // namespace wasabi::analyses

#endif // WASABI_ANALYSES_INSTRUCTION_MIX_H
