/**
 * @file
 * Instruction coverage (paper Table 4): records which instructions
 * executed at least once — useful for assessing test quality. The
 * paper's version implements all hooks in 11 LOC of JS; here every
 * hook funnels into one covered-location set.
 */

#ifndef WASABI_ANALYSES_INSTRUCTION_COVERAGE_H
#define WASABI_ANALYSES_INSTRUCTION_COVERAGE_H

#include <unordered_set>

#include "runtime/analysis.h"

namespace wasabi::analyses {

/** Set of executed instruction locations. */
class InstructionCoverage final : public runtime::Analysis {
  public:
    runtime::HookSet
    hooks() const override
    {
        return runtime::HookSet::all();
    }

    void onStart(runtime::Location loc) override { mark(loc); }
    void onNop(runtime::Location loc) override { mark(loc); }
    void onUnreachable(runtime::Location loc) override { mark(loc); }
    void onIf(runtime::Location loc, bool) override { mark(loc); }
    void
    onBr(runtime::Location loc, runtime::BranchTarget) override
    {
        mark(loc);
    }
    void
    onBrIf(runtime::Location loc, runtime::BranchTarget, bool) override
    {
        mark(loc);
    }
    void
    onBrTable(runtime::Location loc,
              std::span<const runtime::BranchTarget>,
              runtime::BranchTarget, uint32_t) override
    {
        mark(loc);
    }
    void
    onBegin(runtime::Location loc, runtime::BlockKind kind) override
    {
        if (kind != runtime::BlockKind::Function)
            mark(loc);
    }
    void
    onEnd(runtime::Location loc, runtime::BlockKind, runtime::Location)
        override
    {
        mark(loc);
    }
    void
    onConst(runtime::Location loc, wasm::Opcode, wasm::Value) override
    {
        mark(loc);
    }
    void
    onUnary(runtime::Location loc, wasm::Opcode, wasm::Value,
            wasm::Value) override
    {
        mark(loc);
    }
    void
    onBinary(runtime::Location loc, wasm::Opcode, wasm::Value, wasm::Value,
             wasm::Value) override
    {
        mark(loc);
    }
    void onDrop(runtime::Location loc, wasm::Value) override { mark(loc); }
    void
    onSelect(runtime::Location loc, bool, wasm::Value, wasm::Value) override
    {
        mark(loc);
    }
    void
    onLocal(runtime::Location loc, wasm::Opcode, uint32_t,
            wasm::Value) override
    {
        mark(loc);
    }
    void
    onGlobal(runtime::Location loc, wasm::Opcode, uint32_t,
             wasm::Value) override
    {
        mark(loc);
    }
    void
    onLoad(runtime::Location loc, wasm::Opcode, runtime::MemArg,
           wasm::Value) override
    {
        mark(loc);
    }
    void
    onStore(runtime::Location loc, wasm::Opcode, runtime::MemArg,
            wasm::Value) override
    {
        mark(loc);
    }
    void onMemorySize(runtime::Location loc, uint32_t) override
    {
        mark(loc);
    }
    void
    onMemoryGrow(runtime::Location loc, uint32_t, uint32_t) override
    {
        mark(loc);
    }
    void
    onCallPre(runtime::Location loc, uint32_t,
              std::span<const wasm::Value>,
              std::optional<uint32_t>) override
    {
        mark(loc);
    }
    void
    onReturn(runtime::Location loc, std::span<const wasm::Value>) override
    {
        mark(loc);
    }

    runtime::HookSet
    countedHooks() const override
    {
        return runtime::HookSet::all();
    }

    /** Function-entry sites (start, function begin) fall out in
     * mark(), as in the hooks. */
    void
    onCounts(const runtime::HookSite &site,
             std::span<const uint64_t>) override
    {
        mark(site.loc);
    }

    bool
    covered(runtime::Location loc) const
    {
        return covered_.count(core::packLoc(loc)) != 0;
    }

    size_t coveredCount() const { return covered_.size(); }

    /** Covered fraction relative to a module's instruction count. */
    double
    ratio(const wasm::Module &m) const
    {
        size_t total = m.numInstructions();
        return total == 0 ? 0.0
                          : static_cast<double>(covered_.size()) / total;
    }

  private:
    void
    mark(runtime::Location loc)
    {
        if (loc.instr != core::kFunctionEntry)
            covered_.insert(core::packLoc(loc));
    }

    std::unordered_set<uint64_t> covered_;
};

} // namespace wasabi::analyses

#endif // WASABI_ANALYSES_INSTRUCTION_COVERAGE_H
