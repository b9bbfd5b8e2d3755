/**
 * @file
 * Test helpers: an Analysis that serializes every hook invocation —
 * kind, location, and all dynamic arguments — into a flat string
 * stream (two instrumentation modes are equivalent exactly when they
 * produce byte-identical streams), and one that keeps hook kinds on
 * the hook path.
 */

#ifndef WASABI_TESTS_HOOK_STREAM_RECORDER_H
#define WASABI_TESTS_HOOK_STREAM_RECORDER_H

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/analysis.h"

namespace wasabi::tests {

using core::BlockKind;
using core::BranchTarget;
using core::Location;

/**
 * Subscribes to the given kinds, counts none and does nothing: added
 * to a runtime beside a count-only analysis, it keeps every site of
 * those kinds on the hook path (DESIGN.md §12), with no knob.
 */
class HookedShadow final : public runtime::Analysis {
  public:
    explicit HookedShadow(core::HookSet kinds) : kinds_(kinds) {}

    core::HookSet hooks() const override { return kinds_; }

  private:
    core::HookSet kinds_;
};

class HookStreamRecorder : public runtime::Analysis {
  public:
    explicit HookStreamRecorder(core::HookSet kinds = core::HookSet::all())
        : kinds_(kinds)
    {
    }

    core::HookSet hooks() const override { return kinds_; }

    std::vector<std::string> stream;
    std::array<uint64_t, core::kNumHookKinds> perKind{};

    uint64_t
    total() const
    {
        uint64_t n = 0;
        for (uint64_t c : perKind)
            n += c;
        return n;
    }

    void
    onStart(Location loc) override
    {
        rec(core::HookKind::Start, loc, "");
    }

    void
    onNop(Location loc) override
    {
        rec(core::HookKind::Nop, loc, "");
    }

    void
    onUnreachable(Location loc) override
    {
        rec(core::HookKind::Unreachable, loc, "");
    }

    void
    onIf(Location loc, bool condition) override
    {
        rec(core::HookKind::If, loc, condition ? "true" : "false");
    }

    void
    onBr(Location loc, BranchTarget target) override
    {
        rec(core::HookKind::Br, loc, tgt(target));
    }

    void
    onBrIf(Location loc, BranchTarget target, bool condition) override
    {
        rec(core::HookKind::BrIf, loc,
            tgt(target) + (condition ? " true" : " false"));
    }

    void
    onBrTable(Location loc, std::span<const BranchTarget> table,
              BranchTarget default_target, uint32_t index) override
    {
        std::ostringstream os;
        for (const BranchTarget &t : table)
            os << tgt(t) << " ";
        os << "default=" << tgt(default_target) << " idx=" << index;
        rec(core::HookKind::BrTable, loc, os.str());
    }

    void
    onBegin(Location loc, BlockKind kind) override
    {
        rec(core::HookKind::Begin, loc, blk(kind));
    }

    void
    onEnd(Location loc, BlockKind kind, Location begin) override
    {
        rec(core::HookKind::End, loc, blk(kind) + " begin=" + fmt(begin));
    }

    void
    onConst(Location loc, wasm::Opcode op, wasm::Value value) override
    {
        rec(core::HookKind::Const, loc, opc(op) + " " + val(value));
    }

    void
    onUnary(Location loc, wasm::Opcode op, wasm::Value input,
            wasm::Value result) override
    {
        rec(core::HookKind::Unary, loc,
            opc(op) + " " + val(input) + " -> " + val(result));
    }

    void
    onBinary(Location loc, wasm::Opcode op, wasm::Value first,
             wasm::Value second, wasm::Value result) override
    {
        rec(core::HookKind::Binary, loc,
            opc(op) + " " + val(first) + " " + val(second) + " -> " +
                val(result));
    }

    void
    onDrop(Location loc, wasm::Value value) override
    {
        rec(core::HookKind::Drop, loc, val(value));
    }

    void
    onSelect(Location loc, bool condition, wasm::Value first,
             wasm::Value second) override
    {
        rec(core::HookKind::Select, loc,
            std::string(condition ? "true" : "false") + " " + val(first) +
                " " + val(second));
    }

    void
    onLocal(Location loc, wasm::Opcode op, uint32_t index,
            wasm::Value value) override
    {
        rec(core::HookKind::Local, loc,
            opc(op) + " [" + std::to_string(index) + "] " + val(value));
    }

    void
    onGlobal(Location loc, wasm::Opcode op, uint32_t index,
             wasm::Value value) override
    {
        rec(core::HookKind::Global, loc,
            opc(op) + " [" + std::to_string(index) + "] " + val(value));
    }

    void
    onLoad(Location loc, wasm::Opcode op, runtime::MemArg memarg,
           wasm::Value value) override
    {
        rec(core::HookKind::Load, loc,
            opc(op) + " @" + std::to_string(memarg.addr) + "+" +
                std::to_string(memarg.offset) + " " + val(value));
    }

    void
    onStore(Location loc, wasm::Opcode op, runtime::MemArg memarg,
            wasm::Value value) override
    {
        rec(core::HookKind::Store, loc,
            opc(op) + " @" + std::to_string(memarg.addr) + "+" +
                std::to_string(memarg.offset) + " " + val(value));
    }

    void
    onMemorySize(Location loc, uint32_t current_pages) override
    {
        rec(core::HookKind::MemorySize, loc,
            std::to_string(current_pages));
    }

    void
    onMemoryGrow(Location loc, uint32_t delta,
                 uint32_t previous_pages) override
    {
        rec(core::HookKind::MemoryGrow, loc,
            std::to_string(delta) + " prev=" +
                std::to_string(previous_pages));
    }

    void
    onCallPre(Location loc, uint32_t func,
              std::span<const wasm::Value> args,
              std::optional<uint32_t> table_index) override
    {
        std::ostringstream os;
        os << "pre f" << func;
        if (table_index)
            os << " tbl[" << *table_index << "]";
        for (const wasm::Value &a : args)
            os << " " << val(a);
        rec(core::HookKind::Call, loc, os.str());
    }

    void
    onCallPost(Location loc, std::span<const wasm::Value> results) override
    {
        std::ostringstream os;
        os << "post";
        for (const wasm::Value &r : results)
            os << " " << val(r);
        rec(core::HookKind::Call, loc, os.str());
    }

    void
    onReturn(Location loc, std::span<const wasm::Value> results) override
    {
        std::ostringstream os;
        for (const wasm::Value &r : results)
            os << val(r) << " ";
        rec(core::HookKind::Return, loc, os.str());
    }

  private:
    void
    rec(core::HookKind kind, Location loc, const std::string &args)
    {
        ++perKind[static_cast<size_t>(kind)];
        stream.push_back(std::string(core::name(kind)) + " " + fmt(loc) +
                         " " + args);
    }

    static std::string
    fmt(Location loc)
    {
        return "f" + std::to_string(loc.func) + ":" +
               (loc.instr == core::kFunctionEntry
                    ? std::string("entry")
                    : std::to_string(loc.instr));
    }

    static std::string
    val(wasm::Value v)
    {
        std::ostringstream os;
        os << "v" << static_cast<int>(v.type) << ":" << std::hex << v.bits;
        return os.str();
    }

    static std::string
    tgt(const BranchTarget &t)
    {
        return "L" + std::to_string(t.label) + "@" + fmt(t.location);
    }

    static std::string
    blk(BlockKind k)
    {
        return "b" + std::to_string(static_cast<int>(k));
    }

    static std::string
    opc(wasm::Opcode op)
    {
        return "op" + std::to_string(static_cast<int>(op));
    }

    core::HookSet kinds_;
};

} // namespace wasabi::tests

#endif // WASABI_TESTS_HOOK_STREAM_RECORDER_H
