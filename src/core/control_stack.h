/**
 * @file
 * The abstract control stack and abstract operand-type stack that the
 * instrumenter maintains while walking a function (paper §2.4.3 and
 * §2.4.4, Figure 6).
 *
 * The control stack resolves relative branch labels to absolute
 * instruction locations at instrumentation time and provides the list
 * of blocks "traversed" by a branch (for the dynamic block-nesting end
 * hooks, §2.4.5). The operand-type stack provides the concrete types
 * of the polymorphic drop and select instructions, which depend on all
 * preceding code (§2.4.3, Table 3 row 4).
 */

#ifndef WASABI_CORE_CONTROL_STACK_H
#define WASABI_CORE_CONTROL_STACK_H

#include <optional>
#include <vector>

#include "core/hook_kind.h"
#include "wasm/module.h"

namespace wasabi::core {

/** Sentinel instruction index denoting "function entry" (the paper's
 * Figure 6 uses -1 for the function frame's begin). */
inline constexpr uint32_t kFunctionEntry = 0xFFFFFFFF;

/** Matching structural indices of one block-opening instruction. */
struct BlockMatch {
    uint32_t endIdx = 0;
    std::optional<uint32_t> elseIdx;
};

/**
 * Matching `end` (and `else`) indices for every block/loop/if in a
 * function body; entries are meaningful only at indices whose opcode
 * opens a block. The body must include the final function-level end.
 */
std::vector<BlockMatch> matchBlocks(const std::vector<wasm::Instr> &body);

/** One frame of the abstract control stack (paper Figure 6). */
struct ControlFrame {
    BlockKind kind = BlockKind::Function;
    /** Instruction index of the block begin (kFunctionEntry for the
     * function frame; for the else-region of an if, the if's index —
     * the `elseIdx` records where the region actually started). */
    uint32_t beginIdx = kFunctionEntry;
    /** Index of the matching end (function frame: the final end). */
    uint32_t endIdx = 0;
    /** Index of the else, if this frame is an if/else. */
    std::optional<uint32_t> elseIdx;
    /** Block result type (nullopt = no result). */
    std::optional<wasm::ValType> result;
    /** Operand-type stack height at frame entry. */
    size_t height = 0;
    /** True once a br/return/unreachable ended this frame's code. */
    bool unreachable = false;
    /** True if the frame was opened inside dead code (the whole block
     * can never execute). */
    bool deadEntry = false;

    /** Index where this frame's region ends: the then-region of an
     * if/else ends at the `else`, every other region at its `end`. */
    uint32_t
    regionEnd() const
    {
        return kind == BlockKind::If && elseIdx ? *elseIdx : endIdx;
    }

    /** Index where this frame's region begins: an else-region begins
     * at the `else`, every other region at its block instruction. */
    uint32_t
    regionBegin() const
    {
        return kind == BlockKind::Else && elseIdx ? *elseIdx : beginIdx;
    }

    /** Index of the next instruction executed when a branch to this
     * frame's label is taken: the first instruction inside a loop, or
     * the instruction after the matching end otherwise (§2.4.4). */
    uint32_t
    branchTargetIdx() const
    {
        return kind == BlockKind::Loop ? beginIdx + 1 : endIdx + 1;
    }
};

/**
 * Tracks operand types and control frames across one function body.
 * The module must already validate; this class asserts instead of
 * reporting type errors.
 *
 * Usage: query (top(), reachable(), frames(), resolve helpers) for
 * instruction i *before* calling apply(instr, i).
 */
class AbstractState {
  public:
    AbstractState(const wasm::Module &m, uint32_t func_idx);

    /** Type of the k-th operand from the top; nullopt if unknown
     * (possible only in unreachable code). */
    std::optional<wasm::ValType> top(size_t k = 0) const;

    /** False while inside dead code (after br/unreachable/...). */
    bool reachable() const { return !frames_.back().unreachable; }

    const std::vector<ControlFrame> &frames() const { return frames_; }

    /** The function whose body this state walks. */
    const wasm::Function &function() const { return func_; }

    /** Frame targeted by relative label @p n (0 = innermost). */
    const ControlFrame &frameForLabel(uint32_t n) const;

    /**
     * Absolute instruction index of the next instruction executed if
     * a branch to label @p n is taken: the first instruction inside a
     * loop, or the instruction after the matching end otherwise
     * (paper §2.4.4).
     */
    uint32_t resolveLabel(uint32_t n) const;

    /**
     * The frames left ("traversed") by a branch to label @p n, from
     * the innermost outward, both endpoints inclusive (§2.4.5).
     */
    std::vector<ControlFrame> traversedFrames(uint32_t n) const;

    /** All open frames, innermost first (for `return`). */
    std::vector<ControlFrame> allFramesInnermostFirst() const;

    /** Advance the abstract state over instruction @p instr, which is
     * at index @p instr_idx in the body. */
    void apply(const wasm::Instr &instr, uint32_t instr_idx);

  private:
    void push(std::optional<wasm::ValType> t) { stack_.push_back(t); }
    std::optional<wasm::ValType> pop();
    void pushResults(const wasm::FuncType &type);
    void popParams(const wasm::FuncType &type);
    void setUnreachable();

    const wasm::Module &m_;
    const wasm::Function &func_;
    std::vector<wasm::ValType> locals_; ///< params + locals
    std::vector<BlockMatch> matches_;
    std::vector<std::optional<wasm::ValType>> stack_;
    std::vector<ControlFrame> frames_;
};

} // namespace wasabi::core

#endif // WASABI_CORE_CONTROL_STACK_H
