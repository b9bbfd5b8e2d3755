/**
 * @file
 * High-level hook kinds (the 23 hooks of the paper's Table 2, grouped
 * into the 21 selective-instrumentation categories of Figures 8/9 plus
 * `start`), and HookSet, the bitmask used for selective
 * instrumentation (paper §2.4.2).
 */

#ifndef WASABI_CORE_HOOK_KIND_H
#define WASABI_CORE_HOOK_KIND_H

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "wasm/opcode.h"

namespace wasabi::core {

/**
 * The selective-instrumentation categories. The declaration order is
 * exactly the x-axis order of Figures 8 and 9 in the paper, so the
 * benches can iterate over it directly.
 *
 * `Call` covers both the call_pre and call_post high-level hooks (and
 * both direct and indirect calls); `Begin`/`End` cover all block
 * kinds; `If` is the condition-observing hook of the `if` instruction
 * (its block entry/exit is covered by Begin/End).
 */
enum class HookKind : uint8_t {
    Nop = 0,
    Unreachable,
    MemorySize,
    MemoryGrow,
    Select,
    Drop,
    Load,
    Store,
    Call,
    Return,
    Const,
    Unary,
    Binary,
    Global,
    Local,
    Begin,
    End,
    If,
    Br,
    BrIf,
    BrTable,
    Start,
};

inline constexpr int kNumHookKinds = 22;

/** Figure-style name, e.g. "memory_size" or "br_table". */
const char *name(HookKind kind);

/** Hook kind by figure-style name; nullopt if unknown. */
std::optional<HookKind> hookKindByName(const std::string &name);

/** The kinds in Figure 8/9 x-axis order (excludes `start`). */
const std::vector<HookKind> &figureOrderHookKinds();

/**
 * The selective-instrumentation category of an instruction class:
 * which HookKind's presence in the HookSet makes the instrumenter
 * touch instructions of this class (paper §2.4.2). Structural classes
 * map to their primary hook: block/loop map to Begin, end to End, if
 * to If (its Begin/End instrumentation is additionally governed by
 * those kinds), else to End.
 */
std::optional<HookKind> hookKindForClass(wasm::OpClass cls);

/** A set of hook kinds; drives selective instrumentation. */
class HookSet {
  public:
    HookSet() = default;

    HookSet(std::initializer_list<HookKind> kinds)
    {
        for (HookKind k : kinds)
            add(k);
    }

    static HookSet
    all()
    {
        HookSet s;
        s.bits_ = (1u << kNumHookKinds) - 1;
        return s;
    }

    static HookSet none() { return HookSet(); }

    /** Singleton set. */
    static HookSet
    only(HookKind k)
    {
        HookSet s;
        s.add(k);
        return s;
    }

    void add(HookKind k) { bits_ |= bit(k); }
    void remove(HookKind k) { bits_ &= ~bit(k); }

    bool has(HookKind k) const { return (bits_ & bit(k)) != 0; }
    bool empty() const { return bits_ == 0; }

    HookSet
    operator|(const HookSet &other) const
    {
        HookSet s;
        s.bits_ = bits_ | other.bits_;
        return s;
    }

    HookSet &
    operator|=(const HookSet &other)
    {
        bits_ |= other.bits_;
        return *this;
    }

    bool operator==(const HookSet &other) const = default;

    /** Number of kinds in the set. */
    int count() const;

    /** Comma-separated kind names, for diagnostics. */
    std::string toString() const;

  private:
    static uint32_t
    bit(HookKind k)
    {
        return 1u << static_cast<uint8_t>(k);
    }

    uint32_t bits_ = 0;
};

/**
 * A hook list as `--hooks=` and serve's "hooks" field spell it: ""
 * and "all" mean every kind, anything else is comma-separated kind
 * names (hookKindByName). An empty segment ("load,") or an unknown
 * name returns nullopt and sets @p error.
 */
std::optional<HookSet> parseHookSet(const std::string &spec,
                                    std::string *error);

/** The kinds of blocks begin/end hooks distinguish (paper Table 2). */
enum class BlockKind : uint8_t {
    Function = 0,
    Block,
    Loop,
    If,
    Else,
};

/** Name, e.g. "function" or "loop". */
const char *name(BlockKind kind);

} // namespace wasabi::core

#endif // WASABI_CORE_HOOK_KIND_H
