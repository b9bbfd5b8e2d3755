/**
 * @file
 * Translation of flat wasm function bodies into the fast engine's
 * pre-decoded FInstr format (see code.h for the format itself).
 *
 * The translator is a single forward pass that mirrors a validator:
 * it tracks the static operand-stack height, a control-frame stack,
 * and reachability, resolving every branch to an absolute code index,
 * a carried-value count and an absolute unwind slot. Alongside, it
 * computes the batched accounting (`charge`) of every charge point so
 * that fuel and ExecStats behave exactly like the legacy walker's
 * per-dispatch accounting on every path — including the paths the
 * legacy walker takes implicitly (an `if` with a false condition
 * dispatches the `end`; falling out of a then-branch dispatches both
 * `else` and `end`; a branch to the function label exits without
 * dispatching anything else).
 *
 * Invariant: the pending (not yet charged) instruction count is zero
 * on every edge into a join point, so a charge can never depend on
 * which path reached it. Fallthrough edges flush through synthetic
 * Charge ops that branch edges jump over.
 *
 * Structurally invalid bodies (operand underflow, out-of-range
 * indices, unbalanced blocks) fail translation with an InternalError
 * trap; the legacy engine would hit undefined behavior on them.
 */

#include <optional>
#include <string>
#include <utility>

#include "core/control_stack.h"
#include "core/static_info.h"
#include "interp/engine/code.h"
#include "interp/numerics.h"
#include "interp/trap.h"

namespace wasabi::interp::engine {

using wasm::Instr;
using wasm::OpClass;
using wasm::Opcode;
using wasm::Value;
using wasm::ValType;

namespace {

/** Fixups may patch either a code slot or a br_table pool entry. */
constexpr uint32_t kPoolFixupBit = 0x80000000u;

/** Flush batched charges before they can overflow the u16 field. */
constexpr uint32_t kChargeFlushLimit = 0xFFF0;

/** One open control construct during translation. */
struct CtrlFrame {
    enum Kind : uint8_t { Func, Block, Loop, If } kind = Block;
    uint32_t brArity = 0;     ///< values a branch to this label carries
    uint32_t resultArity = 0; ///< values left on the stack after `end`
    uint32_t entryHeight = 0; ///< operand height at entry (cond popped)
    uint32_t loopTarget = 0;  ///< Loop: absolute back-edge target
    bool enteredReachable = true;
    bool hasElse = false;
    bool thenJumped = false;  ///< If: then-path emitted a Jump at `else`
    uint32_t falseFixup = UINT32_MAX; ///< If: BrIfNot awaiting a target
    uint32_t thenJumpPos = UINT32_MAX;
    /** Forward branches to this label (bit 31 set: pool index). */
    std::vector<uint32_t> fixups;
    /** Source-block identity, tracked only in intrinsic-hook mode so
     * branch sites can report their targets and the blocks they end
     * (DESIGN.md §12):
     * the instrumenter's own frame, whose kind flips If -> Else at
     * `else`. */
    core::ControlFrame src;
};

class Translator {
  public:
    Translator(const wasm::Module &module, uint32_t func_idx,
               const CompiledModule &cm)
        : m_(module), funcIdx_(func_idx), cm_(cm),
          hooks_(cm.intrinsicHooks()), counted_(cm.countedHooks()),
          intr_(!hooks_.empty())
    {
    }

    CompiledFunction
    run()
    {
        const wasm::Function &func = m_.functions.at(funcIdx_);
        if (func.imported())
            fail("imported function has no body to translate");
        const wasm::FuncType &type = m_.funcType(funcIdx_);

        out_.numParams = static_cast<uint32_t>(type.params.size());
        out_.numLocals =
            out_.numParams + static_cast<uint32_t>(func.locals.size());
        out_.resultArity = static_cast<uint32_t>(type.results.size());
        for (ValType t : func.locals)
            out_.localInit.push_back(Value::zero(t));

        CtrlFrame root;
        root.kind = CtrlFrame::Func;
        root.brArity = out_.resultArity;
        root.resultArity = out_.resultArity;
        if (intr_) {
            matches_ = core::matchBlocks(func.body);
            root.src.endIdx =
                func.body.empty()
                    ? 0
                    : static_cast<uint32_t>(func.body.size() - 1);
        }
        frames_.push_back(std::move(root));

        // Function-entry hooks (rewrite mode injects them as the first
        // calls of the body; same position, same locations here).
        if (intr_) {
            if (hk(core::HookKind::Start) && m_.start &&
                *m_.start == funcIdx_) {
                HookSite s;
                s.kind = core::HookKind::Start;
                s.loc = {funcIdx_, core::kFunctionEntry};
                hookSite(std::move(s), 0);
            }
            if (hk(core::HookKind::Begin)) {
                HookSite s;
                s.kind = core::HookKind::Begin;
                s.block = core::BlockKind::Function;
                s.loc = {funcIdx_, core::kFunctionEntry};
                hookSite(std::move(s), 0);
            }
        }

        // Translate until the body ends or the function frame closes
        // (the legacy walker returns at the final `end`; trailing
        // instructions, which a decoder never produces, are equally
        // never executed).
        for (uint32_t i = 0; i < func.body.size(); ++i) {
            if (frames_.empty())
                break;
            instrIdx_ = i; // hook sites record it as their location
            translateOne(func.body[i]);
        }
        if (!frames_.empty()) {
            // Builder-made body without a terminating `end`: the
            // legacy walker falls out of its loop, charging nothing
            // for the implicit exit.
            if (frames_.size() != 1)
                fail("unclosed blocks at end of body");
            closeFunction(/*end_charged=*/false);
        }
        bindCounters();
        out_.compiled = true;
        return std::move(out_);
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw Trap(TrapKind::InternalError,
                   "cannot translate function " +
                       std::to_string(funcIdx_) + ": " + what);
    }

    // --- static operand-stack tracking -----------------------------

    void
    push(uint32_t n = 1)
    {
        height_ += n;
        if (height_ > out_.maxOperand)
            out_.maxOperand = height_;
    }

    void
    pop(uint32_t n = 1)
    {
        if (height_ < n)
            fail("operand stack underflow");
        height_ -= n;
    }

    // --- code emission and charge accounting -----------------------

    /** Append a slot and fuse it into the tail where a form applies;
     * returns the index of the slot now holding it. */
    uint32_t
    emit(FOp op, uint8_t aux = 0, uint16_t charge = 0, uint32_t a = 0,
         uint64_t b = 0)
    {
        out_.code.push_back(FInstr{op, aux, charge, a, b});
        fuseTail();
        return static_cast<uint32_t>(out_.code.size() - 1);
    }

    /** Bind a branch target at the current end of code: returns its
     * index and raises the fusion floor (invariant 1 below). */
    uint32_t
    bindLabel()
    {
        fuseFloor_ = static_cast<uint32_t>(out_.code.size());
        return fuseFloor_;
    }

    // --- superinstructions (DESIGN.md §9) ---------------------------
    //
    // Peephole fusion over the tail of `code`, run after every emit:
    // while the last two slots match a form, they become one. The
    // invariants, each enforced where marked:
    //  1. No fusion across a branch target (fuseTail).
    //  2. Hook, HookStash and Count slots are never fused: no form
    //     names them (fusePair), so hooked code translates exactly as
    //     unfused.
    //  3. Only the last op of a fused sequence may be a charge point;
    //     the fused slot carries its charge (fuseTail).
    //  4. Absorbed slots are pure ops, so no recorded slot index
    //     (branch fixups, falseFixup, thenJumpPos) ever moves: those
    //     are taken from emit's return, after fusion (fusePair).
    //  5. i32 arithmetic wraps as unfused; an add-then-load never folds
    //     its constant into the memarg offset (engine.cc VM_LOAD).
    //  6. A fused branch carries and unwinds nothing
    //     (jumpsWithoutUnwind).
    //  7. FInstr stays 16 bytes (code.h static_assert).

    void
    fuseTail()
    {
        std::vector<FInstr> &code = out_.code;
        // Invariant 1: the pair (n-2, n-1) fuses only if no label is
        // bound at n-1, i.e. the floor is at most n-2. A label at n-2
        // is the start of the fused slot, so its branches still run
        // the whole sequence. (Every label is today preceded by a
        // Charge or a transfer, which no form absorbs; the floor keeps
        // that a local rule rather than a coincidence.)
        while (code.size() >= 2 && code.size() - 2 >= fuseFloor_) {
            FInstr &x = code[code.size() - 2];
            const FInstr &y = code.back();
            // Invariant 3: the absorbed first op is never a charge
            // point; the fused slot takes the last op's charge.
            if (x.charge != 0)
                return;
            std::optional<FInstr> f = fusePair(x, y);
            if (!f)
                return;
            f->charge = y.charge;
            x = *f;
            code.pop_back();
        }
    }

    static bool
    isI32Const(const FInstr &x)
    {
        return x.op == FOp::Const &&
               x.aux == static_cast<uint8_t>(ValType::I32);
    }

    static uint64_t
    pack(uint32_t lo, uint32_t hi)
    {
        return lo | static_cast<uint64_t>(hi) << 32;
    }

    /** Invariant 6: a branch may fuse only when taking it is a plain
     * jump — it carries no values and the operand stack is already at
     * the target's entry height (its unwind slot). */
    bool
    jumpsWithoutUnwind(const FInstr &br) const
    {
        return br.aux == 0 && br.b == out_.numLocals + height_;
    }

    /** The superinstruction standing for @p x followed by @p y, if a
     * form exists. Every @p x a form accepts is a pure op or a fused
     * form of pure ops (invariants 2 and 4). */
    std::optional<FInstr>
    fusePair(const FInstr &x, const FInstr &y) const
    {
        // Mul-add: the arithmetic of an array index.
        if (y.op == FOp::I32AddImm && x.op == FOp::I32MulImm)
            return FInstr{FOp::I32MulAddImm, 0, 0, x.a, y.a};
        if (y.op == FOp::I32AddImm && x.op == FOp::I32MulLocalImm)
            return FInstr{FOp::I32MulAddLocalImm, 0, 0, x.a,
                          pack(static_cast<uint32_t>(x.b), y.a)};
        switch (y.op) {
#define WASABI_FUSE_BIN(X_, name, expr)                                 \
          case FOp::name:                                               \
            if (isI32Const(x))                                          \
                return FInstr{FOp::name##Imm, 0, 0,                     \
                              static_cast<uint32_t>(x.b), 0};           \
            if (x.op == FOp::LocalGet)                                  \
                return FInstr{FOp::name##Local, 0, 0, x.a, 0};          \
            return std::nullopt;                                        \
          case FOp::name##Imm:                                          \
            if (x.op == FOp::LocalGet)                                  \
                return FInstr{FOp::name##LocalImm, 0, 0, x.a, y.a};     \
            return std::nullopt;
            WASABI_ENGINE_I32_ARITH(WASABI_FUSE_BIN, _)
            WASABI_ENGINE_I32_CMP(WASABI_FUSE_BIN, _)
#undef WASABI_FUSE_BIN
          case FOp::BrIf:
            if (!jumpsWithoutUnwind(y))
                return std::nullopt;
            switch (x.op) {
#define WASABI_FUSE_BRIF(X_, name, expr)                                \
              case FOp::name##LocalImm:                                 \
                return FInstr{FOp::name##BrIf, 0, 0, y.a,               \
                              pack(static_cast<uint32_t>(x.b), x.a)};
                WASABI_ENGINE_I32_CMP(WASABI_FUSE_BRIF, _)
#undef WASABI_FUSE_BRIF
              default:
                return std::nullopt;
            }
#define WASABI_FUSE_LOAD(X_, name, ...)                                 \
          case FOp::name:                                               \
            if (x.op == FOp::I32AddImm)                                 \
                return FInstr{FOp::name##AddImm, 0, 0, y.a, x.a};       \
            return std::nullopt;
            WASABI_ENGINE_LOADS(WASABI_FUSE_LOAD, _)
#undef WASABI_FUSE_LOAD
          case FOp::LocalSet:
            if (x.op == FOp::I32AddLocalImm)
                return FInstr{FOp::I32AddLocalImmSet, 0, 0, x.a,
                              pack(static_cast<uint32_t>(x.b), y.a)};
            return std::nullopt;
          case FOp::Br:
            if (x.op == FOp::I32AddLocalImmSet &&
                static_cast<uint32_t>(x.b >> 32) == x.a &&
                jumpsWithoutUnwind(y))
                return FInstr{FOp::I32IncBr, 0, 0, y.a, x.b};
            return std::nullopt;
          default:
            return std::nullopt;
        }
    }

    /** A batched instruction retires: charged at the next charge
     * point. Flushes early so the u16 charge field cannot overflow. */
    void
    batch()
    {
        if (++pending_ >= kChargeFlushLimit)
            flushPending();
    }

    /** Emit a synthetic Charge for the accumulated batch, if any. */
    void
    flushPending()
    {
        if (pending_ != 0) {
            emit(FOp::Charge, 0, static_cast<uint16_t>(pending_));
            pending_ = 0;
        }
    }

    /** Charge of a real charge-point instruction: the batch plus the
     * instruction itself. */
    uint16_t
    takeCharge()
    {
        uint32_t c = pending_ + 1;
        pending_ = 0;
        return static_cast<uint16_t>(c);
    }

    /** Charge of a synthetic op standing in for already-counted
     * instructions (the Jump emitted at `else`). */
    uint16_t
    takeFlush()
    {
        uint32_t c = pending_;
        pending_ = 0;
        return static_cast<uint16_t>(c);
    }

    void
    bind(std::vector<uint32_t> &fixups, uint32_t target)
    {
        for (uint32_t f : fixups) {
            if (f & kPoolFixupBit)
                out_.tablePool[f & ~kPoolFixupBit].pc = target;
            else
                out_.code[f].a = target;
        }
        fixups.clear();
    }

    // --- intrinsic hook emission (DESIGN.md §12) --------------------

    bool hk(core::HookKind k) const { return intr_ && hooks_.has(k); }

    /** Whether @p s compiles to a counter probe: its kind is counted,
     * and so are the End hooks of a branch site. */
    bool
    counts(const HookSite &s) const
    {
        using core::HookKind;
        const bool endsBlocks =
            hooks_.has(HookKind::End) &&
            (s.kind == HookKind::Br || s.kind == HookKind::BrIf ||
             s.kind == HookKind::BrTable || s.kind == HookKind::Return);
        if (endsBlocks && !counted_.has(HookKind::End))
            return false;
        return counted_.has(s.kind);
    }

    /** Append a hook site and its dispatch slot: FOp::Hook, or a
     * counter probe (FOp::Count, FOp::CountCond by outcome) for a
     * counted site. The charge flushes the batch accumulated *before*
     * the hooked instruction, so a sink reading counters observes
     * exact retired counts. */
    void
    hookSite(HookSite site, uint16_t charge)
    {
        const uint32_t idx = static_cast<uint32_t>(out_.hookSites.size());
        if (counts(site)) {
            uint32_t outcomes = 1;
            if (site.kind == core::HookKind::If ||
                site.kind == core::HookKind::BrIf)
                outcomes = 2;
            else if (site.kind == core::HookKind::BrTable)
                outcomes =
                    static_cast<uint32_t>(site.table->cases.size() + 1);
            const uint32_t first =
                static_cast<uint32_t>(out_.counters.size());
            out_.counters.resize(first + outcomes);
            out_.countedSites.push_back({idx, first, outcomes});
            out_.hookSites.push_back(std::move(site));
            // The operands name the counter by index until
            // bindCounters() turns it into its address.
            if (outcomes == 1)
                emit(FOp::Count, 0, charge, 0, first);
            else
                emit(FOp::CountCond, 0, charge, outcomes - 1, first);
            return;
        }
        // The VM appends the live result to the stash: both must fit
        // its three-slot capture buffer.
        if (site.stash != 0 && site.stash + site.peek > 3)
            fail("hook site needs more than three stashed values");
        out_.hookSites.push_back(std::move(site));
        emit(FOp::Hook, 0, charge, idx);
    }

    /** Point each counter probe at its counter, once `counters` has
     * its final size: the VM bumps it with no lookup. The address
     * stays valid as the CompiledFunction moves (the vector's storage
     * moves with it) and is never resized after translation. */
    void
    bindCounters()
    {
        for (FInstr &in : out_.code) {
            if (in.op == FOp::Count || in.op == FOp::CountCond)
                in.b = reinterpret_cast<uintptr_t>(&out_.counters[in.b]);
        }
    }

    /** Capture the top @p n operand values into the VM's stash, for a
     * hook of @p kind that must observe values the instruction
     * consumes. A counted kind observes none. */
    void
    stashTop(core::HookKind kind, uint8_t n)
    {
        if (!counted_.has(kind))
            emit(FOp::HookStash, n);
    }

    /** Record the source identity of a block being opened at the
     * current instruction (intrinsic mode only). */
    void
    setSrcBlock(CtrlFrame &f, core::BlockKind kind)
    {
        if (!intr_)
            return;
        f.src.kind = kind;
        f.src.beginIdx = instrIdx_;
        f.src.endIdx = matches_[instrIdx_].endIdx;
        f.src.elseIdx = matches_[instrIdx_].elseIdx;
    }

    /** The source frame a branch to @p label targets. */
    const core::ControlFrame &
    srcFrame(uint32_t label)
    {
        if (label >= frames_.size())
            fail("branch label out of range");
        return frames_[frames_.size() - 1 - label].src;
    }

    /** Resolve a br/br_if site's target (paper §2.4.4). */
    void
    resolveBranch(HookSite &s, uint32_t label)
    {
        s.index = label;
        s.target = srcFrame(label).branchTargetIdx();
    }

    /** The labels of br_table @p ins, default last. */
    std::span<const uint32_t>
    labels(const Instr &ins) const
    {
        return m_.functions[funcIdx_].labels(ins);
    }

    /** Build (and own) the side table of br_table @p ins, resolved
     * from the open frames as the instrumenter records it. */
    const core::BrTableInfo *
    brTableInfo(const Instr &ins)
    {
        std::vector<core::BrTableEntry> entries;
        for (uint32_t label : labels(ins)) {
            core::BrTableEntry e;
            e.target = core::BranchTarget{
                label,
                core::Location{funcIdx_, srcFrame(label).branchTargetIdx()}};
            e.ended = traversedSrc(label);
            entries.push_back(std::move(e));
        }
        if (entries.empty())
            fail("br_table without a default label");
        out_.brTables.push_back(std::make_unique<core::BrTableInfo>(
            core::BrTableInfo::fromEntries(std::move(entries))));
        return out_.brTables.back().get();
    }

    /** Keep the blocks a branch site ends in the function's storage
     * and return the site's view of them. */
    std::span<const core::EndedBlock>
    siteEnded(uint32_t label)
    {
        out_.endedLists.push_back(traversedSrc(label));
        return out_.endedLists.back();
    }

    /** Blocks a branch to @p label traverses, innermost first, both
     * endpoints inclusive (paper §2.4.5). */
    std::vector<core::EndedBlock>
    traversedSrc(uint32_t label) const
    {
        std::vector<core::EndedBlock> ended;
        for (uint32_t i = 0; i <= label && i < frames_.size(); ++i)
            ended.push_back(core::endedBlock(
                funcIdx_, frames_[frames_.size() - 1 - i].src));
        return ended;
    }

    /** End hook of frame @p f at the current `end` instruction; fires
     * on the fallthrough path only (branch edges land past it, having
     * fired their end hooks at the branch site). */
    void
    emitEndHook(const CtrlFrame &f)
    {
        HookSite s;
        s.kind = core::HookKind::End;
        s.block = f.src.kind;
        s.loc = {funcIdx_, instrIdx_};
        s.index = f.src.regionBegin();
        hookSite(std::move(s), takeFlush());
    }

    // --- control constructs ----------------------------------------

    static uint32_t
    blockArity(const Instr &ins)
    {
        return ins.block() ? 1u : 0u;
    }

    void
    doBlock(const Instr &ins)
    {
        CtrlFrame f;
        f.kind = CtrlFrame::Block;
        f.brArity = f.resultArity = blockArity(ins);
        f.entryHeight = height_;
        f.enteredReachable = reachable_;
        setSrcBlock(f, core::BlockKind::Block);
        if (reachable_) {
            batch(); // the `block` opcode is dispatched
            if (hk(core::HookKind::Begin)) {
                HookSite s;
                s.kind = core::HookKind::Begin;
                s.block = core::BlockKind::Block;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
        }
        frames_.push_back(std::move(f));
    }

    void
    doLoop(const Instr &ins)
    {
        CtrlFrame f;
        f.kind = CtrlFrame::Loop;
        f.brArity = 0;
        f.resultArity = blockArity(ins);
        f.entryHeight = height_;
        f.enteredReachable = reachable_;
        setSrcBlock(f, core::BlockKind::Loop);
        if (reachable_) {
            batch();        // the `loop` opcode is dispatched on entry
            flushPending(); // back edges must not re-charge it
            f.loopTarget = bindLabel();
            if (hk(core::HookKind::Begin)) {
                // Inside the loop target: the begin hook re-fires on
                // every back edge, as rewrite mode's injected call
                // (placed after the `loop` opcode) does.
                HookSite s;
                s.kind = core::HookKind::Begin;
                s.block = core::BlockKind::Loop;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), 0);
            }
        }
        frames_.push_back(std::move(f));
    }

    void
    doIf(const Instr &ins)
    {
        CtrlFrame f;
        f.kind = CtrlFrame::If;
        f.brArity = f.resultArity = blockArity(ins);
        f.enteredReachable = reachable_;
        setSrcBlock(f, core::BlockKind::If);
        if (reachable_) {
            if (hk(core::HookKind::If)) {
                // Observes the condition before the `if` consumes it.
                HookSite s;
                s.kind = core::HookKind::If;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            pop(1); // condition
            f.entryHeight = height_;
            // False edge target patched at `else` or `end`.
            f.falseFixup = emit(FOp::BrIfNot, 0, takeCharge());
            if (hk(core::HookKind::Begin)) {
                // True path only; the false edge jumps past it.
                HookSite s;
                s.kind = core::HookKind::Begin;
                s.block = core::BlockKind::If;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), 0);
            }
        } else {
            f.entryHeight = height_;
        }
        frames_.push_back(std::move(f));
    }

    void
    doElse()
    {
        if (frames_.size() < 2 || frames_.back().kind != CtrlFrame::If)
            fail("else outside if");
        CtrlFrame &f = frames_.back();
        if (f.hasElse)
            fail("duplicate else");
        f.hasElse = true;
        if (reachable_ && f.enteredReachable) {
            // Falling out of the then-branch, the legacy walker
            // dispatches the `else` (one charge) and then re-dispatches
            // the matching `end` (another). The Jump carries the then
            // body + `else`; it lands on the shared end Charge(1).
            if (height_ != f.entryHeight + f.resultArity)
                fail("then branch height mismatch at else");
            if (hk(core::HookKind::End)) {
                // Exiting the then-region: its end hook fires before
                // the `else`, on the fallthrough path only.
                HookSite s;
                s.kind = core::HookKind::End;
                s.block = core::BlockKind::If;
                s.loc = {funcIdx_, instrIdx_};
                s.index = f.src.beginIdx;
                hookSite(std::move(s), takeFlush());
            }
            batch(); // the `else` instruction
            f.thenJumped = true;
            f.thenJumpPos = emit(FOp::Jump, 0, takeFlush());
        }
        reachable_ = f.enteredReachable;
        height_ = f.entryHeight;
        pending_ = 0;
        if (intr_)
            f.src.kind = core::BlockKind::Else;
        if (f.enteredReachable) {
            // False edge of the lowered `if` enters the else body
            // directly (the `else` opcode is not dispatched on it).
            out_.code[f.falseFixup].a = bindLabel();
            f.falseFixup = UINT32_MAX;
            if (hk(core::HookKind::Begin)) {
                // Begin(Else) fires on the false edge, which lands
                // here; the then-path Jump skips past it to the end.
                HookSite s;
                s.kind = core::HookKind::Begin;
                s.block = core::BlockKind::Else;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), 0);
            }
        }
    }

    void
    closeFunction(bool end_charged)
    {
        CtrlFrame f = std::move(frames_.back());
        frames_.pop_back();
        if (reachable_) {
            if (end_charged && hk(core::HookKind::End)) {
                // Function-frame end hook, fallthrough path only
                // (branches to the function label fired theirs at the
                // branch site and land on the FrameExit pad below).
                HookSite s;
                s.kind = core::HookKind::End;
                s.block = core::BlockKind::Function;
                s.loc = {funcIdx_, instrIdx_};
                s.index = core::kFunctionEntry;
                hookSite(std::move(s), takeFlush());
            }
            // The final `end` is dispatched (and charged) only when
            // execution falls into it; the height check replaces the
            // old debug-only assert.
            uint32_t c = pending_ + (end_charged ? 1u : 0u);
            pending_ = 0;
            emit(FOp::End, static_cast<uint8_t>(out_.resultArity),
                 static_cast<uint16_t>(c));
        }
        if (!f.fixups.empty()) {
            // Branches to the function label exit without dispatching
            // anything further — a charge-free landing pad.
            uint32_t pad = bindLabel();
            emit(FOp::FrameExit, static_cast<uint8_t>(out_.resultArity),
                 0);
            bind(f.fixups, pad);
        }
        reachable_ = false;
    }

    void
    doEnd()
    {
        if (frames_.size() == 1) {
            closeFunction(/*end_charged=*/true);
            return;
        }
        CtrlFrame f = std::move(frames_.back());
        frames_.pop_back();
        bool fell = reachable_ && f.enteredReachable;
        if (fell && height_ != f.entryHeight + f.resultArity)
            fail("block height mismatch at end");

        if (fell && hk(core::HookKind::End) && f.kind != CtrlFrame::If)
            emitEndHook(f);

        switch (f.kind) {
          case CtrlFrame::Loop:
            // Forward fixups cannot target a loop label; the `end` is
            // dispatched only on fallthrough, so batching continues.
            if (fell)
                batch();
            reachable_ = fell;
            break;
          case CtrlFrame::Block:
            if (fell)
                batch(); // the `end`, dispatched on fallthrough only
            if (!f.fixups.empty()) {
                // Branch edges land *after* the end (legacy cont =
                // endIdx + 1), so flush the fallthrough batch first.
                flushPending();
                bind(f.fixups, bindLabel());
                reachable_ = true;
            } else {
                reachable_ = fell;
            }
            break;
          case CtrlFrame::If:
            doIfEnd(f, fell);
            break;
          case CtrlFrame::Func:
            fail("unbalanced end");
        }
        height_ = f.entryHeight + f.resultArity;
    }

    void
    doIfEnd(CtrlFrame &f, bool fell)
    {
        if (!f.enteredReachable) {
            reachable_ = false;
            return;
        }
        if (!f.hasElse) {
            // The false edge of the lowered `if` jumps straight to the
            // `end`, which the legacy walker dispatches on both paths.
            // The fallthrough-only end hook sits before the shared
            // Charge; the false edge (and branches) skip it, exactly
            // like the injected call rewrite mode places before `end`.
            if (fell) {
                if (hk(core::HookKind::End))
                    emitEndHook(f);
                flushPending();
            }
            uint32_t end_pos = bindLabel();
            emit(FOp::Charge, 0, 1);
            out_.code[f.falseFixup].a = end_pos;
            bind(f.fixups, bindLabel());
            reachable_ = true;
            return;
        }
        if (f.thenJumped) {
            // Then-path arrives via its Jump (which already covered
            // the `else`); the false path falls through the else body.
            // Both still dispatch the `end`: one shared Charge(1).
            if (fell) {
                if (hk(core::HookKind::End))
                    emitEndHook(f); // ends the else-region only
                flushPending();
            }
            uint32_t end_pos = bindLabel();
            emit(FOp::Charge, 0, 1);
            out_.code[f.thenJumpPos].a = end_pos;
            bind(f.fixups, bindLabel());
            reachable_ = true;
            return;
        }
        // Then-path never reaches the end; only the else fallthrough
        // (and explicit branches) do.
        if (fell) {
            if (hk(core::HookKind::End))
                emitEndHook(f);
            batch(); // the `end`
            if (!f.fixups.empty()) {
                flushPending();
                bind(f.fixups, bindLabel());
            }
            reachable_ = true;
        } else if (!f.fixups.empty()) {
            bind(f.fixups, bindLabel());
            reachable_ = true;
        } else {
            reachable_ = false;
        }
    }

    // --- branches --------------------------------------------------

    CtrlFrame &
    frameOf(uint32_t label)
    {
        if (label >= frames_.size())
            fail("branch label out of range");
        return frames_[frames_.size() - 1 - label];
    }

    void
    emitBranch(FOp op, uint32_t label)
    {
        CtrlFrame &f = frameOf(label);
        uint32_t keep = f.brArity;
        if (height_ < f.entryHeight + keep)
            fail("branch below label height");
        uint64_t slot = out_.numLocals + f.entryHeight;
        uint32_t pos = emit(op, static_cast<uint8_t>(keep), takeCharge(),
                            0, slot);
        if (f.kind == CtrlFrame::Loop)
            out_.code[pos].a = f.loopTarget;
        else
            f.fixups.push_back(pos);
    }

    void
    doBrTable(const Instr &ins)
    {
        pop(1); // selector
        std::span<const uint32_t> targets = labels(ins);
        if (targets.empty())
            fail("br_table without targets");
        uint32_t start = static_cast<uint32_t>(out_.tablePool.size());
        for (uint32_t label : targets) {
            CtrlFrame &f = frameOf(label);
            uint32_t keep = f.brArity;
            if (height_ < f.entryHeight + keep)
                fail("branch below label height");
            BrTarget t;
            t.keep = keep;
            t.slot = out_.numLocals + f.entryHeight;
            uint32_t pool_idx =
                static_cast<uint32_t>(out_.tablePool.size());
            if (f.kind == CtrlFrame::Loop)
                t.pc = f.loopTarget;
            else
                f.fixups.push_back(pool_idx | kPoolFixupBit);
            out_.tablePool.push_back(t);
        }
        emit(FOp::BrTable, 0, takeCharge(), start, targets.size());
    }

    // --- calls -----------------------------------------------------

    void
    doCall(uint32_t callee)
    {
        if (callee >= m_.functions.size())
            fail("call to out-of-range function");
        const wasm::FuncType &t = m_.funcType(callee);
        emitCallPreHook(t, /*indirect=*/false, callee);
        pop(static_cast<uint32_t>(t.params.size()));
        if (m_.functions[callee].imported()) {
            emit(FOp::CallHost, static_cast<uint8_t>(t.results.size()),
                 takeCharge(), callee, t.params.size());
        } else {
            emit(FOp::Call, 0, takeCharge(), callee);
        }
        push(static_cast<uint32_t>(t.results.size()));
        emitCallPostHook(t);
    }

    void
    doCallIndirect(uint32_t type_idx)
    {
        if (type_idx >= m_.types.size())
            fail("call_indirect to out-of-range type");
        const wasm::FuncType &t = m_.types[type_idx];
        emitCallPreHook(t, /*indirect=*/true, 0);
        pop(1); // table index
        pop(static_cast<uint32_t>(t.params.size()));
        emit(FOp::CallIndirect, static_cast<uint8_t>(t.results.size()),
             takeCharge(), cm_.canonicalType(type_idx), t.params.size());
        push(static_cast<uint32_t>(t.results.size()));
        emitCallPostHook(t);
    }

    /** call_pre: observes the arguments (and the table index for an
     * indirect call) in place on the stack, before the transfer. A
     * direct call's site carries its @p callee. */
    void
    emitCallPreHook(const wasm::FuncType &t, bool indirect,
                    uint32_t callee)
    {
        if (!hk(core::HookKind::Call))
            return;
        HookSite s;
        s.kind = core::HookKind::Call;
        s.indirect = indirect;
        s.index = callee;
        s.peek = static_cast<uint8_t>(t.params.size() +
                                      (indirect ? 1 : 0));
        s.loc = {funcIdx_, instrIdx_};
        hookSite(std::move(s), takeFlush());
    }

    /** call_post: observes the results, after the callee returned. */
    void
    emitCallPostHook(const wasm::FuncType &t)
    {
        if (!hk(core::HookKind::Call))
            return;
        HookSite s;
        s.kind = core::HookKind::Call;
        s.post = true;
        s.peek = static_cast<uint8_t>(t.results.size());
        s.loc = {funcIdx_, instrIdx_};
        hookSite(std::move(s), 0);
    }

    // --- memory ----------------------------------------------------

    void
    doLoad(const Instr &ins)
    {
        const bool hooked = hk(core::HookKind::Load);
        if (hooked)
            stashTop(core::HookKind::Load, 1); // the address, consumed
        pop(1);
        uint32_t off = ins.imm.mem.offset;
        switch (ins.op) {
          case Opcode::I32Load:
            emit(FOp::I32Load, 0, takeCharge(), off);
            break;
          case Opcode::I64Load:
            emit(FOp::I64Load, 0, takeCharge(), off);
            break;
          case Opcode::F32Load:
            emit(FOp::F32Load, 0, takeCharge(), off);
            break;
          case Opcode::F64Load:
            emit(FOp::F64Load, 0, takeCharge(), off);
            break;
          default:
            emit(FOp::LoadExt, static_cast<uint8_t>(ins.op),
                 takeCharge(), off, wasm::memAccessBytes(ins.op));
            break;
        }
        push(1);
        if (hooked) {
            // After the access, as in rewrite mode: dyn=(addr, value).
            HookSite s;
            s.kind = core::HookKind::Load;
            s.op = ins.op;
            s.index = off;
            s.peek = 1;  // loaded value
            s.stash = 1; // address
            s.loc = {funcIdx_, instrIdx_};
            hookSite(std::move(s), 0);
        }
    }

    void
    doStore(const Instr &ins)
    {
        const bool hooked = hk(core::HookKind::Store);
        if (hooked)
            stashTop(core::HookKind::Store, 2); // [addr, value], consumed
        pop(2);
        uint32_t off = ins.imm.mem.offset;
        switch (ins.op) {
          case Opcode::I32Store:
            emit(FOp::I32Store, 0, takeCharge(), off);
            break;
          case Opcode::I64Store:
            emit(FOp::I64Store, 0, takeCharge(), off);
            break;
          case Opcode::F32Store:
            emit(FOp::F32Store, 0, takeCharge(), off);
            break;
          case Opcode::F64Store:
            emit(FOp::F64Store, 0, takeCharge(), off);
            break;
          default:
            emit(FOp::StoreNarrow,
                 static_cast<uint8_t>(wasm::memAccessBytes(ins.op)),
                 takeCharge(), off);
            break;
        }
        if (hooked) {
            HookSite s;
            s.kind = core::HookKind::Store;
            s.op = ins.op;
            s.index = off;
            s.stash = 2;
            s.loc = {funcIdx_, instrIdx_};
            hookSite(std::move(s), 0);
        }
    }

    // --- numerics --------------------------------------------------

    void
    doUnary(Opcode op)
    {
        const bool hooked = hk(core::HookKind::Unary);
        if (hooked)
            stashTop(core::HookKind::Unary, 1); // the input, consumed
        pop(1);
        push(1);
        if (op == Opcode::I32Eqz) {
            emit(FOp::I32Eqz);
            batch();
        } else if (unaryCanTrap(op)) {
            emit(FOp::UnaryTrap, static_cast<uint8_t>(op), takeCharge());
        } else {
            emit(FOp::UnaryPure, static_cast<uint8_t>(op));
            batch();
        }
        if (hooked) {
            // dyn=(input, result), after the op (so not on the trap
            // path of a float->int truncation — same as rewrite).
            HookSite s;
            s.kind = core::HookKind::Unary;
            s.op = op;
            s.peek = 1;
            s.stash = 1;
            s.loc = {funcIdx_, instrIdx_};
            hookSite(std::move(s), takeFlush());
        }
    }

    /** Specialized FOp of a hot pure binary; nullopt = generic. */
    static std::optional<FOp>
    specializedBinary(Opcode op)
    {
        switch (op) {
#define WASABI_SPEC_BIN(X_, name, expr)                                  \
          case Opcode::name: return FOp::name;
            WASABI_ENGINE_I32_ARITH(WASABI_SPEC_BIN, _)
            WASABI_ENGINE_I32_CMP(WASABI_SPEC_BIN, _)
#undef WASABI_SPEC_BIN
          case Opcode::I64Add: return FOp::I64Add;
          case Opcode::F32Add: return FOp::F32Add;
          case Opcode::F32Mul: return FOp::F32Mul;
          case Opcode::F64Add: return FOp::F64Add;
          case Opcode::F64Sub: return FOp::F64Sub;
          case Opcode::F64Mul: return FOp::F64Mul;
          case Opcode::F64Div: return FOp::F64Div;
          default: return std::nullopt;
        }
    }

    void
    doBinary(Opcode op)
    {
        const bool hooked = hk(core::HookKind::Binary);
        if (hooked)
            stashTop(core::HookKind::Binary, 2); // [a, b], consumed
        pop(2);
        push(1);
        if (std::optional<FOp> spec = specializedBinary(op)) {
            emit(*spec);
            batch();
        } else if (binaryCanTrap(op)) {
            emit(FOp::BinaryTrap, static_cast<uint8_t>(op),
                 takeCharge());
        } else {
            emit(FOp::BinaryPure, static_cast<uint8_t>(op));
            batch();
        }
        if (hooked) {
            // dyn=(a, b, result), after the op (not on div-trap paths).
            HookSite s;
            s.kind = core::HookKind::Binary;
            s.op = op;
            s.peek = 1;
            s.stash = 2;
            s.loc = {funcIdx_, instrIdx_};
            hookSite(std::move(s), takeFlush());
        }
    }

    // --- main dispatch ---------------------------------------------

    void
    translateOne(const Instr &ins)
    {
        const wasm::OpInfo &info = wasm::opInfo(ins.op);
        // Structural opcodes are tracked even in unreachable code so
        // frames stay balanced; everything else is skipped there.
        switch (info.cls) {
          case OpClass::Block: doBlock(ins); return;
          case OpClass::Loop: doLoop(ins); return;
          case OpClass::If: doIf(ins); return;
          case OpClass::Else: doElse(); return;
          case OpClass::End: doEnd(); return;
          default: break;
        }
        if (!reachable_)
            return;

        switch (info.cls) {
          case OpClass::Nop:
            batch();
            if (hk(core::HookKind::Nop)) {
                HookSite s;
                s.kind = core::HookKind::Nop;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            break;
          case OpClass::Unreachable:
            if (hk(core::HookKind::Unreachable)) {
                // Before the trapping instruction, as in rewrite mode.
                HookSite s;
                s.kind = core::HookKind::Unreachable;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            emit(FOp::Unreachable, 0, takeCharge());
            reachable_ = false;
            break;
          case OpClass::Br:
            if (hk(core::HookKind::Br) || hk(core::HookKind::End)) {
                HookSite s;
                s.kind = core::HookKind::Br;
                s.loc = {funcIdx_, instrIdx_};
                resolveBranch(s, ins.imm.idx);
                if (hk(core::HookKind::End))
                    s.ended = siteEnded(ins.imm.idx);
                hookSite(std::move(s), takeFlush());
            }
            emitBranch(FOp::Br, ins.imm.idx);
            reachable_ = false;
            break;
          case OpClass::BrIf:
            if (hk(core::HookKind::BrIf) || hk(core::HookKind::End)) {
                // Observes the condition; the sink fires the end
                // hooks only when it is true (the branch is taken).
                HookSite s;
                s.kind = core::HookKind::BrIf;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                resolveBranch(s, ins.imm.idx);
                if (hk(core::HookKind::End))
                    s.ended = siteEnded(ins.imm.idx);
                hookSite(std::move(s), takeFlush());
            }
            pop(1); // condition
            emitBranch(FOp::BrIf, ins.imm.idx);
            break;
          case OpClass::BrTable:
            if (hk(core::HookKind::BrTable) ||
                hk(core::HookKind::End)) {
                // Which label is taken — and thus which blocks end —
                // is only known at runtime; the sink selects from the
                // site's side table (paper §2.4.5).
                HookSite s;
                s.kind = core::HookKind::BrTable;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                s.table = brTableInfo(ins);
                hookSite(std::move(s), takeFlush());
            }
            doBrTable(ins);
            reachable_ = false;
            break;
          case OpClass::Return:
            if (hk(core::HookKind::Return) ||
                hk(core::HookKind::End)) {
                HookSite s;
                s.kind = core::HookKind::Return;
                s.peek = static_cast<uint8_t>(out_.resultArity);
                s.loc = {funcIdx_, instrIdx_};
                if (hk(core::HookKind::End)) {
                    s.ended = siteEnded(
                        static_cast<uint32_t>(frames_.size() - 1));
                }
                hookSite(std::move(s), takeFlush());
            }
            pop(out_.resultArity);
            emit(FOp::Return, static_cast<uint8_t>(out_.resultArity),
                 takeCharge());
            reachable_ = false;
            break;
          case OpClass::Call:
            doCall(ins.imm.idx);
            break;
          case OpClass::CallIndirect:
            doCallIndirect(ins.imm.idx);
            break;
          case OpClass::Drop:
            if (hk(core::HookKind::Drop)) {
                // The hook observes the value the drop discards.
                HookSite s;
                s.kind = core::HookKind::Drop;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            pop(1);
            emit(FOp::Drop);
            batch();
            break;
          case OpClass::Select:
            if (hk(core::HookKind::Select)) {
                // dyn order is (cond, first, second); all three are
                // consumed, so capture them before the select runs
                // (the hook itself fires after, as in rewrite mode).
                // [first, second, cond]
                stashTop(core::HookKind::Select, 3);
                pop(3);
                push(1);
                emit(FOp::Select);
                batch();
                HookSite s;
                s.kind = core::HookKind::Select;
                s.stash = 3;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
                break;
            }
            pop(3);
            push(1);
            emit(FOp::Select);
            batch();
            break;
          case OpClass::LocalGet:
          case OpClass::LocalTee:
            checkLocal(ins.imm.idx);
            if (info.cls == OpClass::LocalTee)
                pop(1);
            emit(info.cls == OpClass::LocalGet ? FOp::LocalGet
                                               : FOp::LocalTee,
                 0, 0, ins.imm.idx);
            push(1);
            batch();
            if (hk(core::HookKind::Local)) {
                // Value observed after the instruction: on the top.
                HookSite s;
                s.kind = core::HookKind::Local;
                s.op = ins.op;
                s.index = ins.imm.idx;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            break;
          case OpClass::LocalSet:
            checkLocal(ins.imm.idx);
            if (hk(core::HookKind::Local))
                stashTop(core::HookKind::Local, 1); // the value set
            pop(1);
            emit(FOp::LocalSet, 0, 0, ins.imm.idx);
            batch();
            if (hk(core::HookKind::Local)) {
                HookSite s;
                s.kind = core::HookKind::Local;
                s.op = ins.op;
                s.index = ins.imm.idx;
                s.stash = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            break;
          case OpClass::GlobalGet:
            checkGlobal(ins.imm.idx);
            emit(FOp::GlobalGet, 0, 0, ins.imm.idx);
            push(1);
            batch();
            if (hk(core::HookKind::Global)) {
                HookSite s;
                s.kind = core::HookKind::Global;
                s.op = ins.op;
                s.index = ins.imm.idx;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            break;
          case OpClass::GlobalSet:
            checkGlobal(ins.imm.idx);
            if (hk(core::HookKind::Global))
                stashTop(core::HookKind::Global, 1);
            pop(1);
            emit(FOp::GlobalSet, 0, takeCharge(), ins.imm.idx);
            if (hk(core::HookKind::Global)) {
                HookSite s;
                s.kind = core::HookKind::Global;
                s.op = ins.op;
                s.index = ins.imm.idx;
                s.stash = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), 0);
            }
            break;
          case OpClass::Load:
            doLoad(ins);
            break;
          case OpClass::Store:
            doStore(ins);
            break;
          case OpClass::MemorySize:
            emit(FOp::MemorySize, 0, takeCharge());
            push(1);
            if (hk(core::HookKind::MemorySize)) {
                HookSite s;
                s.kind = core::HookKind::MemorySize;
                s.peek = 1; // the queried size
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), 0);
            }
            break;
          case OpClass::MemoryGrow:
            if (hk(core::HookKind::MemoryGrow))
                stashTop(core::HookKind::MemoryGrow, 1); // the delta
            pop(1);
            push(1);
            emit(FOp::MemoryGrow, 0, takeCharge());
            if (hk(core::HookKind::MemoryGrow)) {
                HookSite s;
                s.kind = core::HookKind::MemoryGrow;
                s.peek = 1;  // previous size (the result)
                s.stash = 1; // delta
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), 0);
            }
            break;
          case OpClass::Const: {
            Value v = ins.constValue();
            emit(FOp::Const, static_cast<uint8_t>(v.type), 0, 0, v.bits);
            push(1);
            batch();
            if (hk(core::HookKind::Const)) {
                HookSite s;
                s.kind = core::HookKind::Const;
                s.op = ins.op;
                s.peek = 1;
                s.loc = {funcIdx_, instrIdx_};
                hookSite(std::move(s), takeFlush());
            }
            break;
          }
          case OpClass::Unary:
            doUnary(ins.op);
            break;
          case OpClass::Binary:
            doBinary(ins.op);
            break;
          default:
            fail(std::string("untranslatable opcode ") +
                 wasm::name(ins.op));
        }
    }

    void
    checkLocal(uint32_t idx)
    {
        if (idx >= out_.numLocals)
            fail("local index out of range");
    }

    void
    checkGlobal(uint32_t idx)
    {
        if (idx >= m_.globals.size())
            fail("global index out of range");
    }

    const wasm::Module &m_;
    uint32_t funcIdx_;
    uint32_t instrIdx_ = 0; ///< source index of the instr in flight
    const CompiledModule &cm_;
    core::HookSet hooks_; ///< intrinsic hook selection (empty = off)
    core::HookSet counted_; ///< kinds whose sites are counter probes
    bool intr_ = false;   ///< intrinsic instrumentation attached
    std::vector<core::BlockMatch> matches_; ///< block matching (intr_)
    CompiledFunction out_;
    std::vector<CtrlFrame> frames_;
    uint32_t height_ = 0;
    uint32_t pending_ = 0;
    uint32_t fuseFloor_ = 0; ///< first slot fusion may absorb into
    bool reachable_ = true;
};

} // namespace

CompiledFunction
translateFunction(const wasm::Module &module, uint32_t func_idx,
                  const CompiledModule &cm)
{
    return Translator(module, func_idx, cm).run();
}

CompiledModule::CompiledModule(const wasm::Module &module)
    : module_(module)
{
    // Pre-size so lazily translated slots never move while pointers
    // into them are live on the execution frame stack.
    funcs_.resize(module.functions.size());

    // Structural type canonicalization: the id of a type is the index
    // of the first structurally equal type. call_indirect checks then
    // reduce to one integer compare even for modules with duplicate
    // type entries.
    typeCanon_.resize(module.types.size());
    for (uint32_t i = 0; i < module.types.size(); ++i) {
        typeCanon_[i] = i;
        for (uint32_t j = 0; j < i; ++j) {
            if (module.types[j] == module.types[i]) {
                typeCanon_[i] = j;
                break;
            }
        }
    }
    funcTypeCanon_.resize(module.functions.size());
    for (uint32_t i = 0; i < module.functions.size(); ++i) {
        uint32_t t = module.functions[i].typeIdx;
        funcTypeCanon_[i] =
            t < typeCanon_.size() ? typeCanon_[t] : UINT32_MAX;
    }
}

const CompiledFunction &
CompiledModule::function(uint32_t func_idx)
{
    CompiledFunction &f = funcs_.at(func_idx);
    if (!f.compiled) {
        f = translateFunction(module_, func_idx, *this);
        ++translations_;
        if (!f.countedSites.empty())
            counting_.push_back(func_idx);
    }
    return f;
}

} // namespace wasabi::interp::engine
