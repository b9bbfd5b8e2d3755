/**
 * @file
 * The pre-decoded internal code format of the fast execution engine.
 *
 * Each defined function is translated once per instance into a flat
 * array of fixed-size FInstr slots with the control side table fused
 * in: branch targets are absolute code indices, branch arities and
 * operand-stack unwind heights are immediate operands, locals are
 * frame-relative slots, and call_indirect type checks compare
 * pre-canonicalized type ids. No `opInfo()` lookups, label stacks or
 * `byInstr` side-table reads remain at runtime.
 *
 * Fuel and ExecStats accounting is batched: only "charge point" ops
 * (control transfers, calls, and anything that can trap or has
 * effects observable after a trap) carry a non-zero `charge` — the
 * number of source instructions retired since the previous charge
 * point, inclusive. Pure stack ops between charge points execute with
 * zero bookkeeping, yet the accounting stays exactly equivalent to
 * the legacy per-instruction scheme on every path, including
 * mid-block fuel exhaustion (see DESIGN.md §9).
 */

#ifndef WASABI_INTERP_ENGINE_CODE_H
#define WASABI_INTERP_ENGINE_CODE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hook_kind.h"
#include "interp/engine/intrinsic.h"
#include "wasm/module.h"

namespace wasabi::interp::engine {

/**
 * The i32 binary ops, as F(X, name, C expression over uint32_t l and
 * r). One line per op generates its base FOp, its fused forms
 * (WASABI_ENGINE_FUSED_FOPS), their VM handlers (engine.cc) and their
 * translation (translate.cc). The compares also get a
 * compare-and-branch form.
 */
#define WASABI_ENGINE_I32_ARITH(F, X)                                   \
    F(X, I32Add, l + r)                                                 \
    F(X, I32Sub, l - r)                                                 \
    F(X, I32Mul, l * r)                                                 \
    F(X, I32And, l & r)                                                 \
    F(X, I32Or, l | r)                                                  \
    F(X, I32Xor, l ^ r)                                                 \
    F(X, I32Shl, l << (r & 31))                                         \
    F(X, I32ShrS,                                                       \
      static_cast<uint32_t>(static_cast<int32_t>(l) >> (r & 31)))       \
    F(X, I32ShrU, l >> (r & 31))

#define WASABI_ENGINE_I32_CMP(F, X)                                     \
    F(X, I32Eq, l == r)                                                 \
    F(X, I32Ne, l != r)                                                 \
    F(X, I32LtS, static_cast<int32_t>(l) < static_cast<int32_t>(r))     \
    F(X, I32LtU, l < r)                                                 \
    F(X, I32GtS, static_cast<int32_t>(l) > static_cast<int32_t>(r))     \
    F(X, I32GtU, l > r)                                                 \
    F(X, I32LeS, static_cast<int32_t>(l) <= static_cast<int32_t>(r))    \
    F(X, I32LeU, l <= r)                                                \
    F(X, I32GeS, static_cast<int32_t>(l) >= static_cast<int32_t>(r))    \
    F(X, I32GeU, l >= r)

/** The full-width loads, as F(X, name, C type, ValType). */
#define WASABI_ENGINE_LOADS(F, X)                                       \
    F(X, I32Load, uint32_t, I32)                                        \
    F(X, I64Load, uint64_t, I64)                                        \
    F(X, F32Load, uint32_t, F32)                                        \
    F(X, F64Load, uint64_t, F64)

#define WASABI_ENGINE_NAME(X, name, ...) X(name)
#define WASABI_ENGINE_BIN_FORMS(X, name, expr)                          \
    X(name##Imm) X(name##Local) X(name##LocalImm)
#define WASABI_ENGINE_BRIF_FORM(X, name, expr) X(name##BrIf)
#define WASABI_ENGINE_LOAD_FORM(X, name, ...) X(name##AddImm)

/**
 * Internal opcodes, X-macro'd so the computed-goto jump table in
 * engine.cc is generated in lockstep with the enum. Grouped by
 * dispatch shape, not by source opcode.
 */
#define WASABI_ENGINE_FOPS(X)                                           \
    /* accounting & control */                                          \
    X(Charge)      /* flush batched accounting at a join point */       \
    X(Jump)        /* a=target (else -> end) */                         \
    X(Br)          /* a=target, aux=keep, b=unwind slot */              \
    X(BrIf)        /* pop cond; branch if true */                       \
    X(BrIfNot)     /* pop cond; branch if false (lowered `if`) */       \
    X(BrTable)     /* pop idx; a=pool start, b=entry count */           \
    X(Return)      /* aux=result arity */                               \
    X(End)         /* function end: aux=arity, checked frame exit */    \
    X(FrameExit)   /* branch-to-function-label landing pad, no charge */\
    X(Call)        /* a=callee func idx */                              \
    X(CallHost)    /* a=callee func idx, b=param count */               \
    X(CallIndirect) /* a=canonical type id */                           \
    X(Unreachable)                                                      \
    /* engine-intrinsic instrumentation (DESIGN.md §12) */              \
    X(Hook)        /* a=hookSites index; dispatch to the sink */        \
    X(HookStash)   /* aux=count; capture top values into the stash */   \
    X(Count)       /* b=&counter; count a counted hook site */          \
    X(CountCond)   /* b=&first counter, a=last outcome: count the */    \
                   /* site by the i32 on top, clamped to a */           \
    /* parametric & variables */                                        \
    X(Drop)                                                             \
    X(Select)                                                           \
    X(LocalGet)    /* a=slot */                                         \
    X(LocalSet)                                                         \
    X(LocalTee)                                                         \
    X(GlobalGet)   /* a=global idx */                                   \
    X(GlobalSet)                                                        \
    /* memory (all charge points; a=static offset) */                   \
    WASABI_ENGINE_LOADS(WASABI_ENGINE_NAME, X)                          \
    X(LoadExt)     /* narrow/extending loads; aux=source opcode */      \
    X(I32Store)                                                         \
    X(I64Store)                                                         \
    X(F32Store)                                                         \
    X(F64Store)                                                         \
    X(StoreNarrow) /* aux=access width in bytes */                      \
    X(MemorySize)                                                       \
    X(MemoryGrow)                                                       \
    /* constants */                                                     \
    X(Const)       /* b=bits, aux=ValType */                            \
    /* generic numerics (aux=source opcode) */                          \
    X(UnaryPure)                                                        \
    X(UnaryTrap)   /* float->int truncations (charge point) */          \
    X(BinaryPure)                                                       \
    X(BinaryTrap)  /* integer div/rem (charge point) */                 \
    /* specialized hot numerics (batched) */                            \
    WASABI_ENGINE_I32_ARITH(WASABI_ENGINE_NAME, X)                      \
    WASABI_ENGINE_I32_CMP(WASABI_ENGINE_NAME, X)                        \
    X(I32Eqz)                                                           \
    X(I64Add)                                                           \
    X(F32Add)                                                           \
    X(F32Mul)                                                           \
    X(F64Add)                                                           \
    X(F64Sub)                                                           \
    X(F64Mul)                                                           \
    X(F64Div)

/**
 * Superinstructions: one slot standing for a sequence of unhooked
 * FOps, formed by the translator's peephole step (DESIGN.md §9). `OP`
 * is an i32 binary op from the lists above, `C` an i32 immediate.
 */
#define WASABI_ENGINE_FUSED_FOPS(X)                                     \
    /* OPImm: `Const C; OP` (a=C); OPLocal: `LocalGet; OP` (a=slot);  */\
    /* OPLocalImm: `LocalGet; Const C; OP` (a=slot, b=C)              */\
    WASABI_ENGINE_I32_ARITH(WASABI_ENGINE_BIN_FORMS, X)                 \
    WASABI_ENGINE_I32_CMP(WASABI_ENGINE_BIN_FORMS, X)                   \
    /* OPBrIf: `OPLocalImm; BrIf` with no unwind                      */\
    /* (a=target, b=C | slot << 32)                                   */\
    WASABI_ENGINE_I32_CMP(WASABI_ENGINE_BRIF_FORM, X)                   \
    /* LOADAddImm: `I32AddImm C; LOAD` (a=offset, b=C)                */\
    WASABI_ENGINE_LOADS(WASABI_ENGINE_LOAD_FORM, X)                     \
    X(I32MulAddImm)      /* `I32MulImm M; I32AddImm C`: a=M, b=C */     \
    X(I32MulAddLocalImm) /* a=slot, b=M | C << 32 */                    \
    X(I32AddLocalImmSet) /* `I32AddLocalImm; LocalSet`: */              \
                         /* a=source slot, b=C | dest slot << 32 */     \
    X(I32IncBr)          /* `I32AddLocalImmSet; Br` on one local with */\
                         /* no unwind: a=target, b=C | slot << 32 */

#define WASABI_ENGINE_COUNT(name) +1

enum class FOp : uint8_t {
#define WASABI_ENGINE_ENUM(name) name,
    WASABI_ENGINE_FOPS(WASABI_ENGINE_ENUM)
    WASABI_ENGINE_FUSED_FOPS(WASABI_ENGINE_ENUM)
#undef WASABI_ENGINE_ENUM
};

/** Whether @p op is a superinstruction (the fused FOps follow all
 * the others). */
constexpr bool
isFused(FOp op)
{
    return static_cast<unsigned>(op) >=
           0u WASABI_ENGINE_FOPS(WASABI_ENGINE_COUNT);
}

/** One pre-decoded instruction slot (16 bytes). */
struct FInstr {
    FOp op = FOp::Charge;
    uint8_t aux = 0;     ///< small operand: keep arity, opcode, type
    uint16_t charge = 0; ///< batched source instructions to account
    uint32_t a = 0;      ///< target pc / slot / index / mem offset
    uint64_t b = 0;      ///< const bits / unwind slot / param count
};

static_assert(sizeof(FInstr) == 16, "FInstr packs into one 16-byte slot");

/** One br_table target (pool entry). */
struct BrTarget {
    uint32_t pc = 0;     ///< absolute code index
    uint32_t keep = 0;   ///< values the branch carries
    uint32_t slot = 0;   ///< frame-relative unwind destination slot
};

/** A translated function body plus its frame layout. */
struct CompiledFunction {
    std::vector<FInstr> code;
    std::vector<BrTarget> tablePool; ///< br_table targets, by segment
    /** Intrinsic hook sites referenced by FOp::Hook slots and counter
     * probes (empty when the module was translated without an
     * attached HookSet). */
    std::vector<HookSite> hookSites;
    /** Counter probes: per FOp::Count / CountCond slot, its site in
     * hookSites and its outcome counters in `counters`. */
    struct CountedSite {
        uint32_t site = 0;
        uint32_t first = 0;
        uint32_t outcomes = 0;
    };
    std::vector<CountedSite> countedSites;
    /** The counted sites' outcome counters: bumped by the VM through
     * the probes' addresses, handed to the sink and zeroed when the
     * outermost invocation leaves the VM (CompiledModule::foldCounts).
     * Sized once by the translator. */
    std::vector<uint64_t> counters;
    /** Storage the hook sites point to: br_table side tables and
     * the blocks each branch site ends. */
    std::vector<std::unique_ptr<core::BrTableInfo>> brTables;
    std::vector<std::vector<core::EndedBlock>> endedLists;
    /** Zero values of the non-parameter locals, copied on entry. */
    std::vector<wasm::Value> localInit;
    uint32_t numParams = 0;
    uint32_t numLocals = 0;   ///< params + declared locals
    uint32_t maxOperand = 0;  ///< static peak operand-stack height
    uint32_t resultArity = 0;
    bool compiled = false;

    /** Value-stack slots one frame of this function needs. */
    size_t frameSlots() const { return numLocals + maxOperand; }
};

/**
 * Per-instance translation cache: one CompiledFunction slot per
 * function (translated lazily, on first call), plus structural type
 * canonicalization so call_indirect checks are integer compares.
 * Slots are pre-sized so FInstr arrays and CompiledFunction pointers
 * stay stable while execution is in progress.
 */
class CompiledModule {
  public:
    explicit CompiledModule(const wasm::Module &module);

    const wasm::Module &module() const { return module_; }

    /** Translated code of defined function @p func_idx; translates on
     * first use. @throws Trap(InternalError) for untranslatable
     * (invalid) bodies. */
    const CompiledFunction &function(uint32_t func_idx);

    /** Canonical (structure-deduplicated) id of a type index. */
    uint32_t canonicalType(uint32_t type_idx) const
    {
        return typeCanon_[type_idx];
    }

    /** Canonical type id of a function's signature. */
    uint32_t funcCanonicalType(uint32_t func_idx) const
    {
        return funcTypeCanon_[func_idx];
    }

    /**
     * Attach (or detach, with an empty set / null sink) engine-
     * intrinsic instrumentation: subsequent translations interleave
     * FOp::Hook dispatch slots for exactly @p kinds, and counter
     * probes (FOp::Count) instead at the sites of the kinds in
     * @p counted, which the sink only counts (DESIGN.md §12).
     * Already-translated functions are reset so stale
     * code (with the old hook selection) cannot linger — except when
     * both sets equal the currently attached ones: the translated code
     * is then already correct (slot placement depends only on the
     * sets, the sink is read per dispatch and per fold), so only the
     * sink pointer swaps. That cheap re-attach is what lets a serve
     * pool hand one warmed, pre-translated instance to a sequence of
     * requests, each with its own runtime, without re-translating
     * (DESIGN.md §13). Must not be called while execution is in
     * progress.
     */
    void
    setIntrinsicHooks(core::HookSet kinds, IntrinsicSink *sink,
                      core::HookSet counted = {})
    {
        bool same = kinds == intrinsicHooks_ && counted == countedHooks_;
        intrinsicHooks_ = kinds;
        countedHooks_ = counted;
        intrinsicSink_ = sink;
        if (same)
            return;
        for (CompiledFunction &f : funcs_)
            f = CompiledFunction{};
        counting_.clear();
    }

    /**
     * Swap only the dispatch sink, keeping the attached kind set and
     * every cached translation. A null sink parks the instance (the
     * engine skips Hook slots and drops counts); a pool uses this on
     * release/acquire. Must not be called while execution is in
     * progress.
     */
    void setIntrinsicSink(IntrinsicSink *sink) { intrinsicSink_ = sink; }

    core::HookSet intrinsicHooks() const { return intrinsicHooks_; }
    core::HookSet countedHooks() const { return countedHooks_; }
    IntrinsicSink *intrinsicSink() const { return intrinsicSink_; }

    /**
     * Number of function-body translations performed over this
     * cache's lifetime (monotonic; re-translations after an
     * invalidation count again). The serve metrics pin warm-request
     * claims on this: a pooled warm request must leave it unchanged.
     */
    uint64_t translationsPerformed() const { return translations_; }

    /** Bracket one engine invocation; nested invocations (a host
     * function calling back into the instance) only count depth. */
    void enterVm() { ++vmDepth_; }

    /** End one engine invocation. The outermost one hands every
     * non-zero counter to the sink (dropped if none is attached) and
     * zeroes it, so results read right after an invocation are exact. */
    void
    leaveVm()
    {
        if (--vmDepth_ == 0 && !counting_.empty())
            foldCounts();
    }

  private:
    void foldCounts();

    const wasm::Module &module_;
    std::vector<CompiledFunction> funcs_;
    std::vector<uint32_t> typeCanon_;
    std::vector<uint32_t> funcTypeCanon_;
    core::HookSet intrinsicHooks_{};
    core::HookSet countedHooks_{};
    IntrinsicSink *intrinsicSink_ = nullptr;
    /** Translated functions that hold counted sites. */
    std::vector<uint32_t> counting_;
    uint32_t vmDepth_ = 0;
    uint64_t translations_ = 0;
};

/** Translate one defined function (exposed for tests). */
CompiledFunction translateFunction(const wasm::Module &module,
                                   uint32_t func_idx,
                                   const CompiledModule &cm);

} // namespace wasabi::interp::engine

#endif // WASABI_INTERP_ENGINE_CODE_H
