#include "static/passes/range.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "static/cfg.h"
#include "static/dataflow.h"
#include "static/interproc/call_graph.h"
#include "static/interproc/scc.h"
#include "static/passes/constprop.h"
#include "support/parallel.h"

namespace wasabi::static_analysis::passes {

using wasm::Instr;
using wasm::Module;
using wasm::OpClass;
using wasm::Opcode;
using wasm::ValType;

namespace {

constexpr uint32_t kU32Max = 0xFFFFFFFFu;
constexpr uint32_t kI32Max = 0x7FFFFFFFu;
constexpr uint64_t kPageBytes = 65536;

/** 0 = default formula; see setRangeSolverBudgetForTest(). */
uint64_t g_solverBudgetOverride = 0;

Interval
meet(const Interval &a, const Interval &b, bool &feasible)
{
    Interval r{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
    if (r.lo > r.hi) {
        feasible = false;
        return Interval::top();
    }
    return r;
}

/** Smallest all-ones mask (2^k - 1) covering @p x. */
uint32_t
maskUp(uint32_t x)
{
    uint32_t m = 0;
    while (m < x)
        m = (m << 1) | 1u;
    return m;
}

bool
nonNegative(const Interval &a)
{
    return a.hi <= kI32Max;
}

// ----- interval transfer -------------------------------------------------

Interval
addIv(const Interval &a, const Interval &b)
{
    uint64_t lo = static_cast<uint64_t>(a.lo) + b.lo;
    uint64_t hi = static_cast<uint64_t>(a.hi) + b.hi;
    if (hi <= kU32Max)
        return Interval{static_cast<uint32_t>(lo),
                        static_cast<uint32_t>(hi)};
    if (lo > kU32Max) // both bounds wrap identically
        return Interval{static_cast<uint32_t>(lo - (1ull << 32)),
                        static_cast<uint32_t>(hi - (1ull << 32))};
    return Interval::top();
}

Interval
subIv(const Interval &a, const Interval &b)
{
    int64_t lo = static_cast<int64_t>(a.lo) - b.hi;
    int64_t hi = static_cast<int64_t>(a.hi) - b.lo;
    if (lo >= 0)
        return Interval{static_cast<uint32_t>(lo),
                        static_cast<uint32_t>(hi)};
    if (hi < 0) // both bounds wrap identically
        return Interval{static_cast<uint32_t>(lo + (1ll << 32)),
                        static_cast<uint32_t>(hi + (1ll << 32))};
    return Interval::top();
}

Interval
mulIv(const Interval &a, const Interval &b)
{
    uint64_t hi = static_cast<uint64_t>(a.hi) * b.hi;
    if (hi <= kU32Max)
        return Interval{a.lo * b.lo, static_cast<uint32_t>(hi)};
    return Interval::top();
}

/** Comparison result interval; decides always-true/always-false where
 * the operand intervals allow it. Signed forms decide only when both
 * operands are provably non-negative (signed order == unsigned). */
Interval
cmpIv(Opcode op, const Interval &a, const Interval &b)
{
    switch (op) {
      case Opcode::I32LtS:
      case Opcode::I32GtS:
      case Opcode::I32LeS:
      case Opcode::I32GeS:
        if (!nonNegative(a) || !nonNegative(b))
            return Interval{0, 1};
        break;
      default:
        break;
    }
    switch (op) {
      case Opcode::I32Eq:
        if (a.isConst() && b.isConst())
            return Interval::exact(a.lo == b.lo ? 1 : 0);
        if (a.hi < b.lo || b.hi < a.lo)
            return Interval::exact(0);
        return Interval{0, 1};
      case Opcode::I32Ne:
        if (a.isConst() && b.isConst())
            return Interval::exact(a.lo != b.lo ? 1 : 0);
        if (a.hi < b.lo || b.hi < a.lo)
            return Interval::exact(1);
        return Interval{0, 1};
      case Opcode::I32LtU:
      case Opcode::I32LtS:
        if (a.hi < b.lo)
            return Interval::exact(1);
        if (a.lo >= b.hi)
            return Interval::exact(0);
        return Interval{0, 1};
      case Opcode::I32GtU:
      case Opcode::I32GtS:
        return cmpIv(Opcode::I32LtU, b, a);
      case Opcode::I32LeU:
      case Opcode::I32LeS:
        if (a.hi <= b.lo)
            return Interval::exact(1);
        if (a.lo > b.hi)
            return Interval::exact(0);
        return Interval{0, 1};
      case Opcode::I32GeU:
      case Opcode::I32GeS:
        return cmpIv(Opcode::I32LeU, b, a);
      default:
        return Interval{0, 1};
    }
}

// ----- branch-condition refinement ---------------------------------------

/** Constrain a < b (unsigned). Returns false if infeasible. */
bool
enforceLt(Interval &a, Interval &b)
{
    if (b.hi == 0 || a.lo == kU32Max)
        return false;
    a.hi = std::min(a.hi, b.hi - 1);
    b.lo = std::max(b.lo, a.lo + 1);
    return a.lo <= a.hi && b.lo <= b.hi;
}

/** Constrain a <= b (unsigned). */
bool
enforceLe(Interval &a, Interval &b)
{
    a.hi = std::min(a.hi, b.hi);
    b.lo = std::max(b.lo, a.lo);
    return a.lo <= a.hi && b.lo <= b.hi;
}

bool
enforceEq(Interval &a, Interval &b)
{
    bool feasible = true;
    Interval r = meet(a, b, feasible);
    a = b = r;
    return feasible;
}

/** Constrain a != b: only trims when one side is a constant equal to
 * the other's bound (intervals cannot encode interior holes). */
bool
enforceNe(Interval &a, Interval &b)
{
    auto trim = [](Interval &x, const Interval &c) {
        if (!c.isConst())
            return true;
        if (x.isConst())
            return x.lo != c.lo;
        if (x.lo == c.lo)
            ++x.lo;
        else if (x.hi == c.lo)
            --x.hi;
        return true;
    };
    return trim(a, b) && trim(b, a);
}

/**
 * Constrain (a OP b) == taken, narrowing both intervals in place.
 * Signed comparisons refine only when both operands are provably
 * non-negative. Returns false when the edge is infeasible.
 */
bool
refineCmp(Opcode op, bool taken, Interval &a, Interval &b)
{
    switch (op) {
      case Opcode::I32LtS:
      case Opcode::I32GtS:
      case Opcode::I32LeS:
      case Opcode::I32GeS:
        if (!nonNegative(a) || !nonNegative(b))
            return true;
        break;
      default:
        break;
    }
    switch (op) {
      case Opcode::I32LtU:
      case Opcode::I32LtS:
        return taken ? enforceLt(a, b) : enforceLe(b, a);
      case Opcode::I32LeU:
      case Opcode::I32LeS:
        return taken ? enforceLe(a, b) : enforceLt(b, a);
      case Opcode::I32GtU:
      case Opcode::I32GtS:
        return taken ? enforceLt(b, a) : enforceLe(a, b);
      case Opcode::I32GeU:
      case Opcode::I32GeS:
        return taken ? enforceLe(b, a) : enforceLt(a, b);
      case Opcode::I32Eq:
        return taken ? enforceEq(a, b) : enforceNe(a, b);
      case Opcode::I32Ne:
        return taken ? enforceNe(a, b) : enforceEq(a, b);
      default:
        return true;
    }
}

/** The comparison testing the complement outcome, e.g. lt_u <-> ge_u.
 * Nop means "not invertible". */
Opcode
negateCmp(Opcode op)
{
    switch (op) {
      case Opcode::I32Eq:
        return Opcode::I32Ne;
      case Opcode::I32Ne:
        return Opcode::I32Eq;
      case Opcode::I32LtU:
        return Opcode::I32GeU;
      case Opcode::I32GeU:
        return Opcode::I32LtU;
      case Opcode::I32LeU:
        return Opcode::I32GtU;
      case Opcode::I32GtU:
        return Opcode::I32LeU;
      case Opcode::I32LtS:
        return Opcode::I32GeS;
      case Opcode::I32GeS:
        return Opcode::I32LtS;
      case Opcode::I32LeS:
        return Opcode::I32GtS;
      case Opcode::I32GtS:
        return Opcode::I32LeS;
      default:
        return Opcode::Nop;
    }
}

bool
isI32Comparison(Opcode op)
{
    return negateCmp(op) != Opcode::Nop;
}

// ----- per-function analysis ---------------------------------------------

/**
 * A branch predicate: "lhs CMP rhs" held when the condition was
 * computed. A side refines a local only if that local was not
 * reassigned between the compare and the branch (generation check).
 */
struct Pred {
    Opcode cmp = Opcode::Nop;
    int lhsLocal = -1;
    int rhsLocal = -1;
    uint32_t lhsGen = 0;
    uint32_t rhsGen = 0;
    Interval lhs;
    Interval rhs;
};

/** One symbolic operand-stack slot: interval plus the provenance
 * needed for edge refinement (which pristine local it reads, which
 * comparison produced it). */
struct StackVal {
    Interval iv;
    int src = -1;     ///< local index the value was read from
    uint32_t gen = 0; ///< that local's generation at read time
    int predId = -1;  ///< index into the block's predicate pool
};

/** Result of simulating one basic block. */
struct BlockOut {
    std::vector<Interval> locals;
    std::vector<uint32_t> gens;
    bool hasCond = false; ///< block ends in br_if/if with a condition
    Interval cond;
    std::optional<Pred> condPred;
};

/** Observer for the fact-collection pass (null while solving). */
struct RangeSink {
    FunctionRanges *fr = nullptr;
    /** Direct-call argument intervals (callee, per-param interval). */
    std::map<uint32_t, std::vector<Interval>> *callArgs = nullptr;
};

class FunctionRangeAnalyzer {
  public:
    FunctionRangeAnalyzer(const Module &m, uint32_t func_idx,
                          std::vector<Interval> args)
        : m_(m), body_(m.functions.at(func_idx).body),
          cfg_(m, func_idx), args_(std::move(args))
    {
        const wasm::FuncType &type = m.funcType(func_idx);
        const std::vector<ValType> &params = type.params;
        localTypes_ = params;
        const std::vector<ValType> &locals =
            m.functions.at(func_idx).locals;
        localTypes_.insert(localTypes_.end(), locals.begin(),
                           locals.end());
        numParams_ = static_cast<uint32_t>(params.size());
        collectThresholds();
        for (auto [tail, head] : backEdges(cfg_)) {
            (void)tail;
            loopHeads_.insert(head);
        }
    }

    /** Solve to a fixpoint; false if the iteration cap was hit (the
     * caller must discard all facts for this function). */
    bool
    solve()
    {
        const uint32_t n = cfg_.numBlocks();
        in_.assign(n, {});
        reached_.assign(n, false);
        in_[cfg_.entry()] = boundary();
        reached_[cfg_.entry()] = true;

        // Worklist keyed by RPO position: deterministic and converges
        // in few passes on the reducible CFGs structured Wasm yields.
        std::set<std::pair<uint32_t, uint32_t>> work;
        work.insert({cfg_.rpoIndex(cfg_.entry()), cfg_.entry()});

        // Threshold widening bounds head-block changes; the cap is a
        // pure backstop (facts are discarded if it ever fires).
        uint64_t budget = g_solverBudgetOverride != 0
                              ? g_solverBudgetOverride
                              : 64ull * n + 4096;
        while (!work.empty()) {
            if (budget-- == 0)
                return false;
            uint32_t b = work.begin()->second;
            work.erase(work.begin());
            propagate(b, [&](uint32_t s) {
                work.insert({cfg_.rpoIndex(s), s});
            });
        }
        return true;
    }

    /** Re-simulate every reached block, recording facts. */
    void
    collect(const RangeSink &sink)
    {
        for (uint32_t b = 0; b < cfg_.numBlocks(); ++b) {
            if (!reached_[b])
                continue;
            simulate(b, in_[b], &sink);
        }
        if (sink.fr) {
            sink.fr->blockIn.resize(cfg_.numBlocks());
            sink.fr->blockReached.assign(reached_.begin(),
                                         reached_.end());
            for (uint32_t b = 0; b < cfg_.numBlocks(); ++b) {
                if (reached_[b])
                    sink.fr->blockIn[b] = in_[b];
            }
        }
    }

  private:
    std::vector<Interval>
    boundary() const
    {
        std::vector<Interval> v(localTypes_.size(), Interval::top());
        for (uint32_t k = 0; k < numParams_; ++k) {
            if (localTypes_[k] == ValType::I32 && k < args_.size())
                v[k] = args_[k];
        }
        // Declared locals are zero-initialized by Wasm semantics.
        for (size_t k = numParams_; k < localTypes_.size(); ++k) {
            if (localTypes_[k] == ValType::I32)
                v[k] = Interval::exact(0);
        }
        return v;
    }

    /** Widening thresholds: every i32 constant in the body (loop
     * bounds, array extents) plus 0 / INT32_MAX / UINT32_MAX. Joined
     * bounds at loop heads snap outward to the nearest threshold, so
     * the canonical counted loop converges in one widening step and
     * each head bound changes at most |thresholds| times. */
    void
    collectThresholds()
    {
        thresholds_ = {0, kI32Max, kU32Max};
        for (const Instr &ins : body_) {
            if (ins.op == Opcode::I32Const)
                thresholds_.push_back(ins.imm.i32v);
        }
        std::sort(thresholds_.begin(), thresholds_.end());
        thresholds_.erase(
            std::unique(thresholds_.begin(), thresholds_.end()),
            thresholds_.end());
        // A head bound changes at most |thresholds| times and every
        // change re-propagates a wave, so const-heavy bodies (e.g.
        // fully instrumented ones, where every hook call site carries
        // literal location arguments) must not inflate the set. Keep
        // the smallest constants: loop bounds and array extents are
        // small, and anything beyond the cap just widens faster.
        constexpr size_t kMaxThresholds = 64;
        if (thresholds_.size() > kMaxThresholds) {
            thresholds_.resize(kMaxThresholds - 2);
            thresholds_.push_back(kI32Max);
            thresholds_.push_back(kU32Max);
            // The kept prefix can already contain values above the
            // sentinels (i32 constants live as u32, so negative
            // constants sort large); thresholdUp/Down binary-search
            // this vector, which must stay sorted and unique.
            std::sort(thresholds_.begin(), thresholds_.end());
            thresholds_.erase(
                std::unique(thresholds_.begin(), thresholds_.end()),
                thresholds_.end());
        }
    }

    uint32_t
    thresholdUp(uint32_t x) const
    {
        auto it = std::lower_bound(thresholds_.begin(),
                                   thresholds_.end(), x);
        return it == thresholds_.end() ? kU32Max : *it;
    }

    uint32_t
    thresholdDown(uint32_t x) const
    {
        auto it = std::upper_bound(thresholds_.begin(),
                                   thresholds_.end(), x);
        return it == thresholds_.begin() ? 0 : *(it - 1);
    }

    /** Merge @p from into block @p s's in-state; widen at loop heads. */
    bool
    mergeInto(uint32_t s, const std::vector<Interval> &from)
    {
        if (!reached_[s]) {
            in_[s] = from;
            reached_[s] = true;
            return true;
        }
        const bool widen = loopHeads_.count(s) != 0;
        bool changed = false;
        std::vector<Interval> &into = in_[s];
        for (size_t k = 0; k < into.size(); ++k) {
            Interval j = hull(into[k], from[k]);
            if (j == into[k])
                continue;
            if (widen) {
                if (j.hi > into[k].hi)
                    j.hi = thresholdUp(j.hi);
                if (j.lo < into[k].lo)
                    j.lo = thresholdDown(j.lo);
            }
            into[k] = j;
            changed = true;
        }
        return changed;
    }

    /** Transfer block @p b and merge into its successors, applying
     * branch-condition refinement per edge. */
    template <typename Enqueue>
    void
    propagate(uint32_t b, const Enqueue &enqueue)
    {
        BlockOut out = simulate(b, in_[b], nullptr);
        const BasicBlock &blk = cfg_.blocks()[b];

        // Identify the fall-through successor of a two-way branch to
        // assign condition outcomes to edges (succs are sorted, so
        // positional identity is lost).
        uint32_t fallthrough = kU32Max;
        bool fallthroughIsTaken = false; // `if`: next instr = then-arm
        const std::span<const uint32_t> succs = cfg_.succs(b);
        if (out.hasCond && succs.size() == 2 && !blk.empty() &&
            blk.last + 1 < body_.size()) {
            fallthrough = cfg_.blockOf(blk.last + 1);
            fallthroughIsTaken = body_[blk.last].op == Opcode::If;
        }

        for (uint32_t s : succs) {
            std::vector<Interval> locals = out.locals;
            if (out.condPred && fallthrough != kU32Max) {
                bool taken = (s == fallthrough) == fallthroughIsTaken;
                if (!applyPred(*out.condPred, taken, locals, out.gens))
                    continue; // provably infeasible edge
            }
            if (mergeInto(s, locals))
                enqueue(s);
        }
    }

    bool
    applyPred(const Pred &p, bool taken, std::vector<Interval> &locals,
              const std::vector<uint32_t> &gens) const
    {
        Interval a = p.lhs;
        Interval b = p.rhs;
        if (!refineCmp(p.cmp, taken, a, b))
            return false;
        bool feasible = true;
        if (p.lhsLocal >= 0 && gens[p.lhsLocal] == p.lhsGen)
            locals[p.lhsLocal] = meet(locals[p.lhsLocal], a, feasible);
        if (p.rhsLocal >= 0 && gens[p.rhsLocal] == p.rhsGen)
            locals[p.rhsLocal] = meet(locals[p.rhsLocal], b, feasible);
        return feasible;
    }

    /**
     * Symbolically execute block @p b. Within one basic block the
     * physical operand stack evolves exactly: block/loop/end are
     * runtime no-ops on values, so tracking them as no-ops keeps the
     * address chains real producers emit (const-fold into load) intact
     * across structural markers. Values entering on the stack from a
     * predecessor read as top (pop on empty).
     */
    BlockOut
    simulate(uint32_t b, const std::vector<Interval> &inLocals,
             const RangeSink *sink) const
    {
        BlockOut out;
        out.locals = inLocals;
        out.gens.assign(localTypes_.size(), 0);
        const BasicBlock &blk = cfg_.blocks()[b];
        if (blk.empty())
            return out;

        std::vector<StackVal> stack;
        std::vector<Pred> preds;
        // Comparison results spilled to a local and reloaded later in
        // the same block keep their predicate (instrumented code does
        // this around every hook call: cmp, local.set, call hook,
        // local.get, br_if). Keyed by the local's generation at set
        // time, so any reassignment invalidates the entry.
        std::map<uint32_t, std::pair<uint32_t, int>> localPreds;

        auto pop = [&stack]() -> StackVal {
            if (stack.empty())
                return StackVal{};
            StackVal v = stack.back();
            stack.pop_back();
            return v;
        };
        auto popN = [&pop](size_t n) {
            for (size_t k = 0; k < n; ++k)
                pop();
        };
        auto pushIv = [&stack](Interval iv) {
            stack.push_back(StackVal{iv, -1, 0, -1});
        };
        auto pushTop = [&pushIv](size_t n) {
            for (size_t k = 0; k < n; ++k)
                pushIv(Interval::top());
        };
        auto setLocal = [&out](uint32_t k, Interval iv) {
            out.locals[k] = iv;
            ++out.gens[k];
        };
        /** The branch predicate carried by a popped condition value:
         * an explicit comparison, or "local != 0" truthiness. */
        auto condPredOf =
            [&](const StackVal &c) -> std::optional<Pred> {
            if (c.predId >= 0)
                return preds[c.predId];
            if (c.src >= 0 && out.gens[c.src] == c.gen) {
                Pred p;
                p.cmp = Opcode::I32Ne;
                p.lhsLocal = c.src;
                p.lhsGen = c.gen;
                p.lhs = c.iv;
                p.rhs = Interval::exact(0);
                return p;
            }
            return std::nullopt;
        };

        for (uint32_t i = blk.first; i <= blk.last; ++i) {
            const Instr &ins = body_[i];
            const wasm::OpInfo &info = wasm::opInfo(ins.op);
            switch (info.cls) {
              case OpClass::Const:
                if (ins.op == Opcode::I32Const)
                    pushIv(Interval::exact(ins.imm.i32v));
                else
                    pushTop(1);
                break;
              case OpClass::LocalGet: {
                StackVal v;
                v.iv = localTypes_[ins.imm.idx] == ValType::I32
                           ? out.locals[ins.imm.idx]
                           : Interval::top();
                v.src = static_cast<int>(ins.imm.idx);
                v.gen = out.gens[ins.imm.idx];
                auto it = localPreds.find(ins.imm.idx);
                if (it != localPreds.end() &&
                    it->second.first == v.gen)
                    v.predId = it->second.second;
                stack.push_back(v);
                break;
              }
              case OpClass::LocalSet: {
                StackVal v = pop();
                setLocal(ins.imm.idx,
                         localTypes_[ins.imm.idx] == ValType::I32
                             ? v.iv
                             : Interval::top());
                if (v.predId >= 0)
                    localPreds[ins.imm.idx] = {out.gens[ins.imm.idx],
                                               v.predId};
                else
                    localPreds.erase(ins.imm.idx);
                break;
              }
              case OpClass::LocalTee: {
                Interval iv = Interval::top();
                if (localTypes_[ins.imm.idx] == ValType::I32 &&
                    !stack.empty())
                    iv = stack.back().iv;
                setLocal(ins.imm.idx, iv);
                if (!stack.empty()) {
                    // The stack value now also reads the fresh local;
                    // its predicate (if any) is unchanged by the tee.
                    stack.back().src = static_cast<int>(ins.imm.idx);
                    stack.back().gen = out.gens[ins.imm.idx];
                    if (stack.back().predId >= 0)
                        localPreds[ins.imm.idx] = {
                            out.gens[ins.imm.idx],
                            stack.back().predId};
                    else
                        localPreds.erase(ins.imm.idx);
                }
                break;
              }
              case OpClass::GlobalGet: {
                std::optional<uint32_t> v =
                    immutableI32GlobalInit(m_, ins.imm.idx);
                pushIv(v ? Interval::exact(*v) : Interval::top());
                break;
              }
              case OpClass::GlobalSet:
                pop();
                break;
              case OpClass::Unary: {
                StackVal v = pop();
                stack.push_back(transferUnary(ins.op, v, preds));
                break;
              }
              case OpClass::Binary: {
                StackVal b2 = pop();
                StackVal a = pop();
                if (sink && sink->fr &&
                    v32DivisorZero(ins.op, b2.iv))
                    sink->fr->divByZero.push_back(i);
                stack.push_back(transferBinary(ins.op, a, b2, preds));
                break;
              }
              case OpClass::Drop:
                pop();
                break;
              case OpClass::Select: {
                StackVal c = pop();
                StackVal onFalse = pop();
                StackVal onTrue = pop();
                if (c.iv.isConst())
                    stack.push_back(c.iv.lo ? onTrue : onFalse);
                else
                    pushIv(hull(onTrue.iv, onFalse.iv));
                break;
              }
              case OpClass::Load: {
                StackVal addr = pop();
                uint32_t width = static_cast<uint32_t>(
                    wasm::memAccessBytes(ins.op));
                if (sink)
                    recordAccess(*sink, i, addr.iv, width, false);
                pushIv(loadResultIv(ins.op));
                break;
              }
              case OpClass::Store: {
                pop(); // value
                StackVal addr = pop();
                if (sink)
                    recordAccess(*sink, i, addr.iv,
                                 static_cast<uint32_t>(
                                     wasm::memAccessBytes(ins.op)),
                                 true);
                break;
              }
              case OpClass::MemorySize: {
                Interval pages{0, 65536};
                if (!m_.memories.empty()) {
                    const wasm::Limits &lim = m_.memories[0].limits;
                    pages.lo = lim.min;
                    if (lim.max)
                        pages.hi = *lim.max;
                }
                pushIv(pages);
                break;
              }
              case OpClass::MemoryGrow:
                pop();
                pushTop(1);
                break;
              case OpClass::Call: {
                const wasm::FuncType &t = m_.funcType(ins.imm.idx);
                if (sink && sink->callArgs &&
                    !m_.functions[ins.imm.idx].imported())
                    recordCallArgs(*sink, ins.imm.idx, t, stack);
                popN(t.params.size());
                pushTop(t.results.size());
                break;
              }
              case OpClass::CallIndirect: {
                const wasm::FuncType &t = m_.types.at(ins.imm.idx);
                pop(); // table index
                popN(t.params.size());
                pushTop(t.results.size());
                break;
              }
              case OpClass::If: {
                StackVal c = pop();
                if (sink && sink->fr && c.iv.isConst())
                    sink->fr->deadGuards.push_back(
                        DeadGuard{i, c.iv.lo});
                out.hasCond = true;
                out.cond = c.iv;
                out.condPred = condPredOf(c);
                stack.clear();
                break;
              }
              case OpClass::BrIf: {
                StackVal c = pop();
                if (sink && sink->fr && c.iv.isConst())
                    sink->fr->deadGuards.push_back(
                        DeadGuard{i, c.iv.lo});
                out.hasCond = true;
                out.cond = c.iv;
                out.condPred = condPredOf(c);
                break;
              }
              case OpClass::BrTable:
                pop();
                stack.clear();
                break;
              case OpClass::Return:
              case OpClass::Br:
                stack.clear();
                break;
              // Structural markers are runtime no-ops on the operand
              // stack: values flow across them untouched.
              case OpClass::End:
              case OpClass::Nop:
              case OpClass::Block:
              case OpClass::Loop:
                break;
              default:
                // else / unreachable: terminators; no value flows
                // past them within this block.
                stack.clear();
                break;
            }
        }
        return out;
    }

    StackVal
    transferUnary(Opcode op, const StackVal &v,
                  std::vector<Pred> &preds) const
    {
        StackVal r;
        if (v.iv.isConst()) {
            std::optional<uint32_t> folded = foldI32Unary(op, v.iv.lo);
            if (folded) {
                r.iv = Interval::exact(*folded);
                return r;
            }
        }
        switch (op) {
          case Opcode::I32Eqz: {
            if (v.iv.lo > 0) {
                r.iv = Interval::exact(0);
                return r;
            }
            r.iv = Interval{0, 1};
            // eqz(x) inverts x's predicate; a bare local becomes
            // "local == 0" on the taken side.
            if (v.predId >= 0) {
                Pred p = preds[v.predId];
                Opcode inv = negateCmp(p.cmp);
                if (inv != Opcode::Nop) {
                    p.cmp = inv;
                    preds.push_back(p);
                    r.predId = static_cast<int>(preds.size()) - 1;
                }
            } else if (v.src >= 0) {
                Pred p;
                p.cmp = Opcode::I32Eq;
                p.lhsLocal = v.src;
                p.lhsGen = v.gen;
                p.lhs = v.iv;
                p.rhs = Interval::exact(0);
                preds.push_back(p);
                r.predId = static_cast<int>(preds.size()) - 1;
            }
            return r;
          }
          case Opcode::I32Clz:
          case Opcode::I32Ctz:
          case Opcode::I32Popcnt:
            r.iv = Interval{0, 32};
            return r;
          default:
            r.iv = Interval::top();
            return r;
        }
    }

    StackVal
    transferBinary(Opcode op, const StackVal &a, const StackVal &b,
                   std::vector<Pred> &preds) const
    {
        StackVal r;
        if (a.iv.isConst() && b.iv.isConst()) {
            std::optional<uint32_t> folded =
                foldI32Binary(op, a.iv.lo, b.iv.lo);
            if (folded) {
                r.iv = Interval::exact(*folded);
                if (isI32Comparison(op))
                    r.predId = pushCmpPred(op, a, b, preds);
                return r;
            }
        }
        if (isI32Comparison(op)) {
            r.iv = cmpIv(op, a.iv, b.iv);
            r.predId = pushCmpPred(op, a, b, preds);
            return r;
        }
        r.iv = binaryIv(op, a.iv, b.iv);
        return r;
    }

    int
    pushCmpPred(Opcode op, const StackVal &a, const StackVal &b,
                std::vector<Pred> &preds) const
    {
        if (a.src < 0 && b.src < 0)
            return -1;
        Pred p;
        p.cmp = op;
        p.lhsLocal = a.src;
        p.lhsGen = a.gen;
        p.lhs = a.iv;
        p.rhsLocal = b.src;
        p.rhsGen = b.gen;
        p.rhs = b.iv;
        preds.push_back(p);
        return static_cast<int>(preds.size()) - 1;
    }

    Interval
    binaryIv(Opcode op, const Interval &a, const Interval &b) const
    {
        switch (op) {
          case Opcode::I32Add:
            return addIv(a, b);
          case Opcode::I32Sub:
            return subIv(a, b);
          case Opcode::I32Mul:
            return mulIv(a, b);
          case Opcode::I32DivU: {
            // A zero divisor traps: executions that reach the result
            // had divisor >= 1.
            uint32_t dlo = std::max(b.lo, 1u);
            uint32_t dhi = std::max(b.hi, 1u);
            return Interval{a.lo / dhi, a.hi / dlo};
          }
          case Opcode::I32RemU: {
            if (b.hi == 0)
                return Interval::top(); // always traps
            return Interval{0, std::min(a.hi, b.hi - 1)};
          }
          case Opcode::I32DivS:
            if (nonNegative(a) && nonNegative(b))
                return binaryIv(Opcode::I32DivU, a, b);
            return Interval::top();
          case Opcode::I32RemS:
            if (nonNegative(a) && nonNegative(b))
                return binaryIv(Opcode::I32RemU, a, b);
            return Interval::top();
          case Opcode::I32And:
            return Interval{0, std::min(a.hi, b.hi)};
          case Opcode::I32Or:
            return Interval{std::max(a.lo, b.lo),
                            maskUp(std::max(a.hi, b.hi))};
          case Opcode::I32Xor:
            return Interval{0, maskUp(std::max(a.hi, b.hi))};
          case Opcode::I32Shl:
            if (b.isConst()) {
                uint32_t s = b.lo & 31;
                if ((static_cast<uint64_t>(a.hi) << s) <= kU32Max)
                    return Interval{a.lo << s, a.hi << s};
            }
            return Interval::top();
          case Opcode::I32ShrU:
            if (b.isConst()) {
                uint32_t s = b.lo & 31;
                return Interval{a.lo >> s, a.hi >> s};
            }
            return Interval{0, a.hi};
          case Opcode::I32ShrS:
            if (nonNegative(a))
                return binaryIv(Opcode::I32ShrU, a, b);
            return Interval::top();
          default:
            return Interval::top();
        }
    }

    static bool
    v32DivisorZero(Opcode op, const Interval &divisor)
    {
        switch (op) {
          case Opcode::I32DivU:
          case Opcode::I32DivS:
          case Opcode::I32RemU:
          case Opcode::I32RemS:
            return divisor == Interval::exact(0);
          default:
            return false;
        }
    }

    static Interval
    loadResultIv(Opcode op)
    {
        switch (op) {
          case Opcode::I32Load8U:
            return Interval{0, 0xFF};
          case Opcode::I32Load16U:
            return Interval{0, 0xFFFF};
          default:
            return Interval::top();
        }
    }

    void
    recordAccess(const RangeSink &sink, uint32_t instr,
                 const Interval &addr, uint32_t width,
                 bool is_store) const
    {
        if (!sink.fr)
            return;
        MemAccess a;
        a.instr = instr;
        a.offset = body_[instr].imm.mem.offset;
        a.width = width;
        a.addr = addr;
        a.isStore = is_store;
        sink.fr->accesses.push_back(a);
    }

    void
    recordCallArgs(const RangeSink &sink, uint32_t callee,
                   const wasm::FuncType &type,
                   const std::vector<StackVal> &stack) const
    {
        const size_t np = type.params.size();
        std::vector<Interval> args(np, Interval::top());
        // Stack top holds the last parameter; missing depths (values
        // produced before this block) stay top.
        for (size_t k = 0; k < np; ++k) {
            size_t depth = np - 1 - k; // 0 = stack top = last param
            if (depth < stack.size() &&
                type.params[k] == ValType::I32)
                args[k] = stack[stack.size() - 1 - depth].iv;
        }
        auto [it, inserted] = sink.callArgs->try_emplace(callee, args);
        if (!inserted) {
            for (size_t k = 0; k < np; ++k)
                it->second[k] = hull(it->second[k], args[k]);
        }
    }

    const Module &m_;
    const std::vector<Instr> &body_;
    Cfg cfg_;
    std::vector<Interval> args_;
    std::vector<ValType> localTypes_;
    uint32_t numParams_ = 0;
    std::vector<uint32_t> thresholds_;
    std::set<uint32_t> loopHeads_;
    std::vector<std::vector<Interval>> in_;
    std::vector<char> reached_;
};

} // namespace

Interval
hull(const Interval &a, const Interval &b)
{
    return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// ----- module driver -----------------------------------------------------

namespace {

/** Functions whose arguments must be treated as unconstrained:
 * host-reachable roots, targets of any indirect call site, and
 * members of recursive SCCs (incl. self loops). */
std::vector<char>
topSeededFunctions(const Module &m,
                   const interproc::CallGraph &cg,
                   const interproc::SccGraph &scc)
{
    std::vector<char> top(m.numFunctions(), 0);
    for (uint32_t f : cg.roots())
        top[f] = 1;
    for (const interproc::CallSite &site : cg.sites()) {
        if (site.kind == interproc::SiteKind::Direct) {
            // Direct self calls make a singleton SCC recursive.
            if (!site.targets.empty() &&
                site.targets[0] == site.func)
                top[site.func] = 1;
            continue;
        }
        for (uint32_t t : site.targets)
            top[t] = 1;
    }
    for (uint32_t sid = 0; sid < scc.numSccs(); ++sid) {
        if (scc.members[sid].size() > 1) {
            for (uint32_t f : scc.members[sid])
                top[f] = 1;
        }
    }
    return top;
}

} // namespace

void
setRangeSolverBudgetForTest(uint64_t budget)
{
    g_solverBudgetOverride = budget;
}

ModuleRanges
moduleRanges(const Module &m, unsigned num_threads)
{
    return moduleRanges(
        m,
        interproc::CallGraph(m, interproc::Precision::Refined,
                             num_threads),
        num_threads);
}

ModuleRanges
moduleRanges(const Module &m, const interproc::CallGraph &cg,
             unsigned num_threads)
{
    ModuleRanges mr;
    mr.hasMemory = !m.memories.empty();
    mr.minPages = mr.hasMemory ? m.memories[0].limits.min : 0;
    const uint32_t n = m.numFunctions();
    mr.functions.resize(n);
    if (n == 0)
        return mr;

    const uint64_t minBytes = static_cast<uint64_t>(mr.minPages) *
                              kPageBytes;

    interproc::SccGraph scc = interproc::condense(
        n, [&cg](uint32_t f) -> const std::vector<uint32_t> & {
            return cg.callees(f);
        });
    const uint32_t num_sccs = scc.numSccs();
    std::vector<char> top = topSeededFunctions(m, cg, scc);

    // Joined argument intervals contributed by the levels solved so
    // far. A function's seed is read only after every caller SCC was
    // solved, and joins are commutative and associative, so the result
    // is identical at any thread count.
    std::vector<std::vector<Interval>> argSeed(n);
    using Contrib = std::map<uint32_t, std::vector<Interval>>;

    // Solve SCC @p sid; the argument intervals its members pass to each
    // callee go to @p contrib.
    auto solveScc = [&](uint32_t sid, Contrib &contrib) {
        for (uint32_t f : scc.members[sid]) {
            FunctionRanges &fr = mr.functions[f];
            const wasm::Function &func = m.functions[f];
            const size_t np = m.funcType(f).params.size();
            if (func.imported() || func.body.empty()) {
                fr.args.assign(np, Interval::top());
                continue;
            }
            std::vector<Interval> args(np, Interval::top());
            // No recorded caller: the function is never invoked; top
            // keeps its (vacuous) facts sound.
            if (!top[f] && !argSeed[f].empty())
                args = argSeed[f];
            fr.args = args;

            FunctionRangeAnalyzer fa(m, f, args);
            if (!fa.solve()) {
                // Iteration cap: discard this function's facts, but
                // still account for its calls. Skipping them would
                // leave a callee that also has successfully-analyzed
                // callers seeded from only those callers' (narrower)
                // joins — an unsound under-approximation. Degrade
                // every callee's seed to top instead.
                for (uint32_t c : cg.callees(f)) {
                    std::vector<Interval> targs(
                        m.funcType(c).params.size(),
                        Interval::top());
                    auto [it, inserted] =
                        contrib.try_emplace(c, std::move(targs));
                    if (!inserted)
                        it->second.assign(it->second.size(),
                                          Interval::top());
                }
                continue;
            }
            fr.analyzed = true;
            RangeSink sink;
            sink.fr = &fr;
            sink.callArgs = &contrib;
            fa.collect(sink);
            for (MemAccess &a : fr.accesses) {
                uint64_t end = static_cast<uint64_t>(a.addr.hi) +
                               a.offset + a.width;
                a.proven = mr.hasMemory && end <= minBytes;
            }
        }
    };

    // An SCC's level is the longest path to it from a source SCC, so
    // all its callers sit on lower levels. Tarjan ids are
    // reverse-topological: descending ids meet every caller first.
    std::vector<uint32_t> level(num_sccs, 0);
    std::vector<std::vector<uint32_t>> levels;
    for (uint32_t sid = num_sccs; sid-- > 0;) {
        for (uint32_t p : scc.preds[sid])
            level[sid] = std::max(level[sid], level[p] + 1);
        if (level[sid] == levels.size())
            levels.emplace_back();
        levels[level[sid]].push_back(sid);
    }

    std::vector<Contrib> contrib;
    for (const std::vector<uint32_t> &sids : levels) {
        contrib.assign(sids.size(), Contrib{});
        support::parallelFor(
            sids.size(), support::workerCount(num_threads, sids.size()),
            [&](size_t k, unsigned) { solveScc(sids[k], contrib[k]); });
        for (const Contrib &c : contrib) {
            for (const auto &[callee, args] : c) {
                std::vector<Interval> &seed = argSeed[callee];
                if (seed.empty()) {
                    seed = args;
                } else {
                    for (size_t k = 0; k < seed.size(); ++k)
                        seed[k] = hull(seed[k], args[k]);
                }
            }
        }
    }
    return mr;
}

// ----- views -------------------------------------------------------------

namespace {

std::string
ivJson(const Interval &iv)
{
    return "[" + std::to_string(iv.lo) + "," + std::to_string(iv.hi) +
           "]";
}

std::string
ivLabel(const Interval &iv)
{
    if (iv.isTop())
        return "T";
    if (iv.isConst())
        return std::to_string(iv.lo);
    return "[" + std::to_string(iv.lo) + "," + std::to_string(iv.hi) +
           "]";
}

} // namespace

std::string
rangesToJson(const Module &m, const ModuleRanges &mr)
{
    std::string out = "{\"schema\":\"wasabi-ranges\",\"version\":1";
    out += ",\"memory\":{\"present\":";
    out += mr.hasMemory ? "true" : "false";
    out += ",\"minPages\":" + std::to_string(mr.minPages) + "}";
    out += ",\"functions\":[";
    for (uint32_t f = 0; f < mr.functions.size(); ++f) {
        const FunctionRanges &fr = mr.functions[f];
        if (f)
            out += ",";
        out += "{\"func\":" + std::to_string(f);
        out += ",\"imported\":";
        out += m.functions[f].imported() ? "true" : "false";
        out += ",\"analyzed\":";
        out += fr.analyzed ? "true" : "false";
        out += ",\"args\":[";
        for (size_t k = 0; k < fr.args.size(); ++k) {
            if (k)
                out += ",";
            out += ivJson(fr.args[k]);
        }
        out += "],\"accesses\":[";
        uint32_t proven = 0;
        for (size_t k = 0; k < fr.accesses.size(); ++k) {
            const MemAccess &a = fr.accesses[k];
            if (k)
                out += ",";
            out += "{\"instr\":" + std::to_string(a.instr);
            out += std::string(",\"kind\":\"") +
                   (a.isStore ? "store" : "load") + "\"";
            out += ",\"offset\":" + std::to_string(a.offset);
            out += ",\"width\":" + std::to_string(a.width);
            out += ",\"addr\":" + ivJson(a.addr);
            out += ",\"proven\":";
            out += a.proven ? "true" : "false";
            out += "}";
            proven += a.proven ? 1 : 0;
        }
        out += "],\"divByZero\":[";
        for (size_t k = 0; k < fr.divByZero.size(); ++k) {
            if (k)
                out += ",";
            out += std::to_string(fr.divByZero[k]);
        }
        out += "],\"deadGuards\":[";
        for (size_t k = 0; k < fr.deadGuards.size(); ++k) {
            if (k)
                out += ",";
            out += "{\"instr\":" +
                   std::to_string(fr.deadGuards[k].instr) +
                   ",\"value\":" +
                   std::to_string(fr.deadGuards[k].value) + "}";
        }
        out += "],\"provenAccesses\":" + std::to_string(proven);
        out += ",\"totalAccesses\":" +
               std::to_string(fr.accesses.size());
        out += "}";
    }
    out += "]}";
    return out;
}

std::string
rangesDot(const Module &m, const ModuleRanges &mr, uint32_t func_idx)
{
    std::string out = "digraph ranges {\n  node [shape=box, "
                      "fontname=\"monospace\"];\n";
    if (func_idx >= mr.functions.size()) {
        out += "}\n";
        return out;
    }
    const FunctionRanges &fr = mr.functions[func_idx];
    Cfg cfg(m, func_idx);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock &blk = cfg.blocks()[b];
        std::string label = "b" + std::to_string(b);
        if (!blk.empty())
            label += " [" + std::to_string(blk.first) + "," +
                     std::to_string(blk.last) + "]";
        bool reached =
            b < fr.blockReached.size() && fr.blockReached[b];
        if (reached) {
            for (size_t k = 0; k < fr.blockIn[b].size(); ++k) {
                const Interval &iv = fr.blockIn[b][k];
                if (iv.isTop())
                    continue;
                label += "\\nl" + std::to_string(k) + "=" +
                         ivLabel(iv);
            }
        } else {
            label += "\\n(unreached)";
        }
        out += "  n" + std::to_string(b) + " [label=\"" + label +
               "\"";
        if (!reached)
            out += ", style=dashed";
        out += "];\n";
    }
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        for (uint32_t s : cfg.succs(b))
            out += "  n" + std::to_string(b) + " -> n" +
                   std::to_string(s) + ";\n";
    }
    out += "}\n";
    return out;
}

} // namespace wasabi::static_analysis::passes
