/**
 * @file
 * The dataflow problems behind constantFacts (constprop.cc) and
 * deadStores (deadstore.cc), and the steps that turn a solution into
 * facts. The kernels solve them with solveForward / solveBackward;
 * they are declared here so that another solver (the round-robin
 * reference of the solver oracle test) can solve the very same
 * problems and be compared fact for fact.
 */

#ifndef WASABI_STATIC_PASSES_PROBLEMS_H
#define WASABI_STATIC_PASSES_PROBLEMS_H

#include <cstdint>
#include <optional>
#include <vector>

#include "static/cfg.h"
#include "static/dataflow.h"
#include "static/passes/constprop.h"
#include "static/passes/deadstore.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::passes {

/** One abstract value: a known i32 constant or unknown (⊤). Values of
 * other types are always unknown; that is sound, just imprecise. */
using AbsConst = std::optional<uint32_t>;

/** The constant-propagation lattice element: reached flag (⊥ when
 * false) plus one abstract constant per local. */
struct LocalsValue {
    bool reached = false;
    std::vector<AbsConst> locals;
};

/** Forward constant propagation over one function's locals (the
 * problem signature of solveForward). Monotone: a less precise
 * in-value never yields a more precise out-value. */
class ConstPropProblem {
  public:
    using Value = LocalsValue;

    ConstPropProblem(const wasm::Module &m, uint32_t func_idx);

    Value boundary() const;
    Value initial() const { return Value{}; }
    bool merge(Value &into, const Value &from) const;
    void transfer(const Cfg &cfg, uint32_t b, const Value &in,
                  Value &out);

    /**
     * Symbolically execute one basic block over @p locals, tracking a
     * block-local operand stack, and record the block's branch
     * controls in controls(). Values flowing in on the operand stack
     * from outside the block are unknown (pop on empty yields ⊤), as
     * is anything crossing a structural boundary — sound and cheap,
     * and enough for the `const; br_if` / folded-expression shapes
     * real producers emit.
     */
    void simulate(const BasicBlock &blk, std::vector<AbsConst> &locals);

    /** Per instruction, the value of the branch control (br_if/if
     * condition, br_table/call_indirect index) seen by the latest
     * simulation of its block; nullopt when unknown or never
     * simulated. */
    const std::vector<AbsConst> &controls() const { return control_; }

  private:
    const wasm::Module &m_;
    const std::vector<wasm::Instr> &body_;
    std::vector<wasm::ValType> localTypes_;
    uint32_t numParams_ = 0;
    std::vector<AbsConst> control_;
    /** The operand stack, reused across simulate calls. */
    std::vector<AbsConst> stack_;
};

/** The facts of a solved ConstPropProblem: the known @p controls of
 * the blocks reached in @p in. Requires that each reached block's
 * latest simulation ran on its in-value in @p in. */
ConstFacts constFactsOf(const wasm::Module &m, const Cfg &cfg,
                        const std::vector<AbsConst> &controls,
                        const std::vector<LocalsValue> &in);

/** Backward liveness of locals (the problem signature of
 * solveBackward): gen at local.get, kill at local.set/tee. local.tee
 * reads the operand stack, not the local, so it kills without
 * generating. */
class LivenessProblem {
  public:
    using Value = BitSet;

    LivenessProblem(const std::vector<wasm::Instr> &body,
                    uint32_t num_locals)
        : body_(body), numLocals_(num_locals)
    {
    }

    Value boundary() const { return BitSet(numLocals_); }
    Value initial() const { return BitSet(numLocals_); }

    bool
    merge(Value &into, const Value &from) const
    {
        return into.unionWith(from);
    }

    void transfer(const Cfg &cfg, uint32_t b, const Value &out,
                  Value &live) const;

  private:
    const std::vector<wasm::Instr> &body_;
    uint32_t numLocals_;
};

/** The dead stores of a solved LivenessProblem over @p cfg, given the
 * out-value of every block: `local.set`s in reachable blocks whose
 * local is not live after them, in instruction order. */
std::vector<DeadStore> deadStoresOf(const wasm::Module &m, const Cfg &cfg,
                                    const std::vector<BitSet> &out);

} // namespace wasabi::static_analysis::passes

#endif // WASABI_STATIC_PASSES_PROBLEMS_H
