/**
 * @file
 * The execution engine: a structured-control-flow interpreter over the
 * flat instruction representation, using per-function control side
 * tables to resolve block ends and else branches.
 */

#ifndef WASABI_INTERP_INTERPRETER_H
#define WASABI_INTERP_INTERPRETER_H

#include <span>
#include <string>
#include <vector>

#include "interp/instance.h"

namespace wasabi::interp {

/** Cheap execution counters, maintained on paths that already touch
 * adjacent state (fuel, the instruction counter); the observability
 * layer snapshots them after a run. */
struct ExecStats {
    uint64_t instructions = 0; ///< instructions retired
    uint64_t calls = 0;        ///< call + call_indirect executed
    uint64_t memoryOps = 0;    ///< load/store/memory.size/memory.grow
    uint64_t traps = 0;        ///< traps propagated out of invoke()
};

/** Selects which execution engine an Interpreter runs on. */
enum class EngineKind : uint8_t {
    /** Pre-decoded engine: flat internal code with fused side table,
     * contiguous value stack, batched accounting (the default). */
    Fast,
    /** The original structured tree walker, kept as the differential
     * oracle (`--engine=legacy`). */
    Legacy,
};

/**
 * Executes functions of an Instance. Stateless between invocations
 * apart from configuration, so one Interpreter can be reused.
 */
class Interpreter {
  public:
    /** Maximum nested call depth before CallStackExhausted. */
    size_t maxCallDepth = 1000;

    /** Execution engine; both are observationally identical (results,
     * trap kinds, fuel, ExecStats), enforced by the differential
     * tests. */
    EngineKind engine = EngineKind::Fast;

    /** Invoke function @p func_idx with @p args; returns its results.
     * @throws Trap on any trapping execution. */
    std::vector<wasm::Value> invoke(Instance &inst, uint32_t func_idx,
                                    std::span<const wasm::Value> args);

    /** Invoke an exported function by name. */
    std::vector<wasm::Value> invokeExport(Instance &inst,
                                          const std::string &name,
                                          std::span<const wasm::Value> args);

    /** Total instructions executed by this interpreter (statistics). */
    uint64_t instructionsExecuted() const { return stats_.instructions; }

    /** All execution counters accumulated by this interpreter. */
    const ExecStats &stats() const { return stats_; }

  private:
    std::vector<wasm::Value> callFunction(Instance &inst, uint32_t func_idx,
                                          std::span<const wasm::Value> args,
                                          size_t depth);

    ExecStats stats_;
};

} // namespace wasabi::interp

#endif // WASABI_INTERP_INTERPRETER_H
