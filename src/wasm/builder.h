/**
 * @file
 * A fluent builder DSL for constructing WebAssembly modules in C++.
 * Used by the workload generators (PolyBench kernels, synthetic apps)
 * and by tests to author modules without hand-writing binaries.
 */

#ifndef WASABI_WASM_BUILDER_H
#define WASABI_WASM_BUILDER_H

#include <functional>
#include <string>

#include "wasm/module.h"

namespace wasabi::wasm {

class ModuleBuilder;

/**
 * Builds the body of one function. Obtained from
 * ModuleBuilder::startFunction(); every instruction helper appends one
 * instruction and returns *this for chaining. Control-flow helpers
 * track nesting depth so that finish() can verify balance.
 */
class FunctionBuilder {
  public:
    /** Append an arbitrary instruction. */
    FunctionBuilder &emit(Instr instr);

    /** Append an instruction without immediate. */
    FunctionBuilder &op(Opcode o) { return emit(Instr(o)); }

    /** Allocate a fresh (non-parameter) local of type @p t. */
    uint32_t addLocal(ValType t);

    /** Constants. @{ */
    FunctionBuilder &i32Const(int32_t v)
    {
        return emit(Instr::i32Const(static_cast<uint32_t>(v)));
    }
    FunctionBuilder &i64Const(int64_t v)
    {
        return emit(Instr::i64Const(static_cast<uint64_t>(v)));
    }
    FunctionBuilder &f32Const(float v) { return emit(Instr::f32Const(v)); }
    FunctionBuilder &f64Const(double v) { return emit(Instr::f64Const(v)); }
    /** @} */

    /** Locals and globals. @{ */
    FunctionBuilder &localGet(uint32_t i) { return emit(Instr::localGet(i)); }
    FunctionBuilder &localSet(uint32_t i) { return emit(Instr::localSet(i)); }
    FunctionBuilder &localTee(uint32_t i) { return emit(Instr::localTee(i)); }
    FunctionBuilder &globalGet(uint32_t i)
    {
        return emit(Instr::globalGet(i));
    }
    FunctionBuilder &globalSet(uint32_t i)
    {
        return emit(Instr::globalSet(i));
    }
    /** @} */

    /** Memory accesses (align defaults to natural). @{ */
    FunctionBuilder &load(Opcode o, uint32_t offset = 0, uint32_t align = 0)
    {
        return emit(Instr::memOp(o, align, offset));
    }
    FunctionBuilder &store(Opcode o, uint32_t offset = 0, uint32_t align = 0)
    {
        return emit(Instr::memOp(o, align, offset));
    }
    FunctionBuilder &i32Load(uint32_t offset = 0)
    {
        return load(Opcode::I32Load, offset, 2);
    }
    FunctionBuilder &i32Store(uint32_t offset = 0)
    {
        return store(Opcode::I32Store, offset, 2);
    }
    FunctionBuilder &i64Load(uint32_t offset = 0)
    {
        return load(Opcode::I64Load, offset, 3);
    }
    FunctionBuilder &i64Store(uint32_t offset = 0)
    {
        return store(Opcode::I64Store, offset, 3);
    }
    FunctionBuilder &f64Load(uint32_t offset = 0)
    {
        return load(Opcode::F64Load, offset, 3);
    }
    FunctionBuilder &f64Store(uint32_t offset = 0)
    {
        return store(Opcode::F64Store, offset, 3);
    }
    /** @} */

    /** Control flow. @{ */
    FunctionBuilder &block(BlockType bt = std::nullopt);
    FunctionBuilder &loop(BlockType bt = std::nullopt);
    FunctionBuilder &if_(BlockType bt = std::nullopt);
    FunctionBuilder &else_();
    FunctionBuilder &end();
    FunctionBuilder &br(uint32_t label) { return emit(Instr::br(label)); }
    FunctionBuilder &brIf(uint32_t label)
    {
        return emit(Instr::brIf(label));
    }
    /** br_table: the labels go to the function's label pool. */
    FunctionBuilder &brTable(const std::vector<uint32_t> &labels,
                             uint32_t default_label);
    FunctionBuilder &call(uint32_t func) { return emit(Instr::call(func)); }
    FunctionBuilder &callIndirect(uint32_t type_idx)
    {
        return emit(Instr::callIndirect(type_idx));
    }
    FunctionBuilder &ret() { return op(Opcode::Return); }
    FunctionBuilder &unreachable() { return op(Opcode::Unreachable); }
    FunctionBuilder &nop() { return op(Opcode::Nop); }
    FunctionBuilder &drop() { return op(Opcode::Drop); }
    FunctionBuilder &select() { return op(Opcode::Select); }
    /** @} */

    /**
     * Emit a counted loop: `for (local = from; local < to; local +=
     * step) body()`. The loop variable is an existing i32 local.
     */
    FunctionBuilder &forLoop(uint32_t local, int32_t from, int32_t to,
                             const std::function<void()> &body,
                             int32_t step = 1);

    /**
     * Close the function: appends the final `end`, checks balance,
     * and registers it with the module. Returns the function index.
     */
    uint32_t finish();

    /** Number of parameters (locals [0, numParams) are params). */
    uint32_t numParams() const { return numParams_; }

  private:
    friend class ModuleBuilder;

    FunctionBuilder(ModuleBuilder &mb, uint32_t func_idx,
                    uint32_t num_params)
        : mb_(mb), funcIdx_(func_idx), numParams_(num_params)
    {
    }

    ModuleBuilder &mb_;
    uint32_t funcIdx_;
    uint32_t numParams_;
    int depth_ = 0;
    bool finished_ = false;
};

/**
 * Builds a whole module. All import-adding methods must be called
 * before the corresponding defined entities are added (binary index
 * spaces put imports first).
 */
class ModuleBuilder {
  public:
    ModuleBuilder();

    /** Add (or find) a function type. */
    uint32_t type(const FuncType &t) { return m_.addType(t); }

    /** Import a function; returns its function index. */
    uint32_t importFunction(const std::string &module,
                            const std::string &name, const FuncType &type);

    /**
     * Start a defined function. At most one function may be under
     * construction at a time; call FunctionBuilder::finish() before
     * starting the next.
     */
    FunctionBuilder startFunction(const FuncType &type,
                                  const std::string &export_name = "",
                                  const std::string &debug_name = "");

    /** Define a function via a callback; returns the function index. */
    uint32_t addFunction(const FuncType &type,
                         const std::string &export_name,
                         const std::function<void(FunctionBuilder &)> &fill);

    /** Define a memory; returns its index (always 0 in MVP). */
    uint32_t memory(uint32_t min_pages,
                    std::optional<uint32_t> max_pages = std::nullopt,
                    const std::string &export_name = "");

    /** Define a table; returns its index (always 0 in MVP). */
    uint32_t table(uint32_t min, std::optional<uint32_t> max = std::nullopt);

    /** Define a global with a constant initial value. */
    uint32_t global(ValType t, bool mut, Value init,
                    const std::string &export_name = "");

    /** Add an active element segment at constant offset. */
    void elem(uint32_t offset, std::vector<uint32_t> func_idxs);

    /** Add an active data segment at constant offset. */
    void data(uint32_t offset, std::vector<uint8_t> bytes);

    /** Set the start function. */
    void start(uint32_t func_idx) { m_.start = func_idx; }

    /** Finish and return the module (builder becomes empty). */
    Module build();

    /** Access to the module under construction (for tests). */
    Module &module() { return m_; }

  private:
    friend class FunctionBuilder;

    Module m_;
    bool functionOpen_ = false;
};

} // namespace wasabi::wasm

#endif // WASABI_WASM_BUILDER_H
