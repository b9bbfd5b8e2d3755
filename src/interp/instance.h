/**
 * @file
 * Module instances: runtime state (linear memory, table, globals) of
 * an instantiated module, plus the Linker used to resolve imports to
 * host functions.
 *
 * This is the execution-platform substrate of the reproduction: where
 * the paper runs instrumented binaries in a browser engine with hooks
 * imported from JavaScript, we run them on this engine with hooks
 * imported as C++ host functions.
 */

#ifndef WASABI_INTERP_INSTANCE_H
#define WASABI_INTERP_INSTANCE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "interp/trap.h"
#include "wasm/module.h"

namespace wasabi::interp {

namespace engine {
class CompiledModule;
}

class Instance;

/**
 * A host (imported) function. Receives the calling instance, its
 * arguments, and appends its results to @p results.
 */
using HostFunc = std::function<void(Instance &, std::span<const wasm::Value>,
                                    std::vector<wasm::Value> &)>;

/** Error thrown when instantiation cannot resolve an import. */
class LinkError : public std::runtime_error {
  public:
    explicit LinkError(const std::string &what)
        : std::runtime_error("link error: " + what)
    {
    }
};

/** Resolves (module, name) import pairs to host functions. */
class Linker {
  public:
    /** Register a host function under (module, name). */
    void
    func(const std::string &module, const std::string &name, HostFunc f)
    {
        funcs_[{module, name}] = std::move(f);
    }

    /** Look up a host function; nullptr if absent. */
    const HostFunc *
    find(const std::string &module, const std::string &name) const
    {
        auto it = funcs_.find({module, name});
        return it == funcs_.end() ? nullptr : &it->second;
    }

    /** Copy all registrations of @p other into this linker. */
    void
    merge(const Linker &other)
    {
        for (const auto &[key, fn] : other.funcs_)
            funcs_[key] = fn;
    }

  private:
    std::map<std::pair<std::string, std::string>, HostFunc> funcs_;
};

/** Bounds-checked little-endian linear memory. */
class LinearMemory {
  public:
    LinearMemory() = default;

    explicit LinearMemory(const wasm::Limits &limits)
        : limits_(limits),
          bytes_(static_cast<size_t>(limits.min) * wasm::kPageSize)
    {
    }

    /** Current size in pages. */
    uint32_t
    sizePages() const
    {
        return static_cast<uint32_t>(bytes_.size() / wasm::kPageSize);
    }

    size_t sizeBytes() const { return bytes_.size(); }

    /**
     * Grow by @p delta pages; returns the previous size in pages, or
     * 0xFFFFFFFF on failure — exactly the memory.grow semantics.
     * A grow beyond the page quota (below) fails the same way and is
     * counted in quotaDenials().
     */
    uint32_t grow(uint32_t delta);

    /**
     * Per-request page quota (multi-tenant serving): when set, grow
     * fails (spec-conformant -1, never a trap) once the new size would
     * exceed @p pages, even if the module's declared max allows it.
     * nullopt = no quota. Denials are counted so a later
     * MemoryOutOfBounds trap can be attributed to the quota.
     */
    void
    setPageQuota(std::optional<uint32_t> pages)
    {
        pageQuota_ = pages;
    }
    std::optional<uint32_t> pageQuota() const { return pageQuota_; }

    /** Number of grow attempts denied by the page quota. */
    uint64_t quotaDenials() const { return quotaDenials_; }
    void resetQuotaDenials() { quotaDenials_ = 0; }

    /** Read @p n bytes at effective address @p addr (+ @p offset). */
    const uint8_t *readPtr(uint32_t addr, uint32_t offset, size_t n) const;

    /** Writable pointer with the same bounds checking. */
    uint8_t *writePtr(uint32_t addr, uint32_t offset, size_t n);

    /** Fixed-width little-endian accessors. @{ */
    uint64_t readLE(uint32_t addr, uint32_t offset, size_t n) const;
    void writeLE(uint32_t addr, uint32_t offset, size_t n, uint64_t v);
    /** @} */

    std::vector<uint8_t> &raw() { return bytes_; }
    const std::vector<uint8_t> &raw() const { return bytes_; }

  private:
    wasm::Limits limits_;
    std::vector<uint8_t> bytes_;
    std::optional<uint32_t> pageQuota_;
    uint64_t quotaDenials_ = 0;
};

/** A table of function indices (nullopt = uninitialized element). */
class FuncTable {
  public:
    FuncTable() = default;

    explicit FuncTable(const wasm::Limits &limits)
        : limits_(limits), entries_(limits.min)
    {
    }

    size_t size() const { return entries_.size(); }

    std::optional<uint32_t>
    get(uint32_t idx) const
    {
        if (idx >= entries_.size())
            throw Trap(TrapKind::TableOutOfBounds);
        return entries_[idx];
    }

    void
    set(uint32_t idx, uint32_t func_idx)
    {
        if (idx >= entries_.size())
            throw Trap(TrapKind::TableOutOfBounds);
        entries_[idx] = func_idx;
    }

    /** Raw entries, for snapshot/restore (instance pooling). */
    const std::vector<std::optional<uint32_t>> &
    entries() const
    {
        return entries_;
    }
    void
    setEntries(std::vector<std::optional<uint32_t>> entries)
    {
        entries_ = std::move(entries);
    }

  private:
    wasm::Limits limits_;
    std::vector<std::optional<uint32_t>> entries_;
};

/**
 * Per-function control side table: for each block-opening instruction,
 * the index of its matching `end` (and `else`, if any). Computed once
 * per function on first execution.
 */
struct ControlSideTable {
    struct Entry {
        uint32_t endIdx = 0;
        std::optional<uint32_t> elseIdx;
    };
    /** Keyed by instruction index of the block/loop/if. */
    std::vector<Entry> byInstr; // sparse: valid where opcode opens block
    bool computed = false;
};

/**
 * Post-start runtime state of an instance, captured for instance
 * pooling (DESIGN.md §13): everything instantiation computes that a
 * later request can mutate. Restoring a snapshot onto a pooled
 * instance is byte-equivalent to re-instantiating — segments applied,
 * start function run — without re-doing any of that work.
 */
struct InstanceSnapshot {
    std::vector<uint8_t> memory;
    std::vector<wasm::Value> globals;
    std::vector<std::optional<uint32_t>> table;
};

/**
 * An instantiated module: a shared immutable module AST plus all
 * per-instance mutable runtime state. The module is shared (not
 * copied) so a multi-tenant server can run many instances — and a
 * content-hash cache can hold one decoded copy — of the same module;
 * everything request-mutable (memory, globals, table, fuel, the
 * translation cache) lives per instance.
 * Instantiation applies data/element segments and runs the start
 * function (via the Interpreter).
 */
class Instance {
  public:
    /**
     * Instantiate @p module, resolving imports through @p linker.
     * The shared_ptr overload shares the module; the by-value
     * overload copies it into a fresh shared owner (the historical
     * behavior, kept for the many single-instance callers).
     * @p pre_start, if given, runs after all state is set up but
     * before the start function executes — the attachment point for
     * engine-intrinsic instrumentation, which must observe the start
     * function's hooks (rewrite mode gets this for free because its
     * hooks are imports, resolved before the start runs).
     * @throws LinkError on unresolvable imports, Trap on failing
     * segment bounds or a trapping start function.
     */
    static std::unique_ptr<Instance>
    instantiate(std::shared_ptr<const wasm::Module> module,
                const Linker &linker,
                const std::function<void(Instance &)> &pre_start = {});

    static std::unique_ptr<Instance>
    instantiate(wasm::Module module, const Linker &linker,
                const std::function<void(Instance &)> &pre_start = {})
    {
        return instantiate(std::make_shared<const wasm::Module>(
                               std::move(module)),
                           linker, pre_start);
    }

    ~Instance(); // out of line: engine::CompiledModule is incomplete here

    const wasm::Module &module() const { return *module_; }

    /** The shared immutable module this instance runs (never null). */
    const std::shared_ptr<const wasm::Module> &
    sharedModule() const
    {
        return module_;
    }

    LinearMemory &memory() { return memory_; }
    const LinearMemory &memory() const { return memory_; }

    FuncTable &table() { return table_; }
    const FuncTable &table() const { return table_; }

    wasm::Value
    globalGet(uint32_t idx) const
    {
        return globals_.at(idx);
    }

    void
    globalSet(uint32_t idx, wasm::Value v)
    {
        globals_.at(idx) = v;
    }

    /** Host function bound to imported function @p func_idx. */
    const HostFunc &hostFunc(uint32_t func_idx) const;

    /** Lazily computed control side table for a defined function. */
    const ControlSideTable &sideTable(uint32_t func_idx);

    /** Raw globals storage (for the fast engine's hoisted pointer). */
    wasm::Value *globalsData() { return globals_.data(); }

    /** Lazily built fast-engine code cache for this instance. */
    engine::CompiledModule &engineCode();

    /**
     * Execution fuel: every executed instruction costs 1; when the
     * budget reaches zero execution traps with FuelExhausted.
     * Default: no limit.
     */
    void setFuel(std::optional<uint64_t> fuel) { fuel_ = fuel; }
    std::optional<uint64_t> &fuel() { return fuel_; }

    /**
     * Capture the mutable post-start state (memory, globals, table)
     * for instance pooling. The fuel budget and quota counters are
     * per-request configuration, not program state, and are excluded.
     */
    InstanceSnapshot snapshot() const;

    /**
     * Restore a snapshot taken from an instance of the *same* module:
     * memory is resized back (undoing any memory.grow), globals and
     * table entries are overwritten, fuel and the memory quota are
     * cleared. Cached translations and side tables are keyed to the
     * immutable module and stay valid — that retention is exactly the
     * warm-instance win of the serve pool.
     */
    void restore(const InstanceSnapshot &snap);

  private:
    friend class Interpreter;

    Instance() = default;

    std::shared_ptr<const wasm::Module> module_;
    std::vector<HostFunc> hostFuncs_; ///< indexed by imported func idx
    LinearMemory memory_;
    FuncTable table_;
    std::vector<wasm::Value> globals_;
    std::vector<ControlSideTable> sideTables_;
    std::unique_ptr<engine::CompiledModule> engineCode_;
    std::optional<uint64_t> fuel_;
};

} // namespace wasabi::interp

#endif // WASABI_INTERP_INSTANCE_H
