/**
 * @file
 * The module AST: types, functions, globals, tables, memories, element
 * and data segments, start function, and custom sections.
 *
 * Index spaces follow the binary format: imported entities occupy the
 * low indices of each space. In this AST, each space is a single
 * vector where imported entities carry an ImportRef and no
 * body/initializer; the encoder requires all imported entities to
 * precede defined ones within each vector.
 */

#ifndef WASABI_WASM_MODULE_H
#define WASABI_WASM_MODULE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wasm/instr.h"
#include "wasm/types.h"

namespace wasabi::wasm {

/** Import source: module and field name. */
struct ImportRef {
    std::string module;
    std::string name;

    bool operator==(const ImportRef &other) const = default;
};

/**
 * Most non-parameter locals one function may declare. The decoder
 * stops at it before allocating a corrupt binary's locals; the
 * validator enforces it too, so a valid module built in memory (from
 * WAT, say) always decodes back from its own encoding.
 */
inline constexpr size_t kMaxLocals = 1000000;

/**
 * A function: either imported (no body) or defined (locals + body).
 * The body *includes* the terminating `end` instruction, mirroring the
 * binary format; instruction locations (Wasabi's `instr` index) count
 * it like any other instruction.
 */
struct Function {
    uint32_t typeIdx = 0;
    std::optional<ImportRef> import;
    /** Types of non-parameter locals, already flattened. */
    std::vector<ValType> locals;
    std::vector<Instr> body;
    /** The body's br_table labels: each br_table names its slice
     * (Instr::aux, Instr::imm.idx), default label last. */
    std::vector<uint32_t> labelPool;
    std::vector<std::string> exportNames;
    /** Optional debug name (not encoded). */
    std::string debugName;

    bool imported() const { return import.has_value(); }

    /** The labels of br_table @p in of this body, default last. */
    std::span<const uint32_t>
    labels(const Instr &in) const
    {
        return brTableLabels(labelPool, in);
    }
};

/** A global variable. */
struct Global {
    ValType type = ValType::I32;
    bool mut = false;
    std::optional<ImportRef> import;
    /** Constant initializer expression (defined globals only),
     * including the terminating `end`. */
    std::vector<Instr> init;
    std::vector<std::string> exportNames;

    bool imported() const { return import.has_value(); }
};

/** A table of function references (MVP: at most one per module). */
struct Table {
    Limits limits;
    std::optional<ImportRef> import;
    std::vector<std::string> exportNames;

    bool imported() const { return import.has_value(); }
};

/** A linear memory (MVP: at most one per module). */
struct Memory {
    Limits limits;
    std::optional<ImportRef> import;
    std::vector<std::string> exportNames;

    bool imported() const { return import.has_value(); }
};

/** An active element segment initializing part of a table. */
struct ElementSegment {
    uint32_t tableIdx = 0;
    /** Constant offset expression, including terminating `end`. */
    std::vector<Instr> offset;
    std::vector<uint32_t> funcIdxs;
};

/** An active data segment initializing part of a memory. */
struct DataSegment {
    uint32_t memIdx = 0;
    std::vector<Instr> offset;
    std::vector<uint8_t> bytes;
};

/** A custom section, preserved as raw bytes. */
struct CustomSection {
    std::string name;
    std::vector<uint8_t> bytes;
};

/** A complete WebAssembly module. */
struct Module {
    std::vector<FuncType> types;
    std::vector<Function> functions;
    std::vector<Global> globals;
    std::vector<Table> tables;
    std::vector<Memory> memories;
    std::vector<ElementSegment> elements;
    std::vector<DataSegment> data;
    std::optional<uint32_t> start;
    std::vector<CustomSection> customs;

    /**
     * Index of the given function type, adding it if not present.
     * Types are deduplicated structurally (required so that
     * call_indirect type checks keep working after instrumentation
     * appends hook types).
     */
    uint32_t addType(const FuncType &type);

    /** Function type of function @p func_idx. */
    const FuncType &funcType(uint32_t func_idx) const;

    /** Number of imported functions (= index of first defined one). */
    uint32_t numImportedFunctions() const;

    /** Total size of the function index space. */
    uint32_t numFunctions() const
    {
        return static_cast<uint32_t>(functions.size());
    }

    /** Find a function index by export name; nullopt if absent. */
    std::optional<uint32_t> findFuncExport(const std::string &name) const;

    /** The export `run`, `profile` and serve invoke when no entry is
     * named: `main`, else `kernel` (PolyBench workloads export
     * `kernel`, applications `main`). "main" when neither exists. */
    std::string defaultEntry() const;

    /** Total number of instructions across all function bodies. */
    size_t numInstructions() const;
};

} // namespace wasabi::wasm

#endif // WASABI_WASM_MODULE_H
