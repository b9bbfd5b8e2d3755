/**
 * @file
 * Encoder from the Module AST to the WebAssembly binary format (MVP,
 * version 1). The output of encodeModule(decodeModule(b)) is
 * semantically identical to b (byte-identical up to LEB128 padding and
 * custom-section placement).
 */

#ifndef WASABI_WASM_ENCODER_H
#define WASABI_WASM_ENCODER_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "wasm/module.h"

namespace wasabi::wasm {

/** Error thrown when a module violates encodability invariants
 * (e.g. an imported function appearing after a defined one). */
class EncodeError : public std::runtime_error {
  public:
    explicit EncodeError(const std::string &what)
        : std::runtime_error("encode error: " + what)
    {
    }
};

/** Encode a module to binary. */
std::vector<uint8_t> encodeModule(const Module &m);

/**
 * The instructions of a module's defined functions, as the code
 * section lays them out. The encoder writes each code entry's size and
 * locals header itself (from Function::locals) and asks the writer for
 * the rest: first size() of every defined function, so that it can
 * write the section in place, then write() of each one once, in index
 * order. A writer may release a function's bytes once it wrote them.
 */
class BodyWriter {
  public:
    virtual ~BodyWriter() = default;
    /** Byte size of function @p func_idx's instructions, the final
     * `end` included. */
    virtual size_t size(uint32_t func_idx) = 0;
    /** Append function @p func_idx's instructions to @p out. */
    virtual void write(std::vector<uint8_t> &out, uint32_t func_idx) = 0;
};

/** Encode @p m with the instructions of its defined functions taken
 * from @p bodies instead of Function::body (which is not read).
 * encodeModule(m) is this with a writer that encodes Function::body. */
std::vector<uint8_t> encodeModule(const Module &m, BodyWriter &bodies);

/** Encode a single instruction (exposed for tests); a br_table reads
 * its labels from its function's label @p pool. */
void encodeInstr(std::vector<uint8_t> &out, const Instr &instr,
                 std::span<const uint32_t> pool = {});

/** Size of one top-level section in an encoded module. */
struct SectionSize {
    uint8_t id = 0;       ///< section id (0 = custom)
    std::string name;     ///< "type", "code", ...; custom section name
    size_t bytes = 0;     ///< full section size incl. header
};

/**
 * Per-section byte sizes of an encoded module (the `wasabi opt` size
 * report). Throws DecodeError on a malformed section layout.
 */
std::vector<SectionSize> sectionSizes(const std::vector<uint8_t> &bytes);

} // namespace wasabi::wasm

#endif // WASABI_WASM_ENCODER_H
