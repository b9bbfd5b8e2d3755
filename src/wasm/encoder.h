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
