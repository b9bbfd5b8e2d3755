/**
 * @file
 * Decoder from the WebAssembly binary format (MVP, version 1) to the
 * in-memory Module AST. Throws DecodeError on malformed input.
 */

#ifndef WASABI_WASM_DECODER_H
#define WASABI_WASM_DECODER_H

#include <cstdint>
#include <vector>

#include "wasm/module.h"

namespace wasabi::wasm {

/**
 * Decode a complete binary module. Function bodies are decoded on
 * @p workers workers (support::workerCount; 0 = one per CPU); the
 * result, or the DecodeError thrown, is the same for any count.
 */
Module decodeModule(const std::vector<uint8_t> &bytes,
                    unsigned workers = 1);

/** Decode a complete binary module from a raw buffer. */
Module decodeModule(const uint8_t *data, size_t size,
                    unsigned workers = 1);

} // namespace wasabi::wasm

#endif // WASABI_WASM_DECODER_H
