/**
 * @file
 * WAT-style text rendering of modules, functions and instructions,
 * mainly for debugging, tests and example output.
 */

#ifndef WASABI_WASM_PRINTER_H
#define WASABI_WASM_PRINTER_H

#include <string>

#include "wasm/module.h"

namespace wasabi::wasm {

/** Render one instruction, e.g. "i32.const 42" or "br_table 0 1 2";
 * a br_table reads its labels from its function's label @p pool. */
std::string toString(const Instr &instr,
                     std::span<const uint32_t> pool = {});

/** Render a function (header, locals and indented body). */
std::string toString(const Module &m, uint32_t func_idx);

/** Render a whole module. */
std::string toString(const Module &m);

} // namespace wasabi::wasm

#endif // WASABI_WASM_PRINTER_H
