/**
 * @file
 * Parser for the WebAssembly text format (WAT) — a practical subset
 * sufficient for hand-written test modules and for everything this
 * repository's printer emits:
 *
 *  - (module ...) with func/memory/table/global/type/import/export/
 *    start/elem/data fields,
 *  - inline (export "name") and (import "m" "n") abbreviations,
 *  - $identifiers for functions, types, locals, globals and block
 *    labels,
 *  - both the *flat* instruction form (block ... end) and the
 *    *folded* s-expression form ((i32.add (i32.const 1) (local.get 0))),
 *  - decimal and hex integers (with _ separators), decimal floats,
 *    inf/-inf/nan.
 *
 * Not supported (rejected with ParseError): multiple results per
 * block, quoted/binary modules, SIMD/reference-type syntax.
 */

#ifndef WASABI_WASM_WAT_PARSER_H
#define WASABI_WASM_WAT_PARSER_H

#include <cstddef>
#include <stdexcept>
#include <string>

#include "wasm/module.h"

namespace wasabi::wasm {

/** Error thrown on malformed WAT input, with line/column. */
class ParseError : public std::runtime_error {
  public:
    ParseError(const std::string &what, int line, int col)
        : std::runtime_error("wat parse error at " + std::to_string(line) +
                             ":" + std::to_string(col) + ": " + what),
          line(line), col(col)
    {
    }

    int line;
    int col;
};

/**
 * Deepest nesting parseWat() accepts, counted separately for
 * s-expression lists and for blocks (folded or flat). Both are parsed
 * recursively, so deeper input is a ParseError rather than a host
 * stack overflow.
 */
inline constexpr size_t kMaxWatNesting = 1000;

/** Parse a complete (module ...) from WAT text. */
Module parseWat(const std::string &text);

} // namespace wasabi::wasm

#endif // WASABI_WASM_WAT_PARSER_H
