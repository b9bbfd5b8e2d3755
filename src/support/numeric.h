/**
 * @file
 * Strict numeric token parsing for user input: command-line values,
 * generator specs and `serve` request fields. A token parses only if
 * it is one whole number in range: no leading whitespace, no trailing
 * characters, no silent wrap-around. The CLI and the serve daemon
 * share these, so both accept exactly the same tokens.
 */

#ifndef WASABI_SUPPORT_NUMERIC_H
#define WASABI_SUPPORT_NUMERIC_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wasm/types.h"

namespace wasabi::support {

/** A full-token decimal integer in [0, @p max]; nullopt otherwise. */
std::optional<uint64_t> parseUInt(std::string_view tok,
                                  uint64_t max = UINT64_MAX);

/**
 * An entry-argument spec: "i32:N" (N in -2^31 .. 2^32-1), "i64:N"
 * (N in -2^63 .. 2^64-1), "f32:X" or "f64:X" (a full decimal float,
 * `inf` and `nan` included, not out of range).
 * @throws std::invalid_argument naming @p spec.
 */
wasm::Value parseArgSpec(const std::string &spec);

} // namespace wasabi::support

#endif // WASABI_SUPPORT_NUMERIC_H
