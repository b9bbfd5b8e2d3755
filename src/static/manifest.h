/**
 * @file
 * Claim manifests: the reading/writing helpers behind the one JSON
 * manifest schema, "wasabi-opt-manifest" (rewrite/opt.h), which
 * `wasabi opt` writes and `wasabi check --manifest=` re-proves.
 *
 * A manifest is read by parsing the text once with the tree's one
 * JSON reader (support/json.h) and walking the tree, strictly: a
 * closed top-level key set with no duplicate keys, the "schema",
 * "version": 1, and numbers that are integers in [0, 2^32-1].
 */

#ifndef WASABI_STATIC_MANIFEST_H
#define WASABI_STATIC_MANIFEST_H

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.h"

namespace wasabi::static_analysis::manifest {

inline constexpr const char *kOptSchema = "wasabi-opt-manifest";

/**
 * The top-level check every reader starts with: @p doc is an object
 * whose keys are distinct and each either "version", "schema" or one
 * of @p fields; "version" is 1; and "schema" equals @p schema.
 * Returns false and sets @p error otherwise.
 */
bool checkTopLevel(const json::Value &doc, const char *schema,
                   std::initializer_list<std::string_view> fields,
                   std::string &error);

/** @p v as a u32: json::Value::asUInt bounded to 2^32-1. */
std::optional<uint32_t> toU32(const json::Value &v);

/** One row of a fixed-width u32 array; only the first `width`
 * entries are meaningful. */
using Row = std::array<uint32_t, 4>;

/**
 * Call @p each for every row of the array field @p key of @p doc
 * (absent means no rows). A row is an array of exactly @p width u32s
 * (see toU32), or a bare u32 when @p width is 1. Returns false and
 * sets @p error on the first malformed row.
 */
bool forEachRow(const json::Value &doc, const char *key, size_t width,
                const std::function<void(const Row &)> &each,
                std::string &error);

/**
 * A claim struct read from / written as a manifest row: its members,
 * in declaration order, are the row's entries (a bare u32 is a
 * one-wide row).
 */
template <typename Claim, size_t... I>
Claim
fromRow(const Row &r, std::index_sequence<I...>)
{
    return Claim{r[I]...};
}

template <size_t N, typename Claim>
std::array<uint32_t, N>
toRow(const Claim &claim)
{
    if constexpr (N == 1) {
        return {claim};
    } else if constexpr (N == 2) {
        const auto &[a, b] = claim;
        return {a, b};
    } else if constexpr (N == 3) {
        const auto &[a, b, c] = claim;
        return {a, b, c};
    } else {
        const auto &[a, b, c, d] = claim;
        return {a, b, c, d};
    }
}

/** forEachRow() appending each row to @p out as a claim. */
template <size_t N, typename Claim>
bool
readRows(const json::Value &doc, const char *key, std::vector<Claim> &out,
         std::string &error)
{
    static_assert(N >= 1 && N <= std::tuple_size_v<Row>);
    return forEachRow(
        doc, key, N,
        [&](const Row &r) {
            out.push_back(fromRow<Claim>(r, std::make_index_sequence<N>{}));
        },
        error);
}

/** "{\n  \"schema\": ...,\n  \"version\": 1" — the opening of a
 * manifest. */
std::string header(const char *schema);

/** A row as "[x, y]", or bare when one wide (as forEachRow reads it). */
template <size_t N>
void
appendItem(std::string &out, const std::array<uint32_t, N> &row)
{
    if (N > 1)
        out += '[';
    for (size_t i = 0; i < N; ++i) {
        if (i)
            out += ", ";
        out += std::to_string(row[i]);
    }
    if (N > 1)
        out += ']';
}

inline void
appendItem(std::string &out, const std::string &s)
{
    out += '"' + json::escape(s) + '"';
}

/**
 * Append `,\n  "key": [a, b, ...]` to @p out, rendering each element
 * of @p items through @p item as a row (see appendItem) or a quoted
 * string. Close the manifest with "\n}\n".
 */
template <typename Items, typename ItemFn>
void
appendField(std::string &out, const char *key, const Items &items,
            ItemFn item)
{
    out += ",\n  \"";
    out += key;
    out += "\": [";
    const char *sep = "";
    for (const auto &x : items) {
        out += sep;
        sep = ", ";
        appendItem(out, item(x));
    }
    out += ']';
}

/** appendField() of claims written as N-wide rows (see toRow). */
template <size_t N, typename Claim>
void
appendRows(std::string &out, const char *key,
           const std::vector<Claim> &claims)
{
    appendField(out, key, claims,
                [](const Claim &c) { return toRow<N>(c); });
}

} // namespace wasabi::static_analysis::manifest

#endif // WASABI_STATIC_MANIFEST_H
