/**
 * @file
 * The one JSON reader of the tree, a minimal recursive-descent parser
 * into a small tagged tree. It backs every reader of JSON input: the
 * opt claim manifest (`wasabi check --manifest=`, see
 * static/manifest.h), `serve` request lines, profile schema validation
 * (`wasabi profile --check=`) and trace-event checks in tests. The
 * writers emit JSON by hand and share escape(). Not a general-purpose
 * JSON library: numbers are doubles, and input size is bounded by the
 * caller. \uXXXX escapes decode to UTF-8, including surrogate pairs;
 * lone or malformed surrogates are rejected.
 */

#ifndef WASABI_SUPPORT_JSON_H
#define WASABI_SUPPORT_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wasabi::json {

/** One parsed JSON value (a small tagged tree). */
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<Value> array;
    /** Insertion-ordered key/value pairs. */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member of an object by key; nullptr if absent (or not an
     * object). */
    const Value *find(const std::string &key) const;

    /** The number as an unsigned integer: nullopt unless it is
     * integral and in [0, @p max]. Never rounds or clamps. */
    std::optional<uint64_t> asUInt(uint64_t max = UINT64_MAX) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). Returns nullopt and fills @p error
 * (if non-null) on malformed input.
 */
std::optional<Value> parse(const std::string &text, std::string *error);

/** Escape @p s for embedding between the quotes of a JSON string:
 * quote, backslash and control characters; other bytes pass through. */
std::string escape(const std::string &s);

} // namespace wasabi::json

#endif // WASABI_SUPPORT_JSON_H
