#include "support/numeric.h"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace wasabi::support {

namespace {

/** Parse all of @p tok with std::from_chars. */
template <typename T>
std::optional<T>
fullToken(std::string_view tok)
{
    T v{};
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (tok.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

/** A full-token decimal integer in [@p min, @p max], which may be
 * negative: its two's-complement bits, so a width's signed and
 * unsigned readings both parse. */
std::optional<uint64_t>
parseIntBits(std::string_view tok, int64_t min, uint64_t max)
{
    if (tok.empty() || tok[0] != '-')
        return parseUInt(tok, max);
    std::optional<int64_t> v = fullToken<int64_t>(tok);
    if (!v || *v < min)
        return std::nullopt;
    return static_cast<uint64_t>(*v);
}

} // namespace

std::optional<uint64_t>
parseUInt(std::string_view tok, uint64_t max)
{
    std::optional<uint64_t> v = fullToken<uint64_t>(tok);
    if (!v || *v > max)
        return std::nullopt;
    return v;
}

wasm::Value
parseArgSpec(const std::string &spec)
{
    size_t colon = spec.find(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("bad arg spec \"" + spec +
                                    "\" (expected type:value)");
    std::string_view type(spec.data(), colon);
    std::string_view val(spec.data() + colon + 1,
                         spec.size() - colon - 1);
    std::optional<wasm::Value> v;
    if (type == "i32") {
        if (auto bits = parseIntBits(val, INT32_MIN, UINT32_MAX))
            v = wasm::Value::makeI32(static_cast<uint32_t>(*bits));
    } else if (type == "i64") {
        if (auto bits = parseIntBits(val, INT64_MIN, UINT64_MAX))
            v = wasm::Value::makeI64(*bits);
    } else if (type == "f32") {
        if (auto f = fullToken<float>(val))
            v = wasm::Value::makeF32(*f);
    } else if (type == "f64") {
        if (auto d = fullToken<double>(val))
            v = wasm::Value::makeF64(*d);
    } else {
        throw std::invalid_argument("bad arg type in \"" + spec +
                                    "\" (expected i32/i64/f32/f64)");
    }
    if (!v)
        throw std::invalid_argument("bad arg value in \"" + spec + "\"");
    return *v;
}

} // namespace wasabi::support
