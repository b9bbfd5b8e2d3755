#include "static/manifest.h"

#include <algorithm>

namespace wasabi::static_analysis::manifest {

bool
checkTopLevel(const json::Value &doc, const char *schema,
              std::initializer_list<std::string_view> fields,
              std::string &error)
{
    if (!doc.isObject()) {
        error = "manifest is not a JSON object";
        return false;
    }
    const auto &members = doc.object;
    for (size_t i = 0; i < members.size(); ++i) {
        const std::string &key = members[i].first;
        bool known = key == "version" || key == "schema" ||
                     std::find(fields.begin(), fields.end(), key) !=
                         fields.end();
        if (!known) {
            error = "unknown manifest field \"" + key + "\"";
            return false;
        }
        for (size_t j = 0; j < i; ++j) {
            if (members[j].first == key) {
                error = "duplicate manifest field \"" + key + "\"";
                return false;
            }
        }
    }
    const json::Value *s = doc.find("schema");
    if (!s) {
        error = "manifest lacks a \"schema\" field";
        return false;
    }
    if (!s->isString() || s->str != schema) {
        error = std::string("manifest schema is not \"") + schema + "\"";
        return false;
    }
    const json::Value *version = doc.find("version");
    if (!version) {
        error = "manifest lacks a \"version\" field";
        return false;
    }
    std::optional<uint32_t> v = toU32(*version);
    if (v != 1u) {
        error = v ? "unsupported manifest version " + std::to_string(*v)
                  : "manifest \"version\" is not an integer";
        return false;
    }
    return true;
}

std::optional<uint32_t>
toU32(const json::Value &v)
{
    std::optional<uint64_t> u = v.asUInt(UINT32_MAX);
    if (!u)
        return std::nullopt;
    return static_cast<uint32_t>(*u);
}

bool
forEachRow(const json::Value &doc, const char *key, size_t width,
           const std::function<void(const Row &)> &each,
           std::string &error)
{
    const json::Value *rows = doc.find(key);
    if (!rows)
        return true;
    auto fail = [&](size_t i) {
        error = std::string("manifest field \"") + key + "\": entry " +
                std::to_string(i) + " is not " +
                (width == 1 ? std::string("an integer")
                            : "a row of " + std::to_string(width) +
                                  " integers") +
                " in [0, 4294967295]";
        return false;
    };
    if (!rows->isArray()) {
        error = std::string("manifest field \"") + key +
                "\" is not an array";
        return false;
    }
    for (size_t i = 0; i < rows->array.size(); ++i) {
        const json::Value &r = rows->array[i];
        Row row{};
        if (width == 1) {
            std::optional<uint32_t> v = toU32(r);
            if (!v)
                return fail(i);
            row[0] = *v;
        } else {
            if (!r.isArray() || r.array.size() != width)
                return fail(i);
            for (size_t k = 0; k < width; ++k) {
                std::optional<uint32_t> v = toU32(r.array[k]);
                if (!v)
                    return fail(i);
                row[k] = *v;
            }
        }
        each(row);
    }
    return true;
}

std::string
header(const char *schema)
{
    return std::string("{\n  \"schema\": \"") + schema +
           "\",\n  \"version\": 1";
}

} // namespace wasabi::static_analysis::manifest
