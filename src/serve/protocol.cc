#include "serve/protocol.h"

#include <cinttypes>
#include <cstdio>

#include "support/json.h"
#include "support/numeric.h"

namespace wasabi::serve {

using json::Value;

wasm::Value
parseArgSpec(const std::string &spec)
{
    try {
        return support::parseArgSpec(spec);
    } catch (const std::invalid_argument &e) {
        throw BadRequest(e.what());
    }
}

namespace {

std::string
requireString(const Value &doc, const char *key, const char *op)
{
    const Value *v = doc.find(key);
    if (!v)
        return "";
    if (!v->isString())
        throw BadRequest(std::string(op) + ": \"" + key +
                         "\" must be a string");
    return v->str;
}

} // namespace

Request
parseRequest(const std::string &line)
{
    std::string err;
    std::optional<Value> doc = json::parse(line, &err);
    if (!doc)
        throw BadRequest("malformed request JSON: " + err);
    if (!doc->isObject())
        throw BadRequest("request must be a JSON object");

    Request r;
    const Value *op = doc->find("op");
    if (!op || !op->isString())
        throw BadRequest("missing string \"op\"");
    r.op = op->str;
    if (r.op != "run" && r.op != "profile" && r.op != "instrument" &&
        r.op != "analyze" && r.op != "metrics" && r.op != "shutdown")
        throw BadRequest("unknown op \"" + r.op +
                         "\" (expected run/profile/instrument/analyze/"
                         "metrics/shutdown)");

    r.id = requireString(*doc, "id", r.op.c_str());
    r.module = requireString(*doc, "module", r.op.c_str());
    r.entry = requireString(*doc, "entry", r.op.c_str());
    r.hooks = requireString(*doc, "hooks", r.op.c_str());
    r.out = requireString(*doc, "out", r.op.c_str());
    if (const Value *a = doc->find("analysis")) {
        if (!a->isString())
            throw BadRequest("\"analysis\" must be a string");
        r.analysis = a->str;
    }
    if (const Value *args = doc->find("args")) {
        if (!args->isArray())
            throw BadRequest("\"args\" must be an array of "
                             "\"type:value\" strings");
        for (const Value &a : args->array) {
            if (!a.isString())
                throw BadRequest("\"args\" entries must be strings");
            r.args.push_back(parseArgSpec(a.str));
        }
    }
    if (const Value *fuel = doc->find("fuel")) {
        std::optional<uint64_t> v = fuel->asUInt();
        if (!v)
            throw BadRequest("\"fuel\" must be a non-negative integer "
                             "below 2^64");
        r.fuel = *v;
    }
    if (const Value *pages = doc->find("memoryPages")) {
        std::optional<uint64_t> v = pages->asUInt(65536);
        if (!v)
            throw BadRequest(
                "\"memoryPages\" must be an integer in [0, 65536]");
        r.memoryPages = static_cast<uint32_t>(*v);
    }
    if (const Value *verbose = doc->find("verbose")) {
        if (!verbose->isBool())
            throw BadRequest("\"verbose\" must be a boolean");
        r.verbose = verbose->boolean;
    }

    if (r.op == "run" || r.op == "profile" || r.op == "instrument" ||
        r.op == "analyze") {
        if (r.module.empty())
            throw BadRequest(r.op + ": missing \"module\" path");
    }
    if (r.op == "instrument" && r.out.empty())
        throw BadRequest("instrument: missing \"out\" path");
    return r;
}

ResponseWriter::ResponseWriter(bool ok, const std::string &op,
                               const std::string &id)
{
    buf_ = std::string("{\"ok\": ") + (ok ? "true" : "false") +
           ", \"op\": \"" + jsonEscape(op) + "\"";
    if (!id.empty())
        buf_ += ", \"id\": \"" + jsonEscape(id) + "\"";
}

void
ResponseWriter::field(const std::string &key, const std::string &value)
{
    buf_ += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) + "\"";
}

void
ResponseWriter::fieldRaw(const std::string &key,
                         const std::string &raw_json)
{
    buf_ += ", \"" + jsonEscape(key) + "\": " + raw_json;
}

void
ResponseWriter::field(const std::string &key, uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    buf_ += ", \"" + jsonEscape(key) + "\": " + buf;
}

void
ResponseWriter::field(const std::string &key, bool value)
{
    buf_ += ", \"" + jsonEscape(key) + "\": " +
            (value ? "true" : "false");
}

std::string
ResponseWriter::result() const
{
    return buf_ + "}";
}

std::string
errorResponse(const std::string &op, const std::string &id,
              const std::string &code, const std::string &message,
              const std::string &extra_key,
              const std::string &extra_value)
{
    ResponseWriter w(false, op, id);
    std::string err = "{\"code\": \"" + jsonEscape(code) +
                      "\", \"message\": \"" + jsonEscape(message) + "\"";
    if (!extra_key.empty())
        err += ", \"" + jsonEscape(extra_key) + "\": \"" +
               jsonEscape(extra_value) + "\"";
    err += "}";
    w.fieldRaw("error", err);
    return w.result();
}

} // namespace wasabi::serve
