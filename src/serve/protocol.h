/**
 * @file
 * The serve daemon's wire protocol: line-oriented JSON. Each request
 * is one JSON object on one line; each response is one JSON object on
 * one line. The same protocol runs over the Unix socket and the
 * `--request=FILE` driver mode, so tests and CI exercise the real
 * request path without socket plumbing.
 *
 * Request:
 *   {"op": "run" | "profile" | "instrument" | "analyze" | "metrics"
 *          | "shutdown",
 *    "id": <any string, echoed back>,          // optional
 *    "module": "<path to .wasm/.wat>",         // per-op
 *    "analysis": "mix",                        // run/profile
 *    "entry": "main", "args": ["i32:5", ...],  // run/profile
 *    "hooks": "all" | "begin,end,...",         // profile/instrument
 *    "out": "<path>",                          // instrument
 *    "fuel": 1000000,                          // quota (optional)
 *    "memoryPages": 64,                        // quota (optional)
 *    "verbose": true}                          // include cache/pool
 *                                              // provenance (breaks
 *                                              // cross-client
 *                                              // determinism; off by
 *                                              // default)
 *
 * Response: {"ok": true, "op": ..., "id": ..., <op payload>} or
 * {"ok": false, "op": ..., "id": ..., "error": {"code": "serve.*",
 * "message": ...}}. Error codes: serve.bad-request,
 * serve.module-error, serve.quota-exceeded (with "resource": "fuel" |
 * "memory"), serve.trap (with "trap": <kind>), serve.internal. No
 * request — malformed, trapping, or over-quota — ever terminates the
 * daemon.
 */

#ifndef WASABI_SERVE_PROTOCOL_H
#define WASABI_SERVE_PROTOCOL_H

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.h"
#include "wasm/module.h"

namespace wasabi::serve {

/** Client-side usage error — mapped to serve.bad-request. */
struct BadRequest : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** One parsed request. */
struct Request {
    std::string op;
    std::string id;       ///< echoed back; empty = omitted
    std::string module;   ///< path
    std::string analysis = "mix";
    std::string entry;    ///< empty = "main", falling back to "kernel"
    std::string hooks;    ///< empty = derived from the analysis / all
    std::string out;      ///< instrument output path
    std::vector<wasm::Value> args;
    std::optional<uint64_t> fuel;
    std::optional<uint32_t> memoryPages;
    bool verbose = false;
};

/** Parse one request line. @throws BadRequest on malformed JSON, a
 * missing/unknown "op", or ill-typed fields. */
Request parseRequest(const std::string &line);

/** Parse a "i32:5" / "i64:-1" / "f32:0.5" / "f64:1.5" argument spec
 * (support::parseArgSpec). @throws BadRequest on a bad spec. */
wasm::Value parseArgSpec(const std::string &spec);

/** JSON string escaping for response payloads: the shared escaper,
 * under the name serve callers already use. */
inline constexpr auto &jsonEscape = json::escape;

/** Incremental response writer: one flat JSON object, fields appended
 * in call order, rendered with result(). */
class ResponseWriter {
  public:
    ResponseWriter(bool ok, const std::string &op, const std::string &id);

    void field(const std::string &key, const std::string &value);
    void fieldRaw(const std::string &key, const std::string &raw_json);
    void field(const std::string &key, uint64_t value);
    void field(const std::string &key, bool value);

    /** The finished single-line JSON object (no trailing newline). */
    std::string result() const;

  private:
    std::string buf_;
};

/** Build an error response line. @p extra_key/@p extra_value, when
 * non-empty, add one string field inside the "error" object (e.g.
 * "resource": "fuel"). */
std::string errorResponse(const std::string &op, const std::string &id,
                          const std::string &code,
                          const std::string &message,
                          const std::string &extra_key = "",
                          const std::string &extra_value = "");

} // namespace wasabi::serve

#endif // WASABI_SERVE_PROTOCOL_H
