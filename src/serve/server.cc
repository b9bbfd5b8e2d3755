#include "serve/server.h"

#include <cinttypes>
#include <cstdio>

#include "analyses/registry.h"
#include "core/instrument.h"
#include "interp/engine/code.h"
#include "interp/interpreter.h"
#include "obs/profile.h"
#include "runtime/runtime.h"
#include "support/file_io.h"

namespace wasabi::serve {

namespace {

/** A request denied by its fuel or memory quota. */
struct QuotaExceeded : std::runtime_error {
    std::string resource; ///< "fuel" | "memory"
    QuotaExceeded(std::string res, const std::string &msg)
        : std::runtime_error(msg), resource(std::move(res))
    {
    }
};

/** Guest execution trapped (not quota-attributable). */
struct GuestTrap : std::runtime_error {
    std::string trap; ///< interp::name(kind)
    GuestTrap(std::string kind, const std::string &msg)
        : std::runtime_error(msg), trap(std::move(kind))
    {
    }
};

/** A request's "hooks" list (core::parseHookSet); a bad one is a bad
 * request. */
core::HookSet
parseHookSet(const std::string &spec)
{
    std::string error;
    std::optional<core::HookSet> set = core::parseHookSet(spec, &error);
    if (!set)
        throw BadRequest(error);
    return *set;
}

std::string
hex16(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

} // namespace

Server::EndpointStats *
Server::statsFor(const std::string &op)
{
    for (size_t i = 0; i < kEndpoints.size(); ++i) {
        if (op == kEndpoints[i])
            return &stats_[i];
    }
    return nullptr;
}

Server::Handled
Server::handle(const std::string &line)
{
    Request r;
    try {
        r = parseRequest(line);
    } catch (const BadRequest &e) {
        ++badRequests_;
        return Handled{
            errorResponse("", "", "serve.bad-request", e.what()), "",
            false};
    }
    EndpointStats *st = statsFor(r.op);
    ++st->requests;
    try {
        if (r.op == "shutdown") {
            ResponseWriter w(true, "shutdown", r.id);
            return Handled{w.result(), r.op, true};
        }
        if (r.op == "metrics")
            return Handled{opMetrics(r), r.op, false};
        if (r.op == "run")
            return Handled{opRun(r, false), r.op, false};
        if (r.op == "profile")
            return Handled{opRun(r, true), r.op, false};
        if (r.op == "instrument")
            return Handled{opInstrument(r), r.op, false};
        return Handled{opAnalyze(r), r.op, false};
    } catch (const BadRequest &e) {
        ++st->errors;
        return Handled{
            errorResponse(r.op, r.id, "serve.bad-request", e.what()),
            r.op, false};
    } catch (const QuotaExceeded &e) {
        ++st->errors;
        return Handled{errorResponse(r.op, r.id, "serve.quota-exceeded",
                                     e.what(), "resource", e.resource),
                       r.op, false};
    } catch (const GuestTrap &e) {
        ++st->errors;
        return Handled{errorResponse(r.op, r.id, "serve.trap", e.what(),
                                     "trap", e.trap),
                       r.op, false};
    } catch (const interp::Trap &t) {
        // e.g. a start function trapping during cold instantiation
        ++st->errors;
        return Handled{errorResponse(r.op, r.id, "serve.trap",
                                     std::string("guest trapped: ") +
                                         interp::name(t.kind()),
                                     "trap", interp::name(t.kind())),
                       r.op, false};
    } catch (const support::IoError &e) {
        ++st->errors;
        const bool write_side = e.code() == "io.write" ||
                                e.code() == "io.short-write";
        return Handled{errorResponse(r.op, r.id,
                                     write_side ? "serve.io-error"
                                                : "serve.module-error",
                                     e.what()),
                       r.op, false};
    } catch (const interp::LinkError &e) {
        ++st->errors;
        return Handled{
            errorResponse(r.op, r.id, "serve.module-error", e.what()),
            r.op, false};
    } catch (const std::invalid_argument &e) {
        ++st->errors;
        return Handled{
            errorResponse(r.op, r.id, "serve.bad-request", e.what()),
            r.op, false};
    } catch (const std::exception &e) {
        ++st->errors;
        return Handled{
            errorResponse(r.op, r.id, "serve.internal", e.what()), r.op,
            false};
    }
}

std::string
Server::opRun(const Request &r, bool with_profile)
{
    const char *op = with_profile ? "profile" : "run";
    std::vector<uint8_t> bytes = support::readBinaryFile(r.module);
    bool cache_hit = false;
    std::shared_ptr<CachedModule> entry =
        cache_.acquire(bytes, r.module, &cache_hit);
    const wasm::Module &m = *entry->module();

    std::unique_ptr<runtime::Analysis> analysis;
    try {
        analysis = analyses::makeAnalysis(r.analysis);
    } catch (const std::exception &e) {
        throw BadRequest(e.what());
    }
    core::HookSet hook_set =
        r.hooks.empty()
            ? runtime::WasabiRuntime::requiredHooks({analysis.get()})
            : parseHookSet(r.hooks);

    const std::string entry_name =
        r.entry.empty() ? m.defaultEntry() : r.entry;
    if (!m.findFuncExport(entry_name))
        throw BadRequest("no exported function \"" + entry_name +
                         "\" in " + r.module);

    std::shared_ptr<const core::StaticInfo> info =
        entry->intrinsicInfo(hook_set);
    runtime::WasabiRuntime rt(info);
    rt.addAnalysis(analysis.get(), r.analysis);
    obs::ProfileCollector collector(with_profile);
    if (with_profile) {
        collector.setInstrumentMode("intrinsic");
        rt.setProfiler(&collector);
    }

    InstanceLease lease = pool_.acquire(*entry);
    interp::Instance &inst = *lease.instance;
    const bool warm = lease.warm;

    if (r.memoryPages &&
        inst.memory().sizePages() > *r.memoryPages) {
        uint32_t pages = inst.memory().sizePages();
        pool_.release(std::move(lease));
        ++quotaTrips_;
        throw QuotaExceeded(
            "memory", "module's post-start memory (" +
                          std::to_string(pages) +
                          " pages) already exceeds the request quota "
                          "of " +
                          std::to_string(*r.memoryPages) + " pages");
    }
    if (r.memoryPages)
        inst.memory().setPageQuota(*r.memoryPages);
    if (r.fuel)
        inst.setFuel(*r.fuel);

    // Same-kind re-attach on a warm instance is a sink-pointer swap:
    // translations survive (pinned by the counter delta below).
    rt.attachIntrinsic(inst);
    interp::engine::CompiledModule &cm = inst.engineCode();
    const uint64_t t0 = cm.translationsPerformed();

    interp::Interpreter interp;
    std::vector<wasm::Value> results;
    try {
        obs::ProfileCollector::ScopedPhase p(
            with_profile ? &collector : nullptr, "execute");
        results = interp.invokeExport(inst, entry_name, r.args);
    } catch (const interp::Trap &t) {
        const uint64_t denials = inst.memory().quotaDenials();
        translations_ += cm.translationsPerformed() - t0;
        pool_.release(std::move(lease)); // restored; safe to re-park
        if (t.kind() == interp::TrapKind::FuelExhausted && r.fuel) {
            ++quotaTrips_;
            throw QuotaExceeded(
                "fuel", "execution exceeded the fuel quota of " +
                            std::to_string(*r.fuel) + " instructions");
        }
        if (t.kind() == interp::TrapKind::MemoryOutOfBounds &&
            denials > 0) {
            ++quotaTrips_;
            throw QuotaExceeded(
                "memory",
                "out-of-bounds access after memory.grow was denied " +
                    std::to_string(denials) + " time(s) by the " +
                    std::to_string(*r.memoryPages) + "-page quota");
        }
        throw GuestTrap(interp::name(t.kind()),
                        std::string("guest trapped: ") +
                            interp::name(t.kind()));
    }
    const uint64_t delta = cm.translationsPerformed() - t0;
    translations_ += delta;
    const interp::ExecStats &es = interp.stats();
    const uint64_t hook_invocations = rt.hookInvocations();
    std::string report =
        analyses::analysisReport(r.analysis, *analysis, m);
    pool_.release(std::move(lease));

    ResponseWriter w(true, op, r.id);
    w.field("entry", entry_name);
    std::string arr = "[";
    for (size_t i = 0; i < results.size(); ++i)
        arr += std::string(i ? ", " : "") + "\"" +
               jsonEscape(toString(results[i])) + "\"";
    arr += "]";
    w.fieldRaw("results", arr);
    w.field("instructions", es.instructions);
    w.field("hookInvocations", hook_invocations);
    w.field("analysis", r.analysis);
    w.field("report", report);
    if (with_profile) {
        collector.setInterpCounters(obs::InterpCounters{
            es.instructions, es.calls, es.memoryOps, es.traps});
        // Deterministic by default so N concurrent clients issuing the
        // same request sequence read byte-identical responses; verbose
        // opts into real (schedule-dependent) timings.
        w.field("profile", collector.toJson(!r.verbose));
    }
    if (r.verbose) {
        w.field("cacheHit", cache_hit);
        w.field("warm", warm);
        w.field("translations", delta);
    }
    return w.result();
}

std::string
Server::opInstrument(const Request &r)
{
    std::vector<uint8_t> bytes = support::readBinaryFile(r.module);
    bool cache_hit = false;
    std::shared_ptr<CachedModule> entry =
        cache_.acquire(bytes, r.module, &cache_hit);
    core::HookSet hook_set = parseHookSet(r.hooks);
    core::InstrumentedBinary res =
        core::instrumentToBytes(entry->module(), hook_set);
    const std::vector<uint8_t> &out = res.bytes;
    support::writeBinaryFile(r.out, out);

    ResponseWriter w(true, "instrument", r.id);
    w.field("out", r.out);
    w.field("sizeIn", static_cast<uint64_t>(bytes.size()));
    w.field("sizeOut", static_cast<uint64_t>(out.size()));
    w.field("hooksGenerated",
            static_cast<uint64_t>(res.info->hooks.size()));
    if (r.verbose)
        w.field("cacheHit", cache_hit);
    return w.result();
}

std::string
Server::opAnalyze(const Request &r)
{
    std::vector<uint8_t> bytes = support::readBinaryFile(r.module);
    bool cache_hit = false;
    std::shared_ptr<CachedModule> entry =
        cache_.acquire(bytes, r.module, &cache_hit);
    const wasm::Module &m = *entry->module();

    uint64_t exports = 0;
    for (const wasm::Function &f : m.functions)
        exports += f.exportNames.size();

    ResponseWriter w(true, "analyze", r.id);
    w.field("hash", hex16(entry->hash()));
    w.field("functions", static_cast<uint64_t>(m.numFunctions()));
    w.field("instructions", static_cast<uint64_t>(m.numInstructions()));
    w.field("types", static_cast<uint64_t>(m.types.size()));
    w.field("exports", exports);
    if (r.verbose)
        w.field("cacheHit", cache_hit);
    return w.result();
}

std::string
Server::metricsJson() const
{
    std::string out =
        "{\"schema\": \"wasabi-profile\", \"version\": 1, "
        "\"deterministic\": true, \"runtime\": {\"hookInvocations\": 0, "
        "\"perKind\": []}, \"serve\": {";
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "\"cacheHits\": %" PRIu64 ", \"cacheMisses\": %" PRIu64
        ", \"cacheEntries\": %zu, \"poolHits\": %" PRIu64
        ", \"poolMisses\": %" PRIu64 ", \"translations\": %" PRIu64
        ", \"quotaTrips\": %" PRIu64 ", \"badRequests\": %" PRIu64
        ", \"endpoints\": [",
        cache_.hits(), cache_.misses(), cache_.size(), pool_.hits(),
        pool_.misses(), translations_.load(), quotaTrips_.load(),
        badRequests_.load());
    out += buf;
    for (size_t i = 0; i < kEndpoints.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"op\": \"%s\", \"requests\": %" PRIu64
                      ", \"errors\": %" PRIu64 "}",
                      i ? ", " : "", kEndpoints[i],
                      stats_[i].requests.load(), stats_[i].errors.load());
        out += buf;
    }
    out += "]}}";
    return out;
}

std::string
Server::opMetrics(const Request &r)
{
    ResponseWriter w(true, "metrics", r.id);
    w.fieldRaw("metrics", metricsJson());
    return w.result();
}

} // namespace wasabi::serve
