#include "obs/profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "support/json.h"

namespace wasabi::obs {

namespace {

// All names we emit are ASCII identifiers, but analysis names come
// from the CLI user, so escape defensively.
using json::escape;

/** Nanoseconds as a human-friendly "1.234 ms" style string. */
std::string
humanNanos(uint64_t nanos)
{
    char buf[32];
    if (nanos >= 1000000000)
        std::snprintf(buf, sizeof buf, "%.3f s", nanos / 1e9);
    else if (nanos >= 1000000)
        std::snprintf(buf, sizeof buf, "%.3f ms", nanos / 1e6);
    else if (nanos >= 1000)
        std::snprintf(buf, sizeof buf, "%.3f us", nanos / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%" PRIu64 " ns", nanos);
    return buf;
}

/** Microsecond timestamp field for trace events (3 decimals). */
std::string
micros(uint64_t nanos)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", nanos / 1e3);
    return buf;
}

} // namespace

ProfileCollector::ProfileCollector(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

uint64_t
ProfileCollector::now() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
ProfileCollector::recordPhase(const std::string &name,
                              uint64_t start_nanos, uint64_t nanos)
{
    std::lock_guard<std::mutex> lock(mutex_);
    phases_.push_back(PhaseSpan{name, start_nanos, nanos});
}

void
ProfileCollector::recordInstrumentation(const core::InstrumentStats &stats)
{
    std::lock_guard<std::mutex> lock(mutex_);
    instr_ = stats;
}

void
ProfileCollector::setInstrumentMode(std::string mode)
{
    std::lock_guard<std::mutex> lock(mutex_);
    instrumentMode_ = std::move(mode);
}

void
ProfileCollector::setAnalysisNames(std::vector<std::string> names)
{
    analyses_.resize(std::max(analyses_.size(), names.size()));
    for (size_t i = 0; i < names.size(); ++i)
        analyses_[i].name = std::move(names[i]);
}

void
ProfileCollector::addDispatch(core::HookKind kind, uint64_t nanos)
{
    auto &c = dispatch_[static_cast<size_t>(kind)];
    c.count += 1;
    c.nanos += nanos;
}

void
ProfileCollector::addAnalysisHook(size_t analysis, core::HookKind kind,
                                  uint64_t nanos)
{
    if (analysis >= analyses_.size())
        analyses_.resize(analysis + 1);
    auto &c = analyses_[analysis].perKind[static_cast<size_t>(kind)];
    c.count += 1;
    c.nanos += nanos;
}

void
ProfileCollector::setInterpCounters(const InterpCounters &counters)
{
    interp_ = counters;
}

uint64_t
ProfileCollector::dispatchCount(core::HookKind kind) const
{
    return dispatch_[static_cast<size_t>(kind)].count;
}

uint64_t
ProfileCollector::totalDispatches() const
{
    uint64_t total = 0;
    for (const auto &c : dispatch_)
        total += c.count;
    return total;
}

std::string
ProfileCollector::toText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    char line[160];

    out << "== wasabi profile ==\n";

    if (!instrumentMode_.empty())
        out << "\ninstrument mode: " << instrumentMode_ << "\n";

    if (!phases_.empty()) {
        out << "\nphases:\n";
        for (const auto &p : phases_) {
            std::snprintf(line, sizeof line, "  %-12s %12s\n",
                          p.name.c_str(), humanNanos(p.nanos).c_str());
            out << line;
        }
    }

    if (instr_) {
        out << "\ninstrumentation: "
            << instr_->functionsInstrumented << " functions, "
            << instr_->hooksGenerated << " hooks generated, "
            << humanNanos(instr_->wallNanos) << "\n";
        for (size_t i = 0; i < instr_->workers.size(); ++i) {
            const auto &w = instr_->workers[i];
            std::snprintf(line, sizeof line,
                          "  worker %-2zu    %6" PRIu64
                          " functions  %12s\n",
                          i, w.functions, humanNanos(w.nanos).c_str());
            out << line;
        }
        const auto &hm = instr_->hookMap;
        out << "  hook map:    " << hm.hits << " hits, " << hm.misses
            << " misses, " << hm.inserts << " inserts\n";
    }

    uint64_t total_count = 0, total_nanos = 0;
    for (const auto &c : dispatch_) {
        total_count += c.count;
        total_nanos += c.nanos;
    }
    out << "\nruntime dispatch: " << total_count << " hook invocations, "
        << humanNanos(total_nanos) << "\n";
    if (total_count > 0) {
        std::snprintf(line, sizeof line, "  %-12s %10s %14s %10s\n",
                      "kind", "count", "total", "avg");
        out << line;
        for (size_t k = 0; k < dispatch_.size(); ++k) {
            const auto &c = dispatch_[k];
            if (c.count == 0)
                continue;
            std::snprintf(
                line, sizeof line,
                "  %-12s %10" PRIu64 " %14s %10s\n",
                core::name(static_cast<core::HookKind>(k)), c.count,
                humanNanos(c.nanos).c_str(),
                humanNanos(c.nanos / c.count).c_str());
            out << line;
        }
    }
    for (size_t a = 0; a < analyses_.size(); ++a) {
        const auto &an = analyses_[a];
        uint64_t an_count = 0, an_nanos = 0;
        for (const auto &c : an.perKind) {
            an_count += c.count;
            an_nanos += c.nanos;
        }
        std::string label =
            an.name.empty() ? "analysis " + std::to_string(a) : an.name;
        out << "  [" << label << "] " << an_count << " hooks, "
            << humanNanos(an_nanos) << "\n";
    }

    if (interp_) {
        out << "\ninterpreter: " << interp_->instructions
            << " instructions, " << interp_->calls << " calls, "
            << interp_->memoryOps << " memory ops, " << interp_->traps
            << " traps\n";
    }
    return out.str();
}

std::string
ProfileCollector::toJson(bool deterministic) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    auto ns = [&](uint64_t nanos) { return deterministic ? 0 : nanos; };

    out << "{\n";
    out << "  \"schema\": \"" << kProfileSchemaName << "\",\n";
    out << "  \"version\": " << kProfileSchemaVersion << ",\n";
    out << "  \"deterministic\": " << (deterministic ? "true" : "false")
        << ",\n";
    if (!instrumentMode_.empty()) {
        out << "  \"instrumentMode\": \"" << escape(instrumentMode_)
            << "\",\n";
    }

    if (!deterministic && !phases_.empty()) {
        out << "  \"phases\": [";
        for (size_t i = 0; i < phases_.size(); ++i) {
            const auto &p = phases_[i];
            out << (i ? "," : "") << "\n    {\"name\": \""
                << escape(p.name) << "\", \"startNanos\": "
                << p.startNanos << ", \"nanos\": " << p.nanos << "}";
        }
        out << "\n  ],\n";
    }

    if (instr_) {
        out << "  \"instrumentation\": {\n";
        out << "    \"functions\": " << instr_->functionsInstrumented
            << ",\n";
        out << "    \"hooksGenerated\": " << instr_->hooksGenerated
            << ",\n";
        out << "    \"nanos\": " << ns(instr_->wallNanos);
        if (!deterministic) {
            out << ",\n    \"workers\": [";
            for (size_t i = 0; i < instr_->workers.size(); ++i) {
                const auto &w = instr_->workers[i];
                out << (i ? "," : "") << "\n      {\"worker\": " << i
                    << ", \"functions\": " << w.functions
                    << ", \"startNanos\": " << w.startNanos
                    << ", \"nanos\": " << w.nanos << "}";
            }
            out << "\n    ],\n";
            const auto &hm = instr_->hookMap;
            out << "    \"hookMap\": {\"hits\": " << hm.hits
                << ", \"misses\": " << hm.misses
                << ", \"inserts\": " << hm.inserts << "}";
        }
        out << "\n  },\n";
    }

    uint64_t total_count = 0;
    for (const auto &c : dispatch_)
        total_count += c.count;
    out << "  \"runtime\": {\n";
    out << "    \"hookInvocations\": " << total_count << ",\n";
    out << "    \"perKind\": [";
    bool first = true;
    for (size_t k = 0; k < dispatch_.size(); ++k) {
        const auto &c = dispatch_[k];
        if (c.count == 0)
            continue;
        out << (first ? "" : ",") << "\n      {\"kind\": \""
            << core::name(static_cast<core::HookKind>(k))
            << "\", \"count\": " << c.count
            << ", \"nanos\": " << ns(c.nanos) << "}";
        first = false;
    }
    out << "\n    ]";
    if (!analyses_.empty()) {
        out << ",\n    \"perAnalysis\": [";
        for (size_t a = 0; a < analyses_.size(); ++a) {
            const auto &an = analyses_[a];
            std::string label = an.name.empty()
                                    ? "analysis " + std::to_string(a)
                                    : an.name;
            out << (a ? "," : "") << "\n      {\"analysis\": \""
                << escape(label) << "\", \"perKind\": [";
            bool f2 = true;
            for (size_t k = 0; k < an.perKind.size(); ++k) {
                const auto &c = an.perKind[k];
                if (c.count == 0)
                    continue;
                out << (f2 ? "" : ",") << "\n        {\"kind\": \""
                    << core::name(static_cast<core::HookKind>(k))
                    << "\", \"count\": " << c.count
                    << ", \"nanos\": " << ns(c.nanos) << "}";
                f2 = false;
            }
            out << "\n      ]}";
        }
        out << "\n    ]";
    }
    out << "\n  }";

    if (interp_) {
        out << ",\n  \"interp\": {\"instructions\": "
            << interp_->instructions << ", \"calls\": " << interp_->calls
            << ", \"memoryOps\": " << interp_->memoryOps
            << ", \"traps\": " << interp_->traps << "}";
    }
    out << "\n}\n";
    return out.str();
}

std::string
ProfileCollector::toChromeTrace() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    bool first = true;
    auto sep = [&]() -> std::ostringstream & {
        out << (first ? "\n    " : ",\n    ");
        first = false;
        return out;
    };
    auto meta = [&](int tid, const std::string &name) {
        sep() << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": "
              << tid << ", \"args\": {\"name\": \"" << escape(name)
              << "\"}}";
    };

    out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    sep() << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
             "\"tid\": 0, \"args\": {\"name\": \"wasabi\"}}";

    // Track 0: caller-timed phase spans (decode/instrument/...).
    meta(0, "phases");
    uint64_t instrument_start = 0;
    uint64_t execute_start = 0;
    for (const auto &p : phases_) {
        if (p.name == "instrument")
            instrument_start = p.startNanos;
        if (p.name == "execute")
            execute_start = p.startNanos;
        sep() << "{\"ph\": \"X\", \"name\": \"" << escape(p.name)
              << "\", \"cat\": \"phase\", \"pid\": 1, \"tid\": 0, "
                 "\"ts\": "
              << micros(p.startNanos) << ", \"dur\": " << micros(p.nanos)
              << "}";
    }

    // Tracks 10..: one per instrumentation worker thread. Worker spans
    // are relative to instrument() entry, so anchor them at the
    // "instrument" phase start when the caller recorded one.
    if (instr_) {
        for (size_t i = 0; i < instr_->workers.size(); ++i) {
            const auto &w = instr_->workers[i];
            int tid = static_cast<int>(10 + i);
            meta(tid, "instrument-worker-" + std::to_string(i));
            sep() << "{\"ph\": \"X\", \"name\": \"instrument\", "
                     "\"cat\": \"instrument\", \"pid\": 1, \"tid\": "
                  << tid << ", \"ts\": "
                  << micros(instrument_start + w.startNanos)
                  << ", \"dur\": " << micros(w.nanos)
                  << ", \"args\": {\"functions\": " << w.functions
                  << "}}";
        }
    }

    // Track 100 (+101.. per analysis): aggregated hook dispatch. Per-
    // dispatch events would be unbounded, so each kind becomes one
    // complete event whose duration is that kind's cumulative time,
    // laid out sequentially from the execute-phase start.
    auto hook_track = [&](int tid, const PerKind &per) {
        uint64_t cursor = execute_start;
        for (size_t k = 0; k < per.size(); ++k) {
            const auto &c = per[k];
            if (c.count == 0)
                continue;
            sep() << "{\"ph\": \"X\", \"name\": \""
                  << core::name(static_cast<core::HookKind>(k))
                  << "\", \"cat\": \"hook\", \"pid\": 1, \"tid\": "
                  << tid << ", \"ts\": " << micros(cursor)
                  << ", \"dur\": " << micros(c.nanos)
                  << ", \"args\": {\"count\": " << c.count << "}}";
            cursor += c.nanos;
        }
    };
    meta(100, "runtime-hooks");
    hook_track(100, dispatch_);
    for (size_t a = 0; a < analyses_.size(); ++a) {
        const auto &an = analyses_[a];
        std::string label =
            an.name.empty() ? "analysis " + std::to_string(a) : an.name;
        int tid = static_cast<int>(101 + a);
        meta(tid, "analysis: " + label);
        hook_track(tid, an.perKind);
    }

    out << "\n  ]\n}\n";
    return out.str();
}

namespace {

bool
failv(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
checkU64Field(const json::Value &obj, const char *key,
              const std::string &where, std::string *error)
{
    const json::Value *v = obj.find(key);
    if (!v || !v->asUInt())
        return failv(error, where + ": missing unsigned integer \"" +
                                std::string(key) + "\"");
    return true;
}

/** Validate a perKind array; adds each entry's count to @p sum. */
bool
checkPerKind(const json::Value &arr, const std::string &where,
             uint64_t *sum, std::string *error)
{
    if (!arr.isArray())
        return failv(error, where + ": \"perKind\" must be an array");
    for (const auto &e : arr.array) {
        if (!e.isObject())
            return failv(error, where + ": perKind entry not an object");
        const json::Value *kind = e.find("kind");
        if (!kind || !kind->isString() ||
            !core::hookKindByName(kind->str))
            return failv(error,
                         where + ": bad hook kind name in perKind");
        if (!checkU64Field(e, "count", where, error) ||
            !checkU64Field(e, "nanos", where, error))
            return false;
        if (sum)
            *sum += *e.find("count")->asUInt();
    }
    return true;
}

} // namespace

bool
validateProfileJson(const std::string &text, std::string *error)
{
    std::string parse_err;
    auto doc = json::parse(text, &parse_err);
    if (!doc)
        return failv(error, "not valid JSON: " + parse_err);
    if (!doc->isObject())
        return failv(error, "top level must be an object");

    const json::Value *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->str != kProfileSchemaName)
        return failv(error, "missing or wrong \"schema\" (expected \"" +
                                std::string(kProfileSchemaName) + "\")");
    const json::Value *version = doc->find("version");
    if (!version ||
        version->asUInt() != static_cast<uint64_t>(kProfileSchemaVersion))
        return failv(error, "missing or unsupported \"version\"");
    const json::Value *det = doc->find("deterministic");
    if (!det || !det->isBool())
        return failv(error, "missing boolean \"deterministic\"");

    // The schema is closed: readers may rely on every key they see.
    for (const auto &[key, value] : doc->object) {
        if (key != "schema" && key != "version" &&
            key != "deterministic" && key != "instrumentMode" &&
            key != "phases" && key != "instrumentation" &&
            key != "runtime" && key != "interp" && key != "bench" &&
            key != "serve")
            return failv(error, "unknown top-level key \"" + key + "\"");
        (void)value;
    }

    // Optional (additive, no version bump): how hooks reached the
    // runtime. Only the two supported modes are valid.
    if (const json::Value *mode = doc->find("instrumentMode")) {
        if (!mode->isString() ||
            (mode->str != "rewrite" && mode->str != "intrinsic"))
            return failv(error, "\"instrumentMode\" must be \"rewrite\" "
                                "or \"intrinsic\"");
    }

    if (const json::Value *phases = doc->find("phases")) {
        if (!phases->isArray())
            return failv(error, "\"phases\" must be an array");
        for (const auto &p : phases->array) {
            if (!p.isObject())
                return failv(error, "phase entry not an object");
            const json::Value *name = p.find("name");
            if (!name || !name->isString())
                return failv(error, "phase: missing string \"name\"");
            if (!checkU64Field(p, "startNanos", "phase", error) ||
                !checkU64Field(p, "nanos", "phase", error))
                return false;
        }
    }

    if (const json::Value *instr = doc->find("instrumentation")) {
        if (!instr->isObject())
            return failv(error, "\"instrumentation\" must be an object");
        if (!checkU64Field(*instr, "functions", "instrumentation",
                           error) ||
            !checkU64Field(*instr, "hooksGenerated", "instrumentation",
                           error) ||
            !checkU64Field(*instr, "nanos", "instrumentation", error))
            return false;
        if (const json::Value *workers = instr->find("workers")) {
            if (!workers->isArray())
                return failv(error, "\"workers\" must be an array");
            for (const auto &w : workers->array) {
                if (!w.isObject() ||
                    !checkU64Field(w, "worker", "worker", error) ||
                    !checkU64Field(w, "functions", "worker", error) ||
                    !checkU64Field(w, "startNanos", "worker", error) ||
                    !checkU64Field(w, "nanos", "worker", error))
                    return false;
            }
        }
        if (const json::Value *hm = instr->find("hookMap")) {
            if (!hm->isObject() ||
                !checkU64Field(*hm, "hits", "hookMap", error) ||
                !checkU64Field(*hm, "misses", "hookMap", error) ||
                !checkU64Field(*hm, "inserts", "hookMap", error))
                return false;
        }
    }

    const json::Value *runtime = doc->find("runtime");
    if (!runtime || !runtime->isObject())
        return failv(error, "missing \"runtime\" object");
    if (!checkU64Field(*runtime, "hookInvocations", "runtime", error))
        return false;
    const json::Value *per_kind = runtime->find("perKind");
    if (!per_kind)
        return failv(error, "runtime: missing \"perKind\"");
    uint64_t kind_sum = 0;
    if (!checkPerKind(*per_kind, "runtime", &kind_sum, error))
        return false;
    uint64_t invocations = *runtime->find("hookInvocations")->asUInt();
    if (kind_sum != invocations)
        return failv(error,
                     "runtime: perKind counts sum to " +
                         std::to_string(kind_sum) +
                         " but hookInvocations is " +
                         std::to_string(invocations));
    if (const json::Value *per_analysis = runtime->find("perAnalysis")) {
        if (!per_analysis->isArray())
            return failv(error, "\"perAnalysis\" must be an array");
        for (const auto &a : per_analysis->array) {
            if (!a.isObject())
                return failv(error, "perAnalysis entry not an object");
            const json::Value *name = a.find("analysis");
            if (!name || !name->isString())
                return failv(error,
                             "perAnalysis: missing string \"analysis\"");
            const json::Value *apk = a.find("perKind");
            if (!apk ||
                !checkPerKind(*apk, "perAnalysis", nullptr, error))
                return false;
        }
    }

    if (const json::Value *interp = doc->find("interp")) {
        if (!interp->isObject() ||
            !checkU64Field(*interp, "instructions", "interp", error) ||
            !checkU64Field(*interp, "calls", "interp", error) ||
            !checkU64Field(*interp, "memoryOps", "interp", error) ||
            !checkU64Field(*interp, "traps", "interp", error))
            return false;
    }

    if (const json::Value *bench = doc->find("bench")) {
        if (!bench->isObject())
            return failv(error, "\"bench\" must be an object");
        const json::Value *name = bench->find("name");
        if (!name || !name->isString())
            return failv(error, "bench: missing string \"name\"");
    }

    // Optional (additive, no version bump): the serve daemon's
    // endpoint metrics — cache/pool/translation/quota counters plus
    // per-endpoint request totals (DESIGN.md §13).
    if (const json::Value *serve = doc->find("serve")) {
        if (!serve->isObject())
            return failv(error, "\"serve\" must be an object");
        for (const char *key :
             {"cacheHits", "cacheMisses", "poolHits", "poolMisses",
              "translations", "quotaTrips"}) {
            if (!checkU64Field(*serve, key, "serve", error))
                return false;
        }
        const json::Value *eps = serve->find("endpoints");
        if (!eps || !eps->isArray())
            return failv(error, "serve: missing \"endpoints\" array");
        for (const auto &e : eps->array) {
            if (!e.isObject())
                return failv(error,
                             "serve: endpoint entry not an object");
            const json::Value *op = e.find("op");
            if (!op || !op->isString())
                return failv(error,
                             "serve: endpoint missing string \"op\"");
            if (!checkU64Field(e, "requests", "serve endpoint",
                               error) ||
                !checkU64Field(e, "errors", "serve endpoint", error))
                return false;
        }
    }
    return true;
}

bool
validateChromeTrace(const std::string &text, std::string *error)
{
    std::string parse_err;
    auto doc = json::parse(text, &parse_err);
    if (!doc)
        return failv(error, "not valid JSON: " + parse_err);
    if (!doc->isObject())
        return failv(error, "top level must be an object");
    const json::Value *events = doc->find("traceEvents");
    if (!events || !events->isArray())
        return failv(error, "missing \"traceEvents\" array");
    for (const auto &e : events->array) {
        if (!e.isObject())
            return failv(error, "trace event not an object");
        const json::Value *ph = e.find("ph");
        if (!ph || !ph->isString() || ph->str.size() != 1)
            return failv(error, "trace event: bad \"ph\"");
        const json::Value *name = e.find("name");
        if (!name || !name->isString())
            return failv(error, "trace event: missing \"name\"");
        const json::Value *pid = e.find("pid");
        if (!pid || !pid->isNumber())
            return failv(error, "trace event: missing \"pid\"");
        if (ph->str != "M") {
            const json::Value *ts = e.find("ts");
            if (!ts || !ts->isNumber())
                return failv(error, "trace event: missing \"ts\"");
        }
    }
    return true;
}

} // namespace wasabi::obs
