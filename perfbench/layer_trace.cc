/**
 * @file
 * Layer-trace harness for the perfbench traced run (perfbench/README.md).
 *
 * Calls each layer's public entry points in-process, exactly as the
 * CLI and the serve daemon chain them, and records a span around every
 * call: name, start, end, parent span, request id. Spans are kept in
 * memory and written as one JSON document when the harness ends; the
 * benchmark (run.py) turns them into per-layer metrics (self
 * time = span minus the part of it its children cover).
 *
 * Every job runs twice per repetition: once with only its root span
 * (untraced) and once with all layer spans (traced). The ratio of the
 * root durations is the tracing overhead.
 *
 * Usage:
 *   wasabi_layer_trace --kernel=K.wasm --app=APP.wasm
 *       --small-app=S.wasm --large-app=L.wasm --profile=P.wasm
 *       --upload=U.wasm --reps=N --out=spans.json
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyses/registry.h"
#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "interp/engine/code.h"
#include "interp/instance.h"
#include "interp/interpreter.h"
#include "obs/profile.h"
#include "runtime/analysis.h"
#include "runtime/runtime.h"
#include "serve/module_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "static/rewrite/opt.h"
#include "support/file_io.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"

using namespace wasabi;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
    std::string name;
    std::string request;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
};

/** In-memory span recorder. When `detailed` is false only root spans
 * (parent == -1) are kept, which is the untraced configuration. */
class Tracer {
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    bool detailed = true;

    /** Run @p fn inside a span named @p name. */
    template <typename F>
    auto
    span(const std::string &name, F &&fn) -> decltype(fn())
    {
        const bool root = stack_.empty();
        if (!root && !detailed)
            return fn();
        const int id = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, request_, now(), 0,
                              root ? -1 : stack_.back()});
        stack_.push_back(id);
        struct Close {
            Tracer &t;
            int id;
            ~Close()
            {
                t.spans_[id].end_ns = t.now();
                t.stack_.pop_back();
            }
        } close{*this, id};
        return fn();
    }

    void setRequest(std::string id) { request_ = std::move(id); }

    /** Drop everything recorded so far. */
    void
    clear()
    {
        spans_.clear();
        counts_.clear();
    }

    /** Record a count observed at a layer boundary. */
    void
    count(const std::string &name, double value)
    {
        counts_.emplace_back(name, value);
    }

    std::string toJson() const;

  private:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::string request_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::pair<std::string, double>> counts_;
};

std::string
Tracer::toJson() const
{
    std::string out = "{\"spans\": [";
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"id\": %zu, \"parent\": %d, \"start_ns\": %" PRId64
                      ", \"end_ns\": %" PRId64 ", ",
                      i ? "," : "", i, s.parent, s.start_ns, s.end_ns);
        out += buf;
        out += "\"name\": \"" + serve::jsonEscape(s.name) +
               "\", \"request\": \"" + serve::jsonEscape(s.request) + "\"}";
    }
    out += "],\n\"counts\": {";
    for (size_t i = 0; i < counts_.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", i ? ", " : "",
                      counts_[i].first.c_str(), counts_[i].second);
        out += buf;
    }
    out += "}}\n";
    return out;
}

/** Subscribes to a fixed hook set and does nothing: configuration (b),
 * the runtime's dispatch cost without an analysis body. */
class EmptyAnalysis : public runtime::Analysis {
  public:
    explicit EmptyAnalysis(core::HookSet hooks) : hooks_(hooks) {}
    core::HookSet hooks() const override { return hooks_; }

  private:
    core::HookSet hooks_;
};

struct Options {
    std::string kernel, app, small_app, large_app, profile, upload, out;
    int reps = 3;
};

std::string
arg(const std::string &a, const std::string &key)
{
    return a.rfind(key, 0) == 0 ? a.substr(key.size()) : std::string();
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (!arg(a, "--kernel=").empty())
            o.kernel = arg(a, "--kernel=");
        else if (!arg(a, "--app=").empty())
            o.app = arg(a, "--app=");
        else if (!arg(a, "--small-app=").empty())
            o.small_app = arg(a, "--small-app=");
        else if (!arg(a, "--large-app=").empty())
            o.large_app = arg(a, "--large-app=");
        else if (!arg(a, "--profile=").empty())
            o.profile = arg(a, "--profile=");
        else if (!arg(a, "--upload=").empty())
            o.upload = arg(a, "--upload=");
        else if (!arg(a, "--out=").empty())
            o.out = arg(a, "--out=");
        else if (!arg(a, "--reps=").empty())
            o.reps = std::stoi(arg(a, "--reps="));
        else
            throw std::invalid_argument("unexpected argument: " + a);
    }
    if (o.kernel.empty() || o.app.empty() || o.small_app.empty() ||
        o.large_app.empty() || o.profile.empty() || o.upload.empty() ||
        o.out.empty() || o.reps < 1)
        throw std::invalid_argument(
            "usage: wasabi_layer_trace --kernel= --app= --small-app= "
            "--large-app= --profile= --upload= --out= [--reps=N]");
    return o;
}

/** The layer jobs. Each one is a request of the traced run. */
class Suite {
  public:
    Suite(Tracer &t, const Options &o) : t_(t), o_(o) {}

    void
    runAll(int rep)
    {
        job("app.instrument", rep, [&] { appInstrument(); });
        job("app.intrinsic_info", rep, [&] { appIntrinsicInfo(); });
        job("app.opt", rep, [&] { appOpt(); });
        job("kernel.bare", rep, [&] { kernelBare(); });
        job("kernel.empty_rewrite", rep, [&] {
            kernelAnalyzed(nullptr, mixHooks(), false, "empty_rewrite");
        });
        job("kernel.empty_intrinsic", rep, [&] {
            kernelAnalyzed(nullptr, mixHooks(), true, "empty_intrinsic");
        });
        job("kernel.mix", rep, [&] {
            kernelAnalyzed("mix", mixHooks(), false, "mix");
        });
        job("kernel.empty_mem", rep, [&] {
            kernelAnalyzed(nullptr, memHooks(), false, "empty_mem");
        });
        job("kernel.mem", rep, [&] {
            kernelAnalyzed("mem", memHooks(), false, "mem");
        });
        job("kernel.profile", rep, [&] { kernelProfile(); });
        job("serve.parts", rep, [&] { serveParts(); });
        job("serve.mix", rep, [&] { serveMix(); });
    }

    /** Counts are taken once, from the last (warmest) repetition. */
    bool record_counts = false;

  private:
    template <typename F>
    void
    job(const std::string &name, int rep, F &&fn)
    {
        t_.setRequest(name + "#" + std::to_string(rep) +
                      (t_.detailed ? "" : "u"));
        t_.span(name, fn);
    }

    void
    count(const std::string &name, double v)
    {
        if (record_counts)
            t_.count(name, v);
    }

    static core::HookSet
    mixHooks()
    {
        return analyses::makeAnalysis("mix")->hooks();
    }

    static core::HookSet
    memHooks()
    {
        return analyses::makeAnalysis("mem")->hooks();
    }

    wasm::Module
    load(const std::string &path)
    {
        std::vector<uint8_t> bytes = support::readBinaryFile(path);
        return t_.span("wasm.decode_validate", [&] {
            wasm::Module m = wasm::decodeModule(bytes);
            wasm::validateModule(m);
            return m;
        });
    }

    void
    appInstrument()
    {
        count("wasm.module_bytes",
              static_cast<double>(support::readBinaryFile(o_.app).size()));
        wasm::Module m = load(o_.app);
        core::InstrumentResult r = t_.span("core.instrument", [&] {
            return core::instrument(m, core::HookSet::all());
        });
        std::vector<uint8_t> out = t_.span(
            "wasm.encode", [&] { return wasm::encodeModule(r.module); });
        count("core.hooks_generated",
              static_cast<double>(r.info->hooks.size()));
        count("app.instrumented_bytes", static_cast<double>(out.size()));
    }

    void
    appIntrinsicInfo()
    {
        wasm::Module m = load(o_.app);
        t_.span("core.intrinsic_info", [&] {
            return core::buildIntrinsicInfo(m, core::HookSet::all());
        });
    }

    void
    appOpt()
    {
        wasm::Module m = load(o_.app);
        static_analysis::rewrite::OptResult r =
            t_.span("static.opt", [&] {
                return static_analysis::rewrite::optimize(
                    m, static_analysis::rewrite::allOptPasses());
            });
        std::vector<uint8_t> bytes = t_.span(
            "wasm.encode", [&] { return wasm::encodeModule(r.module); });
        auto diags = t_.span("static.opt_check", [&] {
            return static_analysis::rewrite::checkOptimization(m, bytes,
                                                               r.claims);
        });
        if (!diags.empty())
            throw std::runtime_error("optimization claims did not re-prove");
        count("static.opt_claims",
              static_cast<double>(r.claims.totalClaims()));
    }

    /** Invoke the module's "kernel" export; returns the instructions
     * executed. */
    uint64_t
    exec(interp::Instance &inst)
    {
        interp::Interpreter interp;
        t_.span("interp.exec",
                [&] { return interp.invokeExport(inst, "kernel", {}); });
        return interp.stats().instructions;
    }

    void
    kernelBare()
    {
        wasm::Module m = load(o_.kernel);
        auto inst = t_.span("interp.instantiate", [&] {
            return interp::Instance::instantiate(std::move(m),
                                                 interp::Linker{});
        });
        count("interp.instructions", static_cast<double>(exec(*inst)));
        count("interp.translations",
              static_cast<double>(
                  inst->engineCode().translationsPerformed()));
    }

    /** Configurations (b) (@p analysis null: empty analysis on the same
     * hooks) and (c) (a shipped analysis), in either hook mode. @p tag
     * names the hook-invocation count. */
    void
    kernelAnalyzed(const char *analysis, core::HookSet hooks, bool intrinsic,
                   const std::string &tag)
    {
        wasm::Module m = load(o_.kernel);
        std::unique_ptr<runtime::Analysis> a =
            analysis ? analyses::makeAnalysis(analysis)
                     : std::make_unique<EmptyAnalysis>(hooks);
        core::InstrumentResult r;
        std::shared_ptr<const core::StaticInfo> info;
        if (intrinsic) {
            info = t_.span("core.intrinsic_info", [&] {
                return core::buildIntrinsicInfo(m, hooks);
            });
        } else {
            r = t_.span("core.instrument",
                        [&] { return core::instrument(m, hooks); });
            info = r.info;
        }
        runtime::WasabiRuntime rt(info);
        rt.addAnalysis(a.get(), analysis ? analysis : "empty");
        auto inst = t_.span("interp.instantiate", [&] {
            return intrinsic ? rt.instantiateIntrinsic(m)
                             : rt.instantiate(r.module);
        });
        exec(*inst);
        count("hooks." + tag, static_cast<double>(rt.hookInvocations()));
        if (analysis)
            t_.span("analyses.report", [&] {
                return analyses::analysisReport(analysis, *a, m);
            });
    }

    void
    kernelProfile()
    {
        wasm::Module m = load(o_.profile);
        auto a = analyses::makeAnalysis("mix");
        core::HookSet hooks = a->hooks();
        std::shared_ptr<const core::StaticInfo> info =
            core::buildIntrinsicInfo(m, hooks);
        runtime::WasabiRuntime rt(info);
        rt.addAnalysis(a.get(), "mix");
        obs::ProfileCollector collector(true);
        collector.setInstrumentMode("intrinsic");
        rt.setProfiler(&collector);
        auto inst = rt.instantiateIntrinsic(m);
        exec(*inst);
        std::string json =
            t_.span("obs.profile_json", [&] { return collector.toJson(); });
        if (json.empty())
            throw std::runtime_error("empty profile document");
    }

    /** The serve daemon's request parts, each timed on its own, and
     * whole Server::handle calls of an analyze request for the small
     * app (whose read and hash are small enough that handle's own work
     * shows): handle self = handle - parse - read and hash. */
    void
    serveParts()
    {
        const std::string analyze = "{\"op\": \"analyze\", \"module\": \"" +
                                    serve::jsonEscape(o_.small_app) + "\"}";
        constexpr int kReps = 1000;
        t_.span("serve.parse_x1000", [&] {
            for (int i = 0; i < kReps; ++i)
                serve::parseRequest(analyze);
        });
        t_.span("serve.read_hash", [&] {
            return serve::contentHash(
                support::readBinaryFile(o_.large_app));
        });
        t_.span("serve.read_hash_small_x1000", [&] {
            for (int i = 0; i < kReps; ++i)
                serve::contentHash(support::readBinaryFile(o_.small_app));
        });
        t_.span("serve.handle_small_x1000", [&] {
            for (int i = 0; i < kReps; ++i) {
                serve::Server::Handled h = server_.handle(analyze);
                if (h.response.find("\"ok\": true") == std::string::npos)
                    throw std::runtime_error("analyze failed: " + h.response);
            }
        });
        std::shared_ptr<serve::CachedModule> entry =
            server_.cache().acquire(support::readBinaryFile(o_.small_app),
                                    o_.small_app);
        server_.pool().release(server_.pool().acquire(*entry));
        t_.span("serve.pool_restore", [&] {
            server_.pool().release(server_.pool().acquire(*entry));
        });
    }

    /** A small serve-mixed style sequence on an in-process Server: warm
     * every module, then a window of warm requests (the translation
     * counter must not move), then fresh uploads (cache misses). */
    void
    serveMix()
    {
        const std::string small = serve::jsonEscape(o_.small_app);
        const std::string warm[] = {
            "{\"op\": \"run\", \"module\": \"" + small +
                "\", \"analysis\": \"mix\", \"args\": [\"i32:1\"]}",
            "{\"op\": \"profile\", \"module\": \"" +
                serve::jsonEscape(o_.profile) + "\", \"analysis\": \"mix\"}",
            "{\"op\": \"run\", \"module\": \"" +
                serve::jsonEscape(o_.kernel) + "\", \"analysis\": \"blocks\"}",
        };
        for (const std::string &line : warm)
            server_.handle(line);
        const uint64_t hits0 = server_.cache().hits();
        const uint64_t miss0 = server_.cache().misses();
        const uint64_t phits0 = server_.pool().hits();
        const uint64_t pmiss0 = server_.pool().misses();
        const uint64_t tr0 = server_.translations();
        for (int i = 0; i < 3; ++i)
            for (const std::string &line : warm)
                t_.span("serve.handle_warm",
                        [&] { return server_.handle(line); });
        const uint64_t warm_translations = server_.translations() - tr0;
        std::vector<uint8_t> base = support::readBinaryFile(o_.upload);
        for (int i = 0; i < 3; ++i) {
            // A custom section with a fresh nonce makes a module the
            // cache has never seen; semantics are unchanged.
            std::vector<uint8_t> bytes = base;
            const std::string name = "perfbench.nonce";
            bytes.push_back(0);
            bytes.push_back(static_cast<uint8_t>(1 + name.size() + 8));
            bytes.push_back(static_cast<uint8_t>(name.size()));
            bytes.insert(bytes.end(), name.begin(), name.end());
            for (int b = 0; b < 8; ++b)
                bytes.push_back(static_cast<uint8_t>((++nonce_ >> (8 * b))));
            const std::string path = o_.out + ".upload.wasm";
            support::writeBinaryFile(path, bytes);
            t_.span("serve.handle_upload", [&] {
                return server_.handle("{\"op\": \"run\", \"module\": \"" +
                                      serve::jsonEscape(path) +
                                      "\", \"analysis\": \"blocks\", "
                                      "\"args\": [\"i32:5\"]}");
            });
        }
        const double hits = server_.cache().hits() - hits0;
        const double misses = server_.cache().misses() - miss0;
        const double phits = server_.pool().hits() - phits0;
        const double pmisses = server_.pool().misses() - pmiss0;
        count("serve.cache_hit_ratio", hits / (hits + misses));
        count("serve.pool_hit_ratio", phits / (phits + pmisses));
        count("serve.cache_entries",
              static_cast<double>(server_.cache().size()));
        count("serve.warm_translations",
              static_cast<double>(warm_translations));
    }

    Tracer &t_;
    const Options &o_;
    serve::Server server_;
    uint64_t nonce_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options o = parseOptions(argc, argv);
        Tracer tracer(Clock::now());
        Suite suite(tracer, o);
        // One unrecorded pass first, so page faults, allocator growth and
        // the server's caches do not land on whichever configuration
        // runs first; then untraced and traced passes in ABBA order, so
        // drift on a shared host hits both alike.
        tracer.detailed = false;
        suite.runAll(-1);
        tracer.clear();
        for (int rep = 0; rep < o.reps; ++rep) {
            for (bool detailed : {rep % 2 == 1, rep % 2 == 0}) {
                tracer.detailed = detailed;
                suite.record_counts = detailed && rep == o.reps - 1;
                suite.runAll(rep);
            }
        }
        support::writeTextFile(o.out, tracer.toJson());
        return 0;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "wasabi_layer_trace: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wasabi_layer_trace: %s\n", e.what());
        return 1;
    }
}
