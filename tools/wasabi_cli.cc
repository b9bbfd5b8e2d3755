/**
 * @file
 * The `wasabi` command-line tool — the reproduction's equivalent of
 * the original project's CLI (`wasabi input.wasm`), extended with an
 * execution mode since this repository ships its own engine.
 *
 *   wasabi validate  <in.wasm>
 *   wasabi dump      <in.wasm>
 *   wasabi instrument <in.wasm> <out.wasm> [--hooks=h1,h2|all]
 *                     [--threads=N] [--no-split-i64]
 *                     (--threads: default and 0 = one per CPU)
 *   wasabi run       <in.wasm> [--entry=name] [--analysis=NAME]
 *                     [--arg=i32:N ...]   (entry: main, else kernel)
 *   wasabi gen       <polybench:NAME[:N] | random:SEED | app:SIZE>
 *                     <out.wasm>
 *   wasabi opt       <in.wasm> --out=FILE [--passes=p1,p2|all]
 *                     [--manifest-out=FILE] [--json[=FILE]]
 *                     [--no-verify]
 *                     (passes: call-indirect, const-fold, dead-stores)
 *   wasabi check     <orig.wasm> <instrumented.wasm> [--hooks=...]
 *                     [--json]
 *   wasabi check     <orig.wasm> <optimized.wasm> --manifest=FILE
 *                     [--json]   (re-prove a `wasabi opt` manifest)
 *   wasabi lint      <in.wasm> [--json]
 *   wasabi analyze   <in.wasm> [--json] [--ranges]
 *                     [--dot=callgraph|refined|cfg:FUNC|ranges:FUNC]
 *   wasabi profile   <in.wasm> [--analysis=NAME] [--hooks=...]
 *                     [--entry=NAME] [--arg=...] [--threads=N]
 *                     [--json] [--deterministic] [--out=FILE]
 *                     [--trace-out=FILE]
 *   wasabi profile   --check=FILE
 *   wasabi serve     --socket=PATH | --request=FILE|- [--clients=N]
 *   wasabi help      [<command>]
 *   wasabi --version
 *
 * Analyses: mix, blocks, icov, branch, callgraph, taint, miner, mem.
 *
 * Exit codes: 0 success / no findings, 1 runtime error or invalid
 * module (every command that consumes a module validates it first and
 * prints `INVALID: ...`), 2 usage error (including an unknown
 * `--option` or option value), 3 `check`/`lint` found findings.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "analyses/instruction_mix.h"
#include "analyses/registry.h"
#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "interp/engine/code.h"
#include "interp/interpreter.h"
#include "obs/profile.h"
#include "static/analyze.h"
#include "static/check.h"
#include "static/passes/pipeline.h"
#include "static/rewrite/opt.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/file_io.h"
#include "support/json.h"
#include "support/module_io.h"
#include "support/numeric.h"
#include "support/parallel.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/name_section.h"
#include "wasm/printer.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

using namespace wasabi;

// Injected by the build (tools/CMakeLists.txt) from project(VERSION).
#ifndef WASABI_VERSION
#define WASABI_VERSION "unknown"
#endif

namespace {

/** Bad invocation (missing operands) — exits 2, not 1. */
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** A module that fails validation — `INVALID: <why>`, exit 1. */
struct InvalidModule : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** An argument no option of @p cmd matched: a `--`-prefixed one is a
 * misspelled or retired option, never a path. */
void
rejectUnknownOption(const char *cmd, const std::string &a)
{
    if (a.rfind("--", 0) == 0)
        throw UsageError(std::string(cmd) + ": unknown option '" + a +
                         "'");
}

// Thin wrappers over the checked I/O layer (support/file_io.h), kept
// so the many call sites below read unchanged. Every write verifies
// the stream after write+flush+close (a full disk or EIO surfaces as
// a structured IoError and exit 1, never a silently truncated
// artifact with exit 0), and module loading reports directories,
// empty files, and truncated binaries precisely instead of falling
// through to a baffling WAT parse error.

std::vector<uint8_t>
readFile(const std::string &path)
{
    return support::readBinaryFile(path);
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    support::writeBinaryFile(path, bytes);
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    support::writeTextFile(path, text);
}

/** Every per-function phase the CLI runs (decode, validation,
 * instrument, opt, check) gets one worker per CPU; outputs do not
 * depend on the count. */
using support::kAllCpus;

/** Load a module from .wasm binary or .wat text (by content). */
wasm::Module
loadModule(const std::string &path)
{
    return support::loadModuleFromFile(path, kAllCpus);
}

/** Decode or parse a module and validate it: the engines, the
 * instrumenter and the static passes all assume a valid module, so
 * every command that consumes one goes through here before it writes
 * anything. */
wasm::Module
validModule(const std::vector<uint8_t> &bytes, const std::string &path)
{
    wasm::Module m = support::loadModuleFromBytes(bytes, path, kAllCpus);
    if (std::optional<std::string> err = wasm::validationError(m, kAllCpus))
        throw InvalidModule(*err);
    return m;
}

/** validModule() of the file at @p path. */
wasm::Module
loadValidModule(const std::string &path, size_t *file_size = nullptr)
{
    std::vector<uint8_t> bytes = readFile(path);
    if (file_size)
        *file_size = bytes.size();
    return validModule(bytes, path);
}

/** A `--hooks=` list (core::parseHookSet); a bad one is a usage
 * error. */
core::HookSet
parseHooks(const std::string &spec)
{
    std::string error;
    std::optional<core::HookSet> set = core::parseHookSet(spec, &error);
    if (!set)
        throw UsageError("--hooks: " + error);
    return *set;
}

interp::EngineKind
parseEngine(const std::string &spec)
{
    if (spec == "fast")
        return interp::EngineKind::Fast;
    if (spec == "legacy")
        return interp::EngineKind::Legacy;
    throw UsageError("unknown engine '" + spec +
                     "' (expected fast or legacy)");
}

/** How hooks reach the runtime (DESIGN.md §12). */
enum class InstrumentMode {
    Rewrite,  ///< binary rewriting + hook imports (the paper's design)
    Intrinsic ///< fast engine dispatches hooks from its inner loop
};

InstrumentMode
parseInstrumentMode(const std::string &spec)
{
    if (spec == "rewrite")
        return InstrumentMode::Rewrite;
    if (spec == "intrinsic")
        return InstrumentMode::Intrinsic;
    throw UsageError("unknown instrument mode '" + spec +
                     "' (expected rewrite or intrinsic)");
}

/** An `--arg=` value (support::parseArgSpec); a bad one is a usage
 * error naming it. */
wasm::Value
parseArg(const std::string &spec)
{
    try {
        return support::parseArgSpec(spec);
    } catch (const std::invalid_argument &e) {
        throw UsageError(e.what());
    }
}

/** Upper bound on every worker/client thread count the CLI accepts. */
constexpr uint64_t kMaxThreads = 256;

/** A strict count token (support::parseUInt) in [0, @p max]; a bad
 * one is a usage error naming @p what and the token. */
uint64_t
parseCount(const std::string &what, const std::string &tok, uint64_t max)
{
    std::optional<uint64_t> v = support::parseUInt(tok, max);
    if (!v)
        throw UsageError("bad " + what + " '" + tok +
                         "' (expected an integer in [0, " +
                         std::to_string(max) + "])");
    return *v;
}

const char *
name(InstrumentMode mode)
{
    return mode == InstrumentMode::Rewrite ? "rewrite" : "intrinsic";
}

int
cmdValidate(const std::string &path)
{
    wasm::Module m = loadModule(path);
    if (auto err = wasm::validationError(m, kAllCpus)) {
        std::printf("INVALID: %s\n", err->c_str());
        return 1;
    }
    std::printf("OK: %u functions, %zu instructions, %zu types\n",
                m.numFunctions(), m.numInstructions(), m.types.size());
    return 0;
}

int
cmdDump(const std::string &path)
{
    wasm::Module m = loadModule(path);
    std::fputs(wasm::toString(m).c_str(), stdout);
    return 0;
}

int
cmdInstrument(const std::vector<std::string> &args)
{
    std::string in_path, out_path, profile_out;
    core::HookSet hooks = core::HookSet::all();
    bool profile = false;
    core::InstrumentOptions opts;
    opts.numThreads = kAllCpus;
    for (const std::string &a : args) {
        if (a.rfind("--hooks=", 0) == 0)
            hooks = parseHooks(a.substr(8));
        else if (a.rfind("--threads=", 0) == 0)
            opts.numThreads = static_cast<unsigned>(
                parseCount("--threads", a.substr(10), kMaxThreads));
        else if (a == "--no-split-i64")
            opts.splitI64 = false;
        else if (a == "--profile")
            profile = true;
        else if (a.rfind("--profile-out=", 0) == 0)
            profile_out = a.substr(14);
        else {
            rejectUnknownOption("instrument", a);
            if (in_path.empty())
                in_path = a;
            else
                out_path = a;
        }
    }
    if (in_path.empty() || out_path.empty())
        throw UsageError("usage: instrument <in> <out> [opts]");
    obs::ProfileCollector collector(profile || !profile_out.empty());
    size_t in_size = 0;
    auto m = [&] {
        obs::ProfileCollector::ScopedPhase p(&collector, "decode");
        return std::make_shared<const wasm::Module>(
            loadValidModule(in_path, &in_size));
    }();
    // The instrumenter encodes as it goes; its last step, the stitch
    // of the workers' bytes, is reported as the encode phase.
    const uint64_t start = collector.now();
    core::InstrumentedBinary r = core::instrumentToBytes(m, hooks, opts);
    const uint64_t nanos = collector.now() - start;
    collector.recordPhase("instrument", start, nanos - r.stats.encodeNanos);
    collector.recordPhase("encode", start + nanos - r.stats.encodeNanos,
                          r.stats.encodeNanos);
    collector.recordInstrumentation(r.stats);
    const std::vector<uint8_t> &out = r.bytes;
    writeFile(out_path, out);
    std::printf("instrumented %s -> %s\n", in_path.c_str(),
                out_path.c_str());
    std::printf("  hooks generated: %zu (on-demand monomorphization)\n",
                r.info->hooks.size());
    std::printf("  size: %zu -> %zu bytes (%.1f%%)\n", in_size, out.size(),
                100.0 * out.size() / in_size);
    if (!profile_out.empty())
        writeTextFile(profile_out, collector.toJson());
    else if (profile)
        std::fputs(collector.toText().c_str(), stdout);
    return 0;
}

// Analysis construction and report rendering live in the shared
// registry (analyses/registry.h), used identically by the serve
// daemon.

std::unique_ptr<runtime::Analysis>
makeAnalysis(const std::string &name)
{
    return analyses::makeAnalysis(name);
}

void
printReport(const std::string &name, runtime::Analysis &a,
            const wasm::Module &m)
{
    std::fputs(analyses::analysisReport(name, a, m).c_str(), stdout);
}

int
cmdRun(const std::vector<std::string> &args)
{
    std::string path, entry, analysis = "mix", profile_out;
    bool profile = false;
    interp::EngineKind engine = interp::EngineKind::Fast;
    InstrumentMode mode = InstrumentMode::Rewrite;
    std::vector<wasm::Value> call_args;
    for (const std::string &a : args) {
        if (a.rfind("--entry=", 0) == 0) {
            entry = a.substr(8);
        } else if (a.rfind("--analysis=", 0) == 0) {
            analysis = a.substr(11);
        } else if (a.rfind("--engine=", 0) == 0) {
            engine = parseEngine(a.substr(9));
        } else if (a.rfind("--instrument-mode=", 0) == 0) {
            mode = parseInstrumentMode(a.substr(18));
        } else if (a == "--profile") {
            profile = true;
        } else if (a.rfind("--profile-out=", 0) == 0) {
            profile_out = a.substr(14);
        } else if (a.rfind("--arg=", 0) == 0) {
            call_args.push_back(parseArg(a.substr(6)));
        } else {
            rejectUnknownOption("run", a);
            path = a;
        }
    }
    if (path.empty())
        throw UsageError("usage: run <in.wasm> [opts]");
    if (mode == InstrumentMode::Intrinsic &&
        engine == interp::EngineKind::Legacy)
        throw UsageError("--instrument-mode=intrinsic requires "
                         "--engine=fast (the legacy walker cannot "
                         "dispatch intrinsic hooks)");
    obs::ProfileCollector collector(profile || !profile_out.empty());
    collector.setInstrumentMode(name(mode));
    wasm::Module m = [&] {
        obs::ProfileCollector::ScopedPhase p(&collector, "decode");
        return loadValidModule(path);
    }();
    if (entry.empty())
        entry = m.defaultEntry();
    auto a = makeAnalysis(analysis);
    core::HookSet hook_set =
        runtime::WasabiRuntime::requiredHooks({a.get()});
    core::InstrumentResult r; // rewrite mode only
    std::shared_ptr<const core::StaticInfo> info;
    if (mode == InstrumentMode::Intrinsic) {
        obs::ProfileCollector::ScopedPhase p(&collector, "instrument");
        info = core::buildIntrinsicInfo(m, hook_set);
    } else {
        obs::ProfileCollector::ScopedPhase p(&collector, "instrument");
        r = core::instrument(m, hook_set);
        collector.recordInstrumentation(r.stats);
        info = r.info;
    }
    runtime::WasabiRuntime rt(info);
    rt.addAnalysis(a.get(), analysis);
    if (collector.enabled())
        rt.setProfiler(&collector);
    auto inst = mode == InstrumentMode::Intrinsic
                    ? rt.instantiateIntrinsic(m)
                    : rt.instantiate(r.module);
    interp::Interpreter interp;
    interp.engine = engine;
    auto results = [&] {
        obs::ProfileCollector::ScopedPhase p(&collector, "execute");
        return interp.invokeExport(*inst, entry, call_args);
    }();
    const interp::ExecStats &es = interp.stats();
    collector.setInterpCounters(obs::InterpCounters{
        es.instructions, es.calls, es.memoryOps, es.traps});
    std::printf("%s(", entry.c_str());
    for (size_t i = 0; i < call_args.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    toString(call_args[i]).c_str());
    std::printf(") = ");
    for (const wasm::Value &v : results)
        std::printf("%s ", toString(v).c_str());
    std::printf("\n\n--- %s analysis ---\n", analysis.c_str());
    printReport(analysis, *a, m);
    if (!profile_out.empty())
        writeTextFile(profile_out, collector.toJson());
    else if (profile)
        std::fputs(collector.toText().c_str(), stdout);
    return 0;
}

int
cmdProfile(const std::vector<std::string> &args)
{
    std::string path, entry, analysis = "mix", out_path, trace_out;
    std::string check_path;
    bool json = false, deterministic = false;
    interp::EngineKind engine = interp::EngineKind::Fast;
    InstrumentMode mode = InstrumentMode::Rewrite;
    core::InstrumentOptions iopts;
    std::string hooks;
    std::vector<wasm::Value> call_args;
    for (const std::string &a : args) {
        if (a.rfind("--entry=", 0) == 0)
            entry = a.substr(8);
        else if (a.rfind("--analysis=", 0) == 0)
            analysis = a.substr(11);
        else if (a.rfind("--engine=", 0) == 0)
            engine = parseEngine(a.substr(9));
        else if (a.rfind("--instrument-mode=", 0) == 0)
            mode = parseInstrumentMode(a.substr(18));
        else if (a.rfind("--hooks=", 0) == 0)
            hooks = a.substr(8);
        else if (a.rfind("--threads=", 0) == 0)
            iopts.numThreads = static_cast<unsigned>(
                parseCount("--threads", a.substr(10), kMaxThreads));
        else if (a == "--json")
            json = true;
        else if (a == "--deterministic")
            deterministic = true;
        else if (a.rfind("--out=", 0) == 0)
            out_path = a.substr(6);
        else if (a.rfind("--trace-out=", 0) == 0)
            trace_out = a.substr(12);
        else if (a.rfind("--check=", 0) == 0)
            check_path = a.substr(8);
        else if (a.rfind("--arg=", 0) == 0)
            call_args.push_back(parseArg(a.substr(6)));
        else {
            rejectUnknownOption("profile", a);
            path = a;
        }
    }

    // Validation mode: check an existing profile JSON against the
    // schema and exit.
    if (!check_path.empty()) {
        std::vector<uint8_t> bytes = readFile(check_path);
        std::string error;
        if (!obs::validateProfileJson(
                std::string(bytes.begin(), bytes.end()), &error)) {
            std::fprintf(stderr, "%s: %s\n", check_path.c_str(),
                         error.c_str());
            return 1;
        }
        std::printf("%s: valid %s v%d\n", check_path.c_str(),
                    obs::kProfileSchemaName, obs::kProfileSchemaVersion);
        return 0;
    }

    if (path.empty())
        throw UsageError(
            "usage: profile <in.wasm> [opts] | profile --check=FILE");
    if (mode == InstrumentMode::Intrinsic &&
        engine == interp::EngineKind::Legacy)
        throw UsageError("--instrument-mode=intrinsic requires "
                         "--engine=fast (the legacy walker cannot "
                         "dispatch intrinsic hooks)");
    obs::ProfileCollector collector;
    collector.setInstrumentMode(name(mode));
    wasm::Module m = [&] {
        obs::ProfileCollector::ScopedPhase p(&collector, "decode");
        return loadValidModule(path);
    }();
    auto a = makeAnalysis(analysis);
    core::HookSet hook_set =
        hooks.empty() ? runtime::WasabiRuntime::requiredHooks({a.get()})
                      : parseHooks(hooks);
    core::InstrumentResult r; // rewrite mode only
    std::shared_ptr<const core::StaticInfo> info;
    if (mode == InstrumentMode::Intrinsic) {
        obs::ProfileCollector::ScopedPhase p(&collector, "instrument");
        info = core::buildIntrinsicInfo(m, hook_set);
    } else {
        obs::ProfileCollector::ScopedPhase p(&collector, "instrument");
        r = core::instrument(m, hook_set, iopts);
        collector.recordInstrumentation(r.stats);
        info = r.info;
    }
    runtime::WasabiRuntime rt(info);
    rt.addAnalysis(a.get(), analysis);
    rt.setProfiler(&collector);
    auto inst = mode == InstrumentMode::Intrinsic
                    ? rt.instantiateIntrinsic(m)
                    : rt.instantiate(r.module);
    if (entry.empty())
        entry = m.defaultEntry();
    interp::Interpreter interp;
    interp.engine = engine;
    {
        obs::ProfileCollector::ScopedPhase p(&collector, "execute");
        interp.invokeExport(*inst, entry, call_args);
    }
    const interp::ExecStats &es = interp.stats();
    collector.setInterpCounters(obs::InterpCounters{
        es.instructions, es.calls, es.memoryOps, es.traps});

    if (!trace_out.empty())
        writeTextFile(trace_out, collector.toChromeTrace());
    std::string report = json || !out_path.empty() || deterministic
                             ? collector.toJson(deterministic)
                             : collector.toText();
    if (!out_path.empty())
        writeTextFile(out_path, report);
    else
        std::fputs(report.c_str(), stdout);
    return 0;
}

int
cmdGen(const std::string &spec, const std::string &out_path)
{
    wasm::Module m;
    auto bad = [&](const std::string &what, const std::string &tok) {
        return UsageError("gen: bad " + what + " '" + tok + "' in '" +
                          spec + "'");
    };
    if (spec.rfind("polybench:", 0) == 0) {
        std::string rest = spec.substr(10);
        int n = 20;
        size_t colon = rest.find(':');
        if (colon != std::string::npos) {
            std::string tok = rest.substr(colon + 1);
            std::optional<uint64_t> v = support::parseUInt(tok, INT_MAX);
            if (!v || *v < 1)
                throw bad("size (expected an integer >= 1)", tok);
            n = static_cast<int>(*v);
            rest = rest.substr(0, colon);
        }
        m = workloads::polybench(rest, n).module;
    } else if (spec.rfind("random:", 0) == 0) {
        workloads::RandomProgramOptions opts;
        std::optional<uint64_t> seed = support::parseUInt(spec.substr(7));
        if (!seed)
            throw bad("seed (expected an unsigned integer)", spec.substr(7));
        opts.seed = *seed;
        m = workloads::randomProgram(opts).module;
    } else if (spec.rfind("app:", 0) == 0) {
        std::string size = spec.substr(4);
        workloads::AppSize s;
        if (size == "small")
            s = workloads::AppSize::Small;
        else if (size == "medium")
            s = workloads::AppSize::PdfkitLike;
        else if (size == "large")
            s = workloads::AppSize::UnrealLike;
        else
            throw bad("app size (expected small, medium or large)", size);
        m = workloads::syntheticApp(s).module;
    } else {
        throw std::runtime_error("unknown generator spec: " + spec);
    }
    writeFile(out_path, wasm::encodeModule(m));
    std::printf("wrote %s (%zu bytes)\n", out_path.c_str(),
                wasm::encodeModule(m).size());
    return 0;
}

/** Observable outcome of invoking one export for the `opt`
 * differential gate. */
struct GateOutcome {
    std::vector<wasm::Value> results;
    std::optional<interp::TrapKind> trap;
    std::vector<uint8_t> memory;

    bool operator==(const GateOutcome &other) const = default;
};

std::optional<GateOutcome>
runGateExport(const wasm::Module &m, const std::string &entry,
              interp::EngineKind engine)
{
    GateOutcome out;
    std::unique_ptr<interp::Instance> inst;
    try {
        inst = interp::Instance::instantiate(m, interp::Linker());
    } catch (...) {
        return std::nullopt; // e.g. unresolved imports: gate skipped
    }
    interp::Interpreter interp;
    interp.engine = engine;
    try {
        out.results = interp.invokeExport(*inst, entry, {});
    } catch (const interp::Trap &t) {
        out.trap = t.kind();
    }
    out.memory = inst->memory().raw();
    return out;
}

/**
 * The `wasabi opt` differential-execution gate: every no-argument
 * export must behave identically (results, trap kind, final memory)
 * on the original and the optimized module, on both engines; and the
 * optimized module, instrumented with all hooks, must agree with
 * itself across engines including the hook-invocation stream.
 * Returns the number of exports exercised; throws on any divergence.
 */
size_t
runOptGate(const wasm::Module &orig, const wasm::Module &optimized)
{
    std::vector<std::string> entries;
    for (const wasm::Function &f : orig.functions) {
        if (!f.exportNames.empty() && orig.types[f.typeIdx].params.empty())
            entries.push_back(f.exportNames.front());
    }
    if (entries.empty())
        return 0; // nothing to run, so nothing to instrument either
    size_t checked = 0;
    for (const std::string &entry : entries) {
        std::optional<GateOutcome> ol =
            runGateExport(orig, entry, interp::EngineKind::Legacy);
        if (!ol)
            return checked; // cannot instantiate: nothing to compare
        std::optional<GateOutcome> of =
            runGateExport(orig, entry, interp::EngineKind::Fast);
        std::optional<GateOutcome> pl =
            runGateExport(optimized, entry, interp::EngineKind::Legacy);
        std::optional<GateOutcome> pf =
            runGateExport(optimized, entry, interp::EngineKind::Fast);
        if (!of || !pl || !pf || !(*ol == *of) || !(*ol == *pl) ||
            !(*ol == *pf))
            throw std::runtime_error(
                "opt verification failed: export \"" + entry +
                "\" diverges between original and optimized module");
        ++checked;
    }
    // Hook-stream gate: instrument the optimized module and require
    // both engines to agree on results and hook invocations.
    core::InstrumentResult r =
        core::instrument(optimized, core::HookSet::all());
    for (const std::string &entry : entries) {
        uint64_t hooks[2] = {0, 0};
        GateOutcome outs[2];
        bool ran = true;
        for (int e = 0; e < 2; ++e) {
            runtime::WasabiRuntime rt(r.info);
            analyses::InstructionMix mix;
            rt.addAnalysis(&mix);
            std::unique_ptr<interp::Instance> inst;
            try {
                inst = rt.instantiate(r.module);
            } catch (...) {
                ran = false;
                break;
            }
            interp::Interpreter interp;
            interp.engine = e == 0 ? interp::EngineKind::Legacy
                                   : interp::EngineKind::Fast;
            try {
                outs[e].results = interp.invokeExport(*inst, entry, {});
            } catch (const interp::Trap &t) {
                outs[e].trap = t.kind();
            }
            outs[e].memory = inst->memory().raw();
            hooks[e] = rt.hookInvocations();
        }
        if (ran && (!(outs[0] == outs[1]) || hooks[0] != hooks[1]))
            throw std::runtime_error(
                "opt verification failed: instrumented export \"" +
                entry + "\" diverges between engines");
    }
    return checked;
}

int
cmdOpt(const std::vector<std::string> &args)
{
    namespace rw = static_analysis::rewrite;
    std::string in_path, out_path, manifest_out, json_out;
    std::string passes_spec = "all";
    bool json = false, verify = true;
    for (const std::string &a : args) {
        if (a.rfind("--out=", 0) == 0)
            out_path = a.substr(6);
        else if (a.rfind("--passes=", 0) == 0)
            passes_spec = a.substr(9);
        else if (a.rfind("--manifest-out=", 0) == 0)
            manifest_out = a.substr(15);
        else if (a == "--json")
            json = true;
        else if (a.rfind("--json=", 0) == 0)
            json_out = a.substr(7);
        else if (a == "--no-verify")
            verify = false;
        else {
            rejectUnknownOption("opt", a);
            if (!in_path.empty())
                throw UsageError("opt: unexpected argument '" + a + "'");
            in_path = a;
        }
    }
    if (in_path.empty() || out_path.empty())
        throw UsageError("usage: opt <in.wasm> --out=FILE [--passes=...]"
                         " [--manifest-out=FILE] [--json[=FILE]]"
                         " [--no-verify]");

    std::vector<uint8_t> in_bytes = readFile(in_path);
    wasm::Module m = validModule(in_bytes, in_path);

    std::vector<std::string> passes;
    try {
        passes = rw::parsePassSpec(passes_spec);
    } catch (const rw::RewriteError &e) {
        throw UsageError(std::string("opt: ") + e.what());
    }

    rw::OptResult r = rw::optimize(m, passes, kAllCpus);
    if (auto err = wasm::validationError(r.module, kAllCpus))
        throw std::runtime_error(
            "internal error: optimized module fails validation: " + *err);
    // The "before" sizes are the loaded file's; WAT text has no
    // sections, so a text input is measured as encoded.
    std::vector<uint8_t> before_bytes =
        support::classifyModuleBytes(in_bytes, in_path) ==
                support::ModuleBytesKind::WasmBinary
            ? std::move(in_bytes)
            : wasm::encodeModule(m);
    std::vector<uint8_t> after_bytes = wasm::encodeModule(r.module);

    size_t gate_exports = 0;
    if (verify)
        gate_exports = runOptGate(m, r.module);

    writeFile(out_path, after_bytes);
    if (!manifest_out.empty())
        writeTextFile(manifest_out, rw::claimsToManifest(r.claims));

    // Merge before/after per-section sizes by section name.
    std::vector<std::pair<std::string, std::pair<size_t, size_t>>> secs;
    auto accumulate = [&secs](const std::vector<uint8_t> &bytes,
                              bool after) {
        for (const wasm::SectionSize &s : wasm::sectionSizes(bytes)) {
            auto it = std::find_if(secs.begin(), secs.end(),
                                   [&](const auto &e) {
                                       return e.first == s.name;
                                   });
            if (it == secs.end()) {
                secs.push_back({s.name, {0, 0}});
                it = secs.end() - 1;
            }
            (after ? it->second.second : it->second.first) += s.bytes;
        }
    };
    accumulate(before_bytes, false);
    accumulate(after_bytes, true);

    const rw::OptClaims &c = r.claims;
    if (json || !json_out.empty()) {
        std::string j =
            "{\n  \"schema\": \"wasabi-profile\",\n  \"version\": 1,\n"
            "  \"deterministic\": false,\n"
            "  \"runtime\": {\"hookInvocations\": 0, \"perKind\": []},\n"
            "  \"bench\": {\"name\": \"opt\",\n    \"passes\": [";
        for (size_t i = 0; i < c.passes.size(); ++i)
            j += std::string(i ? ", " : "") + "\"" + c.passes[i] + "\"";
        j += "],\n    \"claims\": {\"directCalls\": " +
             std::to_string(c.directCalls.size()) +
             ", \"constFolds\": " + std::to_string(c.constFolds.size()) +
             ", \"deadStores\": " + std::to_string(c.deadStores.size()) +
             "},\n    \"beforeBytes\": " +
             std::to_string(before_bytes.size()) +
             ",\n    \"afterBytes\": " + std::to_string(after_bytes.size()) +
             ",\n    \"sections\": [";
        for (size_t i = 0; i < secs.size(); ++i)
            j += std::string(i ? ", " : "") + "{\"section\": \"" +
                 secs[i].first +
                 "\", \"before\": " + std::to_string(secs[i].second.first) +
                 ", \"after\": " + std::to_string(secs[i].second.second) +
                 "}";
        j += "]\n  }\n}\n";
        std::string error;
        if (!obs::validateProfileJson(j, &error))
            throw std::runtime_error("internal error: opt JSON fails "
                                     "schema validation: " +
                                     error);
        if (!json_out.empty())
            writeTextFile(json_out, j);
        else
            std::fputs(j.c_str(), stdout);
        return 0;
    }

    std::printf("optimized %s -> %s\n", in_path.c_str(), out_path.c_str());
    std::printf("  passes:");
    for (const std::string &p : c.passes)
        std::printf(" %s", p.c_str());
    std::printf("\n");
    std::printf("  claims: %zu direct calls, %zu const folds, "
                "%zu dead stores\n",
                c.directCalls.size(), c.constFolds.size(),
                c.deadStores.size());
    std::printf("  size: %zu -> %zu bytes (%.1f%%)\n", before_bytes.size(),
                after_bytes.size(),
                100.0 * static_cast<double>(after_bytes.size()) /
                    static_cast<double>(before_bytes.size()));
    for (const auto &[name, ba] : secs) {
        if (ba.first != ba.second)
            std::printf("    %-10s %6zu -> %6zu bytes\n", name.c_str(),
                        ba.first, ba.second);
    }
    if (verify)
        std::printf("  verified: %zu export(s), both engines, "
                    "instrumented and uninstrumented\n",
                    gate_exports);
    if (!manifest_out.empty())
        std::printf("  manifest: %s (verify with `wasabi check %s %s "
                    "--manifest=%s`)\n",
                    manifest_out.c_str(), in_path.c_str(),
                    out_path.c_str(), manifest_out.c_str());
    return 0;
}

/** Print @p diags (as JSON, or as text ending in a count) or, when
 * there are none, @p ok_line; return the exit code (0 clean, 3
 * findings). */
int
reportFindings(const static_analysis::Diagnostics &diags, bool json,
               const std::string &ok_line)
{
    if (json) {
        std::fputs(static_analysis::toJson(diags).c_str(), stdout);
        std::fputs("\n", stdout);
    } else if (diags.empty()) {
        std::printf("%s\n", ok_line.c_str());
    } else {
        std::fputs(static_analysis::toString(diags).c_str(), stdout);
        std::printf("%zu finding(s)\n", diags.size());
    }
    return diags.empty() ? 0 : 3;
}

int
cmdCheck(const std::vector<std::string> &args)
{
    std::string orig_path, instr_path, manifest_path;
    static_analysis::CheckOptions opts;
    bool json = false;
    for (const std::string &a : args) {
        if (a.rfind("--hooks=", 0) == 0)
            opts.hooks = parseHooks(a.substr(8));
        else if (a.rfind("--manifest=", 0) == 0)
            manifest_path = a.substr(11);
        else if (a == "--json")
            json = true;
        else {
            rejectUnknownOption("check", a);
            if (orig_path.empty())
                orig_path = a;
            else
                instr_path = a;
        }
    }
    if (orig_path.empty() || instr_path.empty())
        throw UsageError("usage: check <orig.wasm> <instrumented.wasm> "
                         "[opts]");
    if (manifest_path.empty()) {
        wasm::Module orig = loadModule(orig_path);
        wasm::Module instr = loadModule(instr_path);
        return reportFindings(
            static_analysis::checkInstrumentation(orig, instr, opts), json,
            "OK: all instrumentation invariants hold");
    }
    // `wasabi opt` manifest: re-prove every optimization claim against
    // the original module and require the replayed result to match the
    // optimized binary byte-for-byte.
    namespace rw = static_analysis::rewrite;
    std::vector<uint8_t> bytes = readFile(manifest_path);
    std::string error;
    rw::OptClaims claims;
    if (!rw::claimsFromManifest(std::string(bytes.begin(), bytes.end()),
                                claims, &error))
        throw std::runtime_error("malformed opt manifest " +
                                 manifest_path + ": " + error);
    wasm::Module orig = loadModule(orig_path);
    return reportFindings(
        rw::checkOptimization(orig, readFile(instr_path), claims,
                              kAllCpus),
        json,
        "OK: all " + std::to_string(claims.totalClaims()) +
            " optimization claim(s) re-proved, output byte-identical to "
            "replay");
}

int
cmdLint(const std::vector<std::string> &args)
{
    std::string path;
    bool json = false;
    for (const std::string &a : args) {
        if (a == "--json")
            json = true;
        else {
            rejectUnknownOption("lint", a);
            path = a;
        }
    }
    if (path.empty())
        throw UsageError("usage: lint <in.wasm> [--json]");
    wasm::Module m = loadValidModule(path);
    return reportFindings(static_analysis::passes::lintModule(m), json,
                          "OK: no findings");
}

/** An `analyze --dot=` view, parsed before the module is loaded so a
 * bad one is a usage error. */
struct DotView {
    enum Kind { None, CallGraph, Refined, Cfg, Ranges } kind = None;
    uint32_t func = 0; ///< Cfg, Ranges
};

DotView
parseDotView(const std::string &spec)
{
    if (spec == "callgraph")
        return {DotView::CallGraph};
    if (spec == "refined")
        return {DotView::Refined};
    if (spec.rfind("cfg:", 0) == 0)
        return {DotView::Cfg,
                static_cast<uint32_t>(parseCount(
                    "--dot=cfg: index", spec.substr(4), UINT32_MAX))};
    if (spec.rfind("ranges:", 0) == 0)
        return {DotView::Ranges,
                static_cast<uint32_t>(parseCount(
                    "--dot=ranges: index", spec.substr(7), UINT32_MAX))};
    throw UsageError("unknown --dot target '" + spec +
                     "' (expected callgraph, refined, cfg:FUNC or "
                     "ranges:FUNC)");
}

int
cmdAnalyze(const std::vector<std::string> &args)
{
    std::string path;
    DotView dot;
    bool json = false, ranges = false;
    for (const std::string &a : args) {
        if (a == "--json")
            json = true;
        else if (a == "--ranges")
            ranges = true;
        else if (a.rfind("--dot=", 0) == 0)
            dot = parseDotView(a.substr(6));
        else {
            rejectUnknownOption("analyze", a);
            path = a;
        }
    }
    if (path.empty())
        throw UsageError("usage: analyze <in.wasm> [opts]");
    if (ranges && dot.kind != DotView::None)
        throw UsageError("analyze: --dot cannot be combined with "
                         "--ranges (both write to stdout)");
    wasm::Module m = loadValidModule(path);
    if (ranges) {
        std::fputs(static_analysis::rangesJson(m).c_str(), stdout);
        std::fputs("\n", stdout);
        return 0;
    }
    switch (dot.kind) {
    case DotView::None:
        break;
    case DotView::CallGraph:
        std::fputs(static_analysis::callGraphDot(m).c_str(), stdout);
        return 0;
    case DotView::Refined:
        std::fputs(static_analysis::refinedCallGraphDot(m).c_str(),
                   stdout);
        return 0;
    case DotView::Cfg:
    case DotView::Ranges: {
        const bool cfg = dot.kind == DotView::Cfg;
        if (dot.func >= m.numFunctions() ||
            m.functions[dot.func].imported())
            throw std::runtime_error(
                std::string(cfg ? "--dot=cfg" : "--dot=ranges") +
                ": not a defined function: " + std::to_string(dot.func));
        std::string out = cfg ? static_analysis::cfgDot(m, dot.func)
                              : static_analysis::rangesDot(m, dot.func);
        std::fputs(out.c_str(), stdout);
        return 0;
    }
    }
    static_analysis::ModuleReport report =
        static_analysis::analyzeModule(m);
    std::fputs(json ? static_analysis::toJson(report).c_str()
                    : static_analysis::toString(report).c_str(),
               stdout);
    if (json)
        std::fputs("\n", stdout);
    return 0;
}

int
cmdServe(const std::vector<std::string> &args)
{
    std::string socket_path, request_path;
    unsigned clients = 1;
    for (const std::string &a : args) {
        if (a.rfind("--socket=", 0) == 0)
            socket_path = a.substr(9);
        else if (a.rfind("--request=", 0) == 0)
            request_path = a.substr(10);
        else if (a.rfind("--clients=", 0) == 0)
            clients = static_cast<unsigned>(
                parseCount("--clients", a.substr(10), kMaxThreads));
        else
            throw UsageError("serve: unexpected argument '" + a + "'");
    }
    if (socket_path.empty() == request_path.empty())
        throw UsageError("usage: serve --socket=PATH | "
                         "serve --request=FILE|- [--clients=N]");
    if (clients == 0 || clients > 64)
        throw UsageError("serve: --clients must be in [1, 64]");

    serve::Server server;
    if (!socket_path.empty())
        return serve::serveUnixSocket(server, socket_path);

    // Driver mode: the full request path (parse, cache, pool, quotas,
    // structured errors) without socket plumbing — what tests and CI
    // script against.
    std::string text;
    if (request_path == "-") {
        text.assign(std::istreambuf_iterator<char>(std::cin),
                    std::istreambuf_iterator<char>());
    } else {
        std::vector<uint8_t> bytes = readFile(request_path);
        text.assign(bytes.begin(), bytes.end());
    }
    std::vector<std::string> lines;
    for (size_t pos = 0; pos < text.size();) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = text.substr(pos, nl - pos);
        if (!line.empty() && line != "\r")
            lines.push_back(std::move(line));
        pos = nl + 1;
    }

    if (clients == 1) {
        for (const std::string &line : lines) {
            serve::Server::Handled h = server.handle(line);
            std::printf("%s\n", h.response.c_str());
            if (h.shutdown)
                break;
        }
        return 0;
    }

    // Determinism gate: N concurrent clients replay the same request
    // sequence against one server; every client's responses must
    // agree byte-for-byte. Two request classes are excluded from the
    // comparison because they are *documented* to depend on
    // interleaving: metrics (shared counters) and verbose requests
    // (cache/pool provenance — which client ran cold is a race).
    // Client 0's transcript is printed, so a --clients=8 run is
    // comparable to a --clients=1 run with
    // `grep -v '"op": "metrics"'`.
    std::vector<bool> gated(lines.size(), true);
    for (size_t i = 0; i < lines.size(); ++i) {
        try {
            serve::Request r = serve::parseRequest(lines[i]);
            gated[i] = r.op != "metrics" && !r.verbose;
        } catch (const serve::BadRequest &) {
            // Malformed lines get a deterministic error response.
        }
    }
    std::vector<std::vector<std::string>> transcripts(clients);
    std::vector<std::vector<std::string>> comparable(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (size_t i = 0; i < lines.size(); ++i) {
                serve::Server::Handled h = server.handle(lines[i]);
                transcripts[c].push_back(h.response);
                if (gated[i])
                    comparable[c].push_back(h.response);
                if (h.shutdown)
                    break;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned c = 1; c < clients; ++c) {
        if (comparable[c] != comparable[0]) {
            std::fprintf(stderr,
                         "wasabi serve: determinism violation: client "
                         "%u's responses diverge from client 0's\n",
                         c);
            return 1;
        }
    }
    for (const std::string &resp : transcripts[0])
        std::printf("%s\n", resp.c_str());
    return 0;
}

void
printUsage(std::FILE *to)
{
    std::fputs(
        "usage: wasabi <command> ...\n"
        "  validate   <in.wasm>\n"
        "  dump       <in.wasm>\n"
        "  instrument <in.wasm> <out.wasm> [--hooks=h1,h2|all]\n"
        "             [--threads=N] [--no-split-i64]\n"
        "  run        <in.wasm> [--entry=NAME] [--analysis=mix|blocks|\n"
        "             icov|branch|callgraph|taint|miner|mem]\n"
        "             [--arg=i32:N] [--arg=i64:N] [--arg=f32:X]\n"
        "             [--arg=f64:X]\n"
        "             [--engine=fast|legacy]\n"
        "             [--instrument-mode=rewrite|intrinsic]\n"
        "             [--profile] [--profile-out=FILE]\n"
        "  gen        <polybench:NAME[:N]|random:SEED|app:SIZE> "
        "<out.wasm>\n"
        "  opt        <in.wasm> --out=FILE [--passes=p1,p2|all]\n"
        "             [--manifest-out=FILE] [--json[=FILE]]\n"
        "             [--no-verify]\n"
        "             apply analysis-proven binary transforms\n"
        "             (call-indirect, const-fold, dead-stores) with a\n"
        "             claim manifest\n"
        "  check      <orig.wasm> <instrumented.wasm> [--hooks=h1,h2]\n"
        "             [--manifest=FILE] [--json]\n"
        "             verifies instrumentation invariants (or an opt\n"
        "             manifest); exit 3 if any are violated\n"
        "  lint       <in.wasm> [--json]\n"
        "             static pass suite findings; exit 3 if any\n"
        "  analyze    <in.wasm> [--json] [--ranges]\n"
        "             [--dot=callgraph|refined|cfg:FUNC|ranges:FUNC]\n"
        "             per-function CFG statistics, dominator-based\n"
        "             loop counts, dead functions and value-range\n"
        "             facts\n"
        "  profile    <in.wasm> [--analysis=NAME] [--hooks=h1,h2]\n"
        "             [--entry=NAME] [--arg=...] [--threads=N]\n"
        "             [--engine=fast|legacy] [--json]\n"
        "             [--instrument-mode=rewrite|intrinsic]\n"
        "             [--deterministic] [--out=FILE]\n"
        "             [--trace-out=FILE]  |  profile --check=FILE\n"
        "             instrument + execute with full observability:\n"
        "             phase times, per-hook-kind dispatch counts,\n"
        "             interpreter counters, Chrome trace output\n"
        "  serve      --socket=PATH | --request=FILE|- [--clients=N]\n"
        "             multi-tenant analysis daemon: line-oriented JSON\n"
        "             requests (run/profile/instrument/analyze/\n"
        "             metrics/shutdown) with a content-hash module\n"
        "             cache, warmed-instance pooling, and per-request\n"
        "             fuel/memory quotas\n"
        "  help       [<command>], --help\n"
        "  --version\n",
        to);
}

/** Detailed per-subcommand help for `wasabi help <command>`.
 * Returns false for an unknown command name. */
bool
printCommandHelp(const std::string &cmd, std::FILE *to)
{
    if (cmd == "validate") {
        std::fputs(
            "wasabi validate <in.wasm>\n"
            "  Decode (or parse, for .wat input) and validate the\n"
            "  module. Exit 0 if valid, 1 otherwise.\n",
            to);
    } else if (cmd == "dump") {
        std::fputs("wasabi dump <in.wasm>\n"
                   "  Print the module in text form.\n",
                   to);
    } else if (cmd == "instrument") {
        std::fputs(
            "wasabi instrument <in.wasm> <out.wasm> [options]\n"
            "  --hooks=h1,h2|all   hook kinds to instrument (default\n"
            "                      all; an empty or unknown kind is a\n"
            "                      usage error)\n"
            "  --threads=N         parallel per-function\n"
            "                      instrumentation (N <= 256; default\n"
            "                      and 0: one worker per available\n"
            "                      CPU; the output is the same for\n"
            "                      any N)\n"
            "  --no-split-i64      pass i64 hook operands directly\n"
            "                      instead of as (low, high) i32 pairs\n",
            to);
    } else if (cmd == "run") {
        std::fputs(
            "wasabi run <in.wasm> [--entry=NAME] [--analysis=NAME]\n"
            "           [--arg=i32:N] [--arg=i64:N] [--arg=f32:X]\n"
            "           [--arg=f64:X]\n"
            "           [--engine=fast|legacy]\n"
            "           [--instrument-mode=rewrite|intrinsic]\n"
            "           [--profile] [--profile-out=FILE]\n"
            "  Instrument, instantiate and execute the module with a\n"
            "  dynamic analysis attached (default entry `main`, then\n"
            "  `kernel`; default analysis `mix`). Analyses: mix,\n"
            "  blocks, icov, branch, callgraph, taint, miner, mem.\n"
            "  --engine selects the execution engine: `fast` (the\n"
            "  pre-decoded default) or `legacy` (the structured\n"
            "  walker kept as the differential oracle); both are\n"
            "  observationally identical.\n"
            "  --instrument-mode selects how hooks reach the runtime:\n"
            "  `rewrite` (default; binary rewriting + hook imports,\n"
            "  the paper's design) or `intrinsic` (the fast engine\n"
            "  dispatches hooks straight from its inner loop — no\n"
            "  rewriting, lower overhead, byte-identical hook\n"
            "  stream; requires --engine=fast).\n"
            "  --profile prints a profile table after the analysis\n"
            "  report; --profile-out=FILE writes the wasabi-profile\n"
            "  JSON document instead.\n",
            to);
    } else if (cmd == "profile") {
        std::fputs(
            "wasabi profile <in.wasm> [options]\n"
            "wasabi profile --check=FILE\n"
            "  Instrument and execute the module with the\n"
            "  observability layer attached, then report:\n"
            "    - decode/instrument/encode/execute phase wall times\n"
            "    - per-worker-thread instrumentation spans and the\n"
            "      hook-map readers/writer-lock hit/miss/insert counts\n"
            "    - per-hook-kind dispatch counts and cumulative time,\n"
            "      attributed per analysis\n"
            "    - interpreter counters (instructions, calls, memory\n"
            "      ops, traps)\n"
            "  --analysis=NAME    analysis to attach (default mix)\n"
            "  --hooks=h1,h2|all  override the instrumented hook set\n"
            "  --entry=NAME       entry export (default: main, then\n"
            "                     kernel)\n"
            "  --arg=i32:N ...    entry arguments (i32, i64, f32,\n"
            "                     f64; a whole number in range)\n"
            "  --threads=N        parallel instrumentation workers\n"
            "                     (default 1; 0 = one per CPU)\n"
            "  --engine=fast|legacy  execution engine (default fast)\n"
            "  --instrument-mode=rewrite|intrinsic  how hooks reach\n"
            "                     the runtime (default rewrite;\n"
            "                     intrinsic requires --engine=fast\n"
            "                     and skips binary rewriting)\n"
            "  --json             emit wasabi-profile JSON (v1)\n"
            "  --deterministic    JSON with timings zeroed and\n"
            "                     schedule-dependent sections omitted;\n"
            "                     byte-identical for any --threads=N\n"
            "  --out=FILE         write the report to FILE\n"
            "  --trace-out=FILE   also write Chrome trace-event JSON\n"
            "                     (load in Perfetto / about:tracing)\n"
            "  --check=FILE       validate FILE against the\n"
            "                     wasabi-profile schema and exit\n",
            to);
    } else if (cmd == "gen") {
        std::fputs(
            "wasabi gen <spec> <out.wasm>\n"
            "  Generate a workload module: polybench:NAME[:N],\n"
            "  random:SEED, or app:small|medium|large. N is an\n"
            "  integer >= 1 and SEED an unsigned integer; any other\n"
            "  token is a usage error (exit 2).\n",
            to);
    } else if (cmd == "opt") {
        std::fputs(
            "wasabi opt <in.wasm> --out=FILE [options]\n"
            "  Apply analysis-driven binary transforms. Each applied\n"
            "  edit is licensed by a static fact (unique indirect-call\n"
            "  targets in the refined call graph, the\n"
            "  constant-propagation lattice, backward liveness) and\n"
            "  recorded as a claim that\n"
            "  `wasabi check --manifest=` re-proves against the\n"
            "  output binary.\n"
            "  --passes=p1,p2|all   subset of: call-indirect,\n"
            "                       const-fold, dead-stores\n"
            "                       (always applied in that order;\n"
            "                       default all; unknown names are a\n"
            "                       usage error listing the valid set)\n"
            "  --manifest-out=FILE  write the claim manifest\n"
            "                       (\"wasabi-opt-manifest\" JSON)\n"
            "  --json[=FILE]        size/claim stats in the\n"
            "                       wasabi-profile schema\n"
            "  --no-verify          skip the differential-execution\n"
            "                       gate (original vs optimized, both\n"
            "                       engines, plus instrumented\n"
            "                       hook-stream agreement)\n",
            to);
    } else if (cmd == "check") {
        std::fputs(
            "wasabi check <orig.wasm> <instrumented.wasm> [options]\n"
            "  Statically verify the instrumentation invariants\n"
            "  (monomorphic well-typed hooks, selective completeness\n"
            "  and exclusivity, constant locations, i64 splitting,\n"
            "  side tables, structure preservation). Exit 3 if any\n"
            "  finding, 0 otherwise.\n"
            "  The i64-split ABI is read off the hook import types\n"
            "  (module `wasabi`), and the br_table side tables are\n"
            "  re-derived from the original.\n"
            "  --hooks=h1,h2        hook kinds that were enabled\n"
            "                       (default: inferred from imports)\n"
            "  --manifest=FILE      a `wasabi opt` manifest instead of\n"
            "                       an instrumentation check: re-prove\n"
            "                       every claim against <orig.wasm>\n"
            "                       and require <optimized.wasm> to\n"
            "                       equal the replay (check.opt.*\n"
            "                       findings); any other JSON, such as\n"
            "                       a manifest without the\n"
            "                       \"wasabi-opt-manifest\" schema, is an\n"
            "                       error (exit 1)\n"
            "  --json               machine-readable findings\n",
            to);
    } else if (cmd == "lint") {
        std::fputs(
            "wasabi lint <in.wasm> [--json]\n"
            "  Run the static pass suite (constant propagation,\n"
            "  reachability, dead stores, branch refinement) and\n"
            "  report findings about the program itself:\n"
            "    lint.unreachable.code      CFG-unreachable ranges\n"
            "    lint.deadcode.function     call-graph-dead functions\n"
            "    lint.deadstore.local       stores no load observes\n"
            "    lint.branch.const-condition provably constant br_if/\n"
            "                               if conditions\n"
            "    lint.branch.const-index    provably constant br_table\n"
            "                               indices\n"
            "    lint.block.empty           empty block/loop regions\n"
            "    lint.interproc.*           refined-graph dead\n"
            "                               functions, zero-target or\n"
            "                               unresolvable call_indirect\n"
            "                               sites and never-read\n"
            "                               parameters\n"
            "    lint.range.*               provably out-of-bounds\n"
            "                               accesses, div-by-zero,\n"
            "                               dead guards\n"
            "  Exit 3 if there are findings, 0 otherwise.\n",
            to);
    } else if (cmd == "analyze") {
        std::fputs(
            "wasabi analyze <in.wasm> [--json] [--ranges]\n"
            "               [--dot=callgraph|refined|cfg:FUNC|\n"
            "                ranges:FUNC]\n"
            "  Static module report: per-function CFG statistics,\n"
            "  dominator-based loop counts, dead functions; or a\n"
            "  Graphviz rendering of the call graph / one CFG.\n"

            "  --ranges runs the value-range abstract interpretation\n"
            "  (interval domain, threshold widening, branch\n"
            "  refinement, interprocedural argument seeding) and\n"
            "  prints per-access address intervals as JSON, marking\n"
            "  each access proven in bounds for the declared minimum\n"
            "  memory (\"proven\").\n"
            "  --dot=refined renders per-site call_indirect edges:\n"
            "  bold = proven unique target, dashed = unresolved;\n"
            "  --dot=ranges:FUNC renders one CFG with per-block\n"
            "  locals intervals.\n",
            to);
    } else if (cmd == "serve") {
        std::fputs(
            "wasabi serve --socket=PATH\n"
            "wasabi serve --request=FILE|- [--clients=N]\n"
            "  Multi-tenant analysis daemon (DESIGN.md §13). Each\n"
            "  request is one JSON object per line; each response is\n"
            "  one JSON line. Ops:\n"
            "    run        execute with an analysis attached\n"
            "               (intrinsic mode): {\"op\": \"run\",\n"
            "               \"module\": \"m.wasm\", \"analysis\":\n"
            "               \"mix\", \"entry\": \"main\", \"args\":\n"
            "               [\"i32:5\"], \"fuel\": 1000000,\n"
            "               \"memoryPages\": 64}\n"
            "    profile    run + wasabi-profile JSON in the response\n"
            "    instrument rewrite the module (needs \"out\": PATH)\n"
            "    analyze    static module facts + content hash\n"
            "    metrics    daemon counters as wasabi-profile JSON:\n"
            "               cache hits/misses, pool hits/misses,\n"
            "               translations, quota trips, per-endpoint\n"
            "               request/error totals\n"
            "    shutdown   stop the daemon / driver loop\n"
            "  Modules are cached by content hash (decode + validate +\n"
            "  static facts happen once per distinct byte string) and\n"
            "  executed on pooled instances whose post-start state is\n"
            "  snapshot/restored between requests, so a warm request\n"
            "  re-uses the fast engine's translations. Per-request\n"
            "  quotas fail with structured serve.quota-exceeded\n"
            "  errors; no request — malformed, trapping, or\n"
            "  over-quota — terminates the daemon.\n"
            "  --request=FILE|-  driver mode: serve the newline-\n"
            "                    separated requests from FILE (or\n"
            "                    stdin) and print responses to stdout\n"
            "  --clients=N       replay the request file from N\n"
            "                    concurrent clients against one\n"
            "                    daemon; exits 1 unless all responses\n"
            "                    agree byte-for-byte (determinism\n"
            "                    gate; metrics and verbose requests\n"
            "                    are excluded — counters and cache/\n"
            "                    pool provenance depend on\n"
            "                    interleaving)\n",
            to);
    } else {
        return false;
    }
    return true;
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::vector<std::string> args(argv + 2, argv + argc);
    std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
        std::printf("wasabi %s\n", WASABI_VERSION);
        return 0;
    }
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        if (args.empty()) {
            printUsage(stdout);
            return 0;
        }
        if (printCommandHelp(args[0], stdout))
            return 0;
        std::fprintf(stderr, "wasabi: unknown command '%s'\n",
                     args[0].c_str());
        return usage();
    }
    try {
        if (cmd == "validate" && args.size() == 1)
            return cmdValidate(args[0]);
        if (cmd == "dump" && args.size() == 1)
            return cmdDump(args[0]);
        if (cmd == "instrument")
            return cmdInstrument(args);
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "gen" && args.size() == 2)
            return cmdGen(args[0], args[1]);
        if (cmd == "opt")
            return cmdOpt(args);
        if (cmd == "check")
            return cmdCheck(args);
        if (cmd == "lint")
            return cmdLint(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "profile")
            return cmdProfile(args);
        if (cmd == "serve")
            return cmdServe(args);
        std::fprintf(stderr, "wasabi: unknown command '%s'\n",
                     cmd.c_str());
        return usage();
    } catch (const UsageError &e) {
        std::fprintf(stderr, "wasabi: %s\n", e.what());
        return 2;
    } catch (const InvalidModule &e) {
        std::fprintf(stderr, "INVALID: %s\n", e.what());
        return 1;
    } catch (const support::IoError &e) {
        // Structured I/O failure: the code ("io.read" / "io.write" /
        // "io.short-write" / "io.module") leads, so scripts can match
        // on it; a short write means the artifact is unusable.
        std::fprintf(stderr, "wasabi: error: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wasabi: %s\n", e.what());
        return 1;
    }
}
