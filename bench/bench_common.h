/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: timing
 * with mean/stddev, workload execution under a given hook set, and
 * plain-text table output mirroring the paper's tables/figures.
 */

#ifndef WASABI_BENCH_COMMON_H
#define WASABI_BENCH_COMMON_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "interp/interpreter.h"
#include "obs/profile.h"
#include "runtime/runtime.h"
#include "support/file_io.h"
#include "support/json.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::bench {

/** Wall-clock seconds of fn(). */
inline double
timeSeconds(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

struct Stats {
    double mean = 0;
    double stddev = 0;
};

/** Mean and standard deviation of @p reps runs of fn(). */
inline Stats
timeStats(int reps, const std::function<void()> &fn)
{
    std::vector<double> times;
    times.reserve(reps);
    for (int i = 0; i < reps; ++i)
        times.push_back(timeSeconds(fn));
    Stats s;
    s.mean = std::accumulate(times.begin(), times.end(), 0.0) / reps;
    double var = 0;
    for (double t : times)
        var += (t - s.mean) * (t - s.mean);
    s.stddev = reps > 1 ? std::sqrt(var / (reps - 1)) : 0.0;
    return s;
}

/** A no-op analysis with a configurable hook set (the paper's "empty
 * analysis" used for the overhead measurements of Figure 9). */
class EmptyAnalysis final : public runtime::Analysis {
  public:
    explicit EmptyAnalysis(core::HookSet set) : set_(set) {}
    core::HookSet hooks() const override { return set_; }

  private:
    core::HookSet set_;
};

/** Run a workload uninstrumented on @p engine; returns wall seconds. */
inline double
runOriginalSeconds(const workloads::Workload &w,
                   interp::EngineKind engine = interp::EngineKind::Fast)
{
    auto inst = interp::Instance::instantiate(w.module, interp::Linker());
    interp::Interpreter interp;
    interp.engine = engine;
    return timeSeconds(
        [&] { interp.invokeExport(*inst, w.entry, w.args); });
}

/** Instrument for @p hooks, run under an empty analysis; returns wall
 * seconds of the run (excluding instrumentation). */
inline double
runInstrumentedSeconds(const workloads::Workload &w, core::HookSet hooks)
{
    core::InstrumentResult r = core::instrument(w.module, hooks);
    runtime::WasabiRuntime rt(r.info);
    EmptyAnalysis empty(hooks);
    rt.addAnalysis(&empty);
    auto inst = rt.instantiate(r.module);
    interp::Interpreter interp;
    return timeSeconds(
        [&] { interp.invokeExport(*inst, w.entry, w.args); });
}

/** Encoded binary size of a module. */
inline size_t
binarySize(const wasm::Module &m)
{
    return wasm::encodeModule(m).size();
}

inline std::string
humanBytes(size_t bytes)
{
    char buf[32];
    if (bytes >= 1024 * 1024)
        std::snprintf(buf, sizeof buf, "%.1f MB", bytes / 1048576.0);
    else if (bytes >= 1024)
        std::snprintf(buf, sizeof buf, "%.1f KB", bytes / 1024.0);
    else
        std::snprintf(buf, sizeof buf, "%zu B", bytes);
    return buf;
}

/**
 * Write bench results as a wasabi-profile v1 document (the same schema
 * `wasabi profile --json` emits) with the measurements under the
 * "bench" section. @p fields are (key, raw JSON value) pairs — the
 * caller formats numbers/arrays itself. The document is validated
 * against the schema before it is written, so a bench can never emit
 * a file that `wasabi profile --check=` rejects.
 */
inline void
writeBenchProfileJson(
    const std::string &path, const std::string &bench_name,
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    std::string j = "{\n  \"schema\": \"";
    j += obs::kProfileSchemaName;
    j += "\",\n  \"version\": " +
         std::to_string(obs::kProfileSchemaVersion) +
         ",\n  \"deterministic\": false,\n"
         "  \"runtime\": {\"hookInvocations\": 0, \"perKind\": []},\n"
         "  \"bench\": {\"name\": \"" +
         bench_name + "\"";
    for (const auto &[key, value] : fields)
        j += ",\n    \"" + key + "\": " + value;
    j += "\n  }\n}\n";
    std::string error;
    if (!obs::validateProfileJson(j, &error))
        throw std::runtime_error("bench profile JSON invalid: " + error);
    // Checked write: a full disk must fail the bench, not silently
    // truncate the pinned artifact (support::IoError, exit non-zero).
    support::writeTextFile(path, j);
}

/** The host a bench ran on, as a raw JSON object: hardware threads,
 * the CMake build type the bench was compiled with, and @p commit
 * (the revision the caller says it built; "unknown" if not given). */
inline std::string
hostJson(const std::string &commit)
{
#ifndef WASABI_BUILD_TYPE
#define WASABI_BUILD_TYPE "unknown"
#endif
    return "{\"cores\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"buildType\": \"" + WASABI_BUILD_TYPE +
           "\", \"commit\": \"" +
           json::escape(commit.empty() ? "unknown" : commit) + "\"}";
}

/** Geometric mean. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / xs.size());
}

} // namespace wasabi::bench

#endif // WASABI_BENCH_COMMON_H
