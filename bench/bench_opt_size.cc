/**
 * @file
 * Size impact of the analysis-driven optimizer (`wasabi opt`): for the
 * PolyBench suite, the two synthetic applications, and a
 * random-program corpus with resolvable indirect calls, run all
 * passes, verify every claim with the manifest checker, and report
 * before/after bytes plus per-pass claim counts. It also times
 * `optimize` and `checkOptimization` on the medium synthetic app (one
 * warmup run, then the median, minimum and interquartile range of
 * kTimingRuns runs), the static kernels' share of `wasabi opt` and
 * `wasabi check --manifest`. Results are pinned in BENCH_opt_size.json
 * (wasabi-profile v1 schema).
 *
 * Usage: bench_opt_size [N] [--json=FILE] [--commit=REV]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_common.h"
#include "static/rewrite/opt.h"

using namespace wasabi;
using namespace wasabi::bench;

namespace {

struct Row {
    std::string name;
    size_t before = 0;
    size_t after = 0;
    size_t claims = 0;
};

Row
measure(const workloads::Workload &w)
{
    namespace rw = static_analysis::rewrite;
    Row row;
    row.name = w.name.empty() ? "anon" : w.name;
    std::vector<uint8_t> before = wasm::encodeModule(w.module);
    rw::OptResult r = rw::optimize(w.module, rw::allOptPasses());
    std::vector<uint8_t> after = wasm::encodeModule(r.module);
    // A bench that reports sizes for an unverified transform would be
    // meaningless: re-prove the claims right here.
    static_analysis::Diagnostics ds =
        rw::checkOptimization(w.module, after, r.claims);
    if (!ds.empty())
        throw std::runtime_error(row.name + ": claim check failed:\n" +
                                 static_analysis::toString(ds));
    row.before = before.size();
    row.after = after.size();
    row.claims = r.claims.totalClaims();
    return row;
}

constexpr int kTimingRuns = 9;

/** Wall-clock milliseconds of one warmup run and kTimingRuns timed
 * runs of a function. */
struct Timing {
    double warmupMs = 0;
    double medianMs = 0;
    double minMs = 0;
    double iqrMs = 0;

    std::string
    json() const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"warmupMs\": %.2f, \"medianMs\": %.2f, "
                      "\"minMs\": %.2f, \"iqrMs\": %.2f}",
                      warmupMs, medianMs, minMs, iqrMs);
        return buf;
    }
};

Timing
timeRuns(const std::function<void()> &fn)
{
    Timing t;
    t.warmupMs = 1e3 * timeSeconds(fn);
    std::vector<double> ms;
    for (int i = 0; i < kTimingRuns; ++i)
        ms.push_back(1e3 * timeSeconds(fn));
    std::sort(ms.begin(), ms.end());
    // Quantile by linear interpolation between order statistics.
    auto quantile = [&ms](double q) {
        double pos = q * static_cast<double>(ms.size() - 1);
        size_t lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, ms.size() - 1);
        double frac = pos - static_cast<double>(lo);
        return ms[lo] + frac * (ms[hi] - ms[lo]);
    };
    t.medianMs = quantile(0.5);
    t.minMs = ms.front();
    t.iqrMs = quantile(0.75) - quantile(0.25);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    int n = 20;
    std::string json_path, commit;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strncmp(argv[i], "--commit=", 9) == 0)
            commit = argv[i] + 9;
        else
            n = std::atoi(argv[i]);
    }

    std::vector<Row> rows;
    std::vector<double> ratios;

    std::printf("=== wasabi opt: verified size reduction "
                "(all passes) ===\n\n");
    std::printf("%-16s %12s %12s %9s %8s\n", "workload", "before",
                "after", "claims", "size");

    auto add = [&](const workloads::Workload &w) {
        Row row = measure(w);
        ratios.push_back(static_cast<double>(row.after) /
                         static_cast<double>(row.before));
        std::printf("%-16s %12zu %12zu %9zu %7.1f%%\n", row.name.c_str(),
                    row.before, row.after, row.claims,
                    100.0 * ratios.back());
        rows.push_back(std::move(row));
    };

    for (const auto &w : workloads::polybenchSuite(n))
        add(w);
    add(workloads::syntheticApp(workloads::AppSize::Small));
    add(workloads::syntheticApp(workloads::AppSize::PdfkitLike));
    add(workloads::syntheticApp(workloads::AppSize::UnrealLike));
    for (uint64_t seed = 7; seed < 10; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 12;
        opts.indirectCallPct = 25;
        opts.constIndexIndirectPct = 50;
        workloads::Workload w = workloads::randomProgram(opts);
        w.name = "random-" + std::to_string(seed);
        add(w);
    }

    namespace rw = static_analysis::rewrite;
    const workloads::Workload app =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    rw::OptResult opt = rw::optimize(app.module, rw::allOptPasses());
    const std::vector<uint8_t> opt_bytes = wasm::encodeModule(opt.module);
    const Timing optimize_time = timeRuns(
        [&] { rw::optimize(app.module, rw::allOptPasses()); });
    const Timing check_time = timeRuns([&] {
        if (!rw::checkOptimization(app.module, opt_bytes, opt.claims)
                 .empty())
            throw std::runtime_error("app claim check failed");
    });
    std::printf("\n%s, %d runs after 1 warmup (ms): median / min / IQR\n"
                "  optimize           %8.1f %8.1f %8.1f\n"
                "  checkOptimization  %8.1f %8.1f %8.1f\n",
                app.name.c_str(), kTimingRuns, optimize_time.medianMs,
                optimize_time.minMs, optimize_time.iqrMs,
                check_time.medianMs, check_time.minMs, check_time.iqrMs);

    double mean_ratio = geomean(ratios);
    std::printf("\ngeomean size ratio: %.4f (%.1f%% saved), every "
                "claim re-proved by the manifest checker\n",
                mean_ratio, 100.0 * (1.0 - mean_ratio));

    if (!json_path.empty()) {
        std::string per = "[";
        for (size_t i = 0; i < rows.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\n      {\"workload\": \"%s\", \"before\": "
                          "%zu, \"after\": %zu, \"claims\": %zu}",
                          i ? "," : "", rows[i].name.c_str(),
                          rows[i].before, rows[i].after, rows[i].claims);
            per += buf;
        }
        per += "\n    ]";
        char mean[64];
        std::snprintf(mean, sizeof mean, "%.4f", mean_ratio);
        writeBenchProfileJson(
            json_path, "opt_size",
            {{"host", hostJson(commit)},
             {"timing",
              "{\"workload\": \"" + app.name +
                  "\", \"runs\": " + std::to_string(kTimingRuns) +
                  ", \"optimize\": " + optimize_time.json() +
                  ", \"checkOptimization\": " + check_time.json() +
                  "}"},
             {"n", std::to_string(n)},
             {"passes",
              std::to_string(
                  static_analysis::rewrite::allOptPasses().size())},
             {"perWorkload", per},
             {"geomeanSizeRatio", mean}});
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
