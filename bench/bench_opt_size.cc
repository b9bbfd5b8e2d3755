/**
 * @file
 * Size impact of the analysis-driven optimizer (`wasabi opt`): for the
 * PolyBench suite, the two synthetic applications, and a
 * random-program corpus with resolvable indirect calls, run all
 * passes, verify every claim with the manifest checker, and report
 * before/after bytes plus per-pass claim counts. Results are pinned in
 * BENCH_opt_size.json (wasabi-profile v1 schema).
 *
 * Usage: bench_opt_size [N] [--json=FILE] [--commit=REV]
 */

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
