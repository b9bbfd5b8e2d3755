/**
 * @file
 * Reproduces **Table 5** (RQ3, §4.4): time to instrument programs,
 * averaged over repeated runs, with binary size and throughput (MB/s),
 * for the PolyBench suite and the two large synthetic applications.
 * Also reports the single- vs multi-threaded instrumentation time,
 * reproducing the parallelization note of §4.4 (0.58x of the
 * single-threaded time on the largest binary).
 */

#include <cstdio>
#include <thread>

#include "bench_common.h"

using namespace wasabi;
using namespace wasabi::bench;

namespace {

struct Row {
    std::string name;
    size_t bytes = 0;
    Stats time;
};

Row
measure(const std::string &name, const wasm::Module &m, int reps,
        unsigned threads)
{
    Row row;
    row.name = name;
    row.bytes = binarySize(m);
    core::InstrumentOptions opts;
    opts.numThreads = threads;
    row.time = timeStats(reps, [&] {
        core::instrument(m, core::HookSet::all(), opts);
    });
    return row;
}

void
printRow(const Row &row)
{
    std::printf("%-16s %12s   %8.2f ms +- %.2f   %6.2f MB/s\n",
                row.name.c_str(), humanBytes(row.bytes).c_str(),
                row.time.mean * 1e3, row.time.stddev * 1e3,
                row.bytes / 1048576.0 / row.time.mean);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::string json_out;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--json=", 0) == 0)
            json_out = a.substr(7);
        else
            positional.push_back(a);
    }
    const int reps =
        positional.size() > 0 ? std::atoi(positional[0].c_str()) : 10;
    const int n =
        positional.size() > 1 ? std::atoi(positional[1].c_str()) : 20;
    const unsigned hw_threads =
        std::max(2u, std::thread::hardware_concurrency());

    std::printf("=== Table 5: time to instrument programs "
                "(full instrumentation, %d reps) ===\n\n",
                reps);
    std::printf("%-16s %12s   %-22s %s\n", "Program", "Binary Size",
                "Runtime", "Throughput");

    // PolyBench, averaged across the 30 programs as in the paper.
    auto suite = workloads::polybenchSuite(n);
    double total_bytes = 0, total_time = 0, total_sd = 0;
    for (const auto &w : suite) {
        Row r = measure(w.name, w.module, reps, 1);
        total_bytes += static_cast<double>(r.bytes);
        total_time += r.time.mean;
        total_sd += r.time.stddev;
    }
    std::printf("%-16s %12s   %8.2f ms +- %.2f   %6.2f MB/s  "
                "(mean of 30 programs)\n",
                "PolyBench (avg)",
                humanBytes(static_cast<size_t>(total_bytes / 30)).c_str(),
                total_time / 30 * 1e3, total_sd / 30 * 1e3,
                total_bytes / 1048576.0 / total_time);

    workloads::Workload pdfkit =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    Row pdfkit_row = measure(pdfkit.name, pdfkit.module, reps, 1);
    printRow(pdfkit_row);

    workloads::Workload unreal =
        workloads::syntheticApp(workloads::AppSize::UnrealLike);
    Row unreal_1t = measure(unreal.name, unreal.module, reps, 1);
    printRow(unreal_1t);

    std::printf("\n--- Parallel instrumentation (largest binary, "
                "%u threads) ---\n",
                hw_threads);
    Row unreal_mt =
        measure(unreal.name, unreal.module, reps, hw_threads);
    std::printf("single-threaded: %.2f ms, %u threads: %.2f ms "
                "(ratio %.2f; paper reports 0.58 on 2 cores)\n",
                unreal_1t.time.mean * 1e3, hw_threads,
                unreal_mt.time.mean * 1e3,
                unreal_mt.time.mean / unreal_1t.time.mean);
    std::printf("note: this host exposes %u hardware thread(s); a "
                "ratio below 1 requires >1 physical core.\n",
                std::thread::hardware_concurrency());

    if (!json_out.empty()) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"polybenchMeanMs\": %.4f, \"pdfkitMs\": %.4f, "
                      "\"unrealMs\": %.4f, \"unrealParallelMs\": %.4f, "
                      "\"parallelRatio\": %.4f, \"threads\": %u}",
                      total_time / 30 * 1e3, pdfkit_row.time.mean * 1e3,
                      unreal_1t.time.mean * 1e3,
                      unreal_mt.time.mean * 1e3,
                      unreal_mt.time.mean / unreal_1t.time.mean,
                      hw_threads);
        writeBenchProfileJson(json_out, "table5_instrument_time",
                              {{"reps", std::to_string(reps)},
                               {"results", buf}});
        std::printf("wrote %s\n", json_out.c_str());
    }
    return 0;
}
