/**
 * @file
 * Serve-daemon throughput bench (DESIGN.md §13): cold vs warm request
 * latency on one Server (the cold request pays decode + validate +
 * static facts + instantiate + translate; the warm request reuses all
 * of it from the content-hash cache and the instance pool), plus
 * sustained throughput with 1 and N concurrent clients. The warm mean
 * must be strictly below the cold latency — that inequality is the
 * bench's claim and the run fails (exit 1) if it does not hold.
 * Results are pinned in BENCH_serve_throughput.json (wasabi-profile
 * v1 schema, "serve_throughput" bench section).
 *
 * Usage: bench_serve_throughput [--json=FILE]
 */

#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_common.h"
#include "serve/server.h"
#include "support/file_io.h"

using namespace wasabi;
using namespace wasabi::bench;

namespace {

constexpr int kWarmReps = 15;
constexpr int kClients = 8;
constexpr int kRequestsPerClient = 12;

double
requestsPerSecond(serve::Server &server, const std::string &request,
                  int clients, int per_client,
                  const std::string &expected)
{
    std::atomic<uint64_t> mismatches{0};
    const double secs = timeSeconds([&] {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c)
            threads.emplace_back([&] {
                for (int i = 0; i < per_client; ++i)
                    if (server.handle(request).response != expected)
                        ++mismatches;
            });
        for (auto &t : threads)
            t.join();
    });
    if (mismatches.load() != 0)
        throw std::runtime_error(
            "non-deterministic responses under " +
            std::to_string(clients) + " clients");
    return static_cast<double>(clients) * per_client / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
    }

    // A diverse app module: the cold path has real decode,
    // validation, and translation work to amortize, while each
    // request stays short enough for a many-request bench.
    workloads::Workload w =
        workloads::syntheticApp(workloads::AppSize::Small);
    const std::string module_path = "/tmp/bench_serve_module.wasm";
    support::writeBinaryFile(module_path, wasm::encodeModule(w.module));

    std::string request = "{\"op\": \"run\", \"module\": \"" +
                          module_path + "\", \"entry\": \"" + w.entry +
                          "\", \"args\": [";
    for (size_t i = 0; i < w.args.size(); ++i)
        request += std::string(i ? ", " : "") + "\"" +
                   toString(w.args[i]) + "\"";
    request += "]}";

    // Cold: fresh server, first request pays the whole pipeline.
    serve::Server server;
    std::string expected;
    const double cold = timeSeconds(
        [&] { expected = server.handle(request).response; });
    if (expected.find("\"ok\": true") == std::string::npos) {
        std::fprintf(stderr, "FAIL: cold request errored: %s\n",
                     expected.c_str());
        return 1;
    }

    // Warm: same server, cached module + pooled instance.
    const Stats warm = timeStats(kWarmReps, [&] {
        if (server.handle(request).response != expected)
            throw std::runtime_error("warm response diverged");
    });
    const uint64_t translations_after_warmup = server.translations();

    std::printf("serve request latency (%s, %zu-byte module)\n",
                w.name.c_str(), binarySize(w.module));
    std::printf("  %-28s %10.3f ms\n", "cold (first request)",
                cold * 1e3);
    std::printf("  %-28s %10.3f ms +- %.3f\n", "warm (cache + pool)",
                warm.mean * 1e3, warm.stddev * 1e3);
    std::printf("  %-28s %10.2fx\n", "cold/warm speedup",
                cold / warm.mean);

    if (warm.mean >= cold) {
        std::fprintf(stderr,
                     "FAIL: warm latency (%.3f ms) not strictly below "
                     "cold (%.3f ms)\n",
                     warm.mean * 1e3, cold * 1e3);
        return 1;
    }
    if (server.translations() != translations_after_warmup) {
        std::fprintf(stderr,
                     "FAIL: warm requests re-translated functions\n");
        return 1;
    }

    const double rps1 =
        requestsPerSecond(server, request, 1, kRequestsPerClient,
                          expected);
    const double rpsN =
        requestsPerSecond(server, request, kClients,
                          kRequestsPerClient, expected);

    std::printf("\nsustained throughput (%d requests/client)\n",
                kRequestsPerClient);
    std::printf("  %-28s %10.1f req/s\n", "1 client", rps1);
    char label[32];
    std::snprintf(label, sizeof label, "%d clients", kClients);
    std::printf("  %-28s %10.1f req/s (%.2fx)\n", label, rpsN,
                rpsN / rps1);

    if (!json_path.empty()) {
        char cold_b[64], warm_b[64], sd_b[64], r1_b[64], rn_b[64];
        std::snprintf(cold_b, sizeof cold_b, "%.6f", cold * 1e3);
        std::snprintf(warm_b, sizeof warm_b, "%.6f", warm.mean * 1e3);
        std::snprintf(sd_b, sizeof sd_b, "%.6f", warm.stddev * 1e3);
        std::snprintf(r1_b, sizeof r1_b, "%.1f", rps1);
        std::snprintf(rn_b, sizeof rn_b, "%.1f", rpsN);
        writeBenchProfileJson(
            json_path, "serve_throughput",
            {{"workload", "\"" + w.name + "\""},
             {"moduleBytes", std::to_string(binarySize(w.module))},
             {"warmReps", std::to_string(kWarmReps)},
             {"coldMillis", cold_b},
             {"warmMeanMillis", warm_b},
             {"warmStddevMillis", sd_b},
             {"warmStrictlyBelowCold", "true"},
             {"clients", std::to_string(kClients)},
             {"requestsPerClient",
              std::to_string(kRequestsPerClient)},
             {"oneClientReqPerSec", r1_b},
             {"nClientReqPerSec", rn_b},
             {"cacheHits", std::to_string(server.cache().hits())},
             {"cacheMisses",
              std::to_string(server.cache().misses())},
             {"poolHits", std::to_string(server.pool().hits())},
             {"poolMisses",
              std::to_string(server.pool().misses())}});
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
