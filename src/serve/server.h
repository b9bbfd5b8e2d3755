/**
 * @file
 * The serve daemon's request handler (DESIGN.md §13): one Server
 * instance owns the content-hash ModuleCache, the warmed
 * InstancePool, and per-endpoint metrics, and turns one request line
 * into one response line. Transport-independent — the Unix-socket
 * loop, the `--request` driver, tests, and benches all call the same
 * handle().
 *
 * Failure isolation: handle() never throws and never terminates the
 * process. Malformed requests, unloadable modules, guest traps, and
 * quota trips each map to a structured error response
 * (serve.bad-request / serve.module-error / serve.trap /
 * serve.quota-exceeded / serve.io-error / serve.internal); the daemon
 * and its caches stay up, and a leased instance is always restored
 * and re-parked (or, on unexpected errors, discarded — never pooled
 * dirty).
 *
 * Concurrency: handle() is safe to call from many threads at once.
 * The cache and pool synchronize internally; guest execution runs on
 * an exclusively leased instance with a per-request runtime, so no
 * guest-visible state is shared across in-flight requests.
 */

#ifndef WASABI_SERVE_SERVER_H
#define WASABI_SERVE_SERVER_H

#include <array>
#include <atomic>
#include <string>

#include "serve/instance_pool.h"
#include "serve/module_cache.h"
#include "serve/protocol.h"

namespace wasabi::serve {

class Server {
  public:
    /** One handled request. */
    struct Handled {
        std::string response; ///< one JSON line (no trailing newline)
        std::string op;       ///< parsed op; empty if unparsable
        bool shutdown = false; ///< the client asked the loop to stop
    };

    /** Handle one request line. Never throws. */
    Handled handle(const std::string &line);

    /**
     * The serve metrics as a "wasabi-profile" v1 JSON document
     * (deterministic timings, optional "serve" section with cache /
     * pool / translation / quota counters and per-endpoint request
     * totals). Validates against obs::validateProfileJson.
     */
    std::string metricsJson() const;

    ModuleCache &cache() { return cache_; }
    InstancePool &pool() { return pool_; }

    /** Function-body translations performed by request execution so
     * far (sum of per-instance deltas): the warm-request pin — a
     * pooled re-run of a cached module must not move it. */
    uint64_t translations() const { return translations_.load(); }

    /** Requests denied (fuel or memory) by a per-request quota. */
    uint64_t quotaTrips() const { return quotaTrips_.load(); }

  private:
    struct EndpointStats {
        std::atomic<uint64_t> requests{0};
        std::atomic<uint64_t> errors{0};
    };

    /** Fixed endpoint order keeps the metrics document deterministic. */
    static constexpr std::array<const char *, 6> kEndpoints = {
        "run", "profile", "instrument", "analyze", "metrics", "shutdown"};

    EndpointStats *statsFor(const std::string &op);

    std::string opRun(const Request &r, bool with_profile);
    std::string opInstrument(const Request &r);
    std::string opAnalyze(const Request &r);
    std::string opMetrics(const Request &r);

    ModuleCache cache_;
    InstancePool pool_;
    std::array<EndpointStats, kEndpoints.size()> stats_{};
    std::atomic<uint64_t> translations_{0};
    std::atomic<uint64_t> quotaTrips_{0};
    std::atomic<uint64_t> badRequests_{0};
};

} // namespace wasabi::serve

#endif // WASABI_SERVE_SERVER_H
