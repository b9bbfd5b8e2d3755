/**
 * @file
 * Concurrent-runtime stress tests (DESIGN.md §13): many threads
 * attach/detach intrinsic hooks and invoke exports on pooled
 * instances of one shared, cached module — the serve daemon's
 * multi-tenant hot path. Run under ASan/UBSan in the default CI
 * config and under TSan in the dedicated thread-sanitizer job; the
 * assertions also pin determinism (every thread observes identical
 * results) and counter consistency.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analyses/registry.h"
#include "interp/engine/code.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "serve/instance_pool.h"
#include "serve/module_cache.h"
#include "serve/server.h"
#include "support/file_io.h"

namespace wasabi::serve {
namespace {

const char *const kLoopWat = R"((module
  (memory 1)
  (global $g (mut i32) (i32.const 0))
  (func (export "main") (result i32)
    (local $i i32) (local $acc i32)
    (block $done
      (loop $top
        (br_if $done (i32.ge_u (local.get $i) (i32.const 50)))
        (local.set $acc
          (i32.add (local.get $acc) (local.get $i)))
        (i32.store (i32.const 16) (local.get $acc))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $top)))
    (global.set $g (local.get $acc))
    (local.get $acc))))";

std::vector<uint8_t>
watBytes(const char *wat)
{
    const std::string s(wat);
    return std::vector<uint8_t>(s.begin(), s.end());
}

/**
 * A WAT file under the test temp directory, named per process (two
 * suites running at once do not share it) and removed when the test
 * ends.
 */
class TempWat {
  public:
    TempWat(const std::string &stem, const std::string &text)
        : path_(testing::TempDir() + "concurrency_" + stem + "_" +
                std::to_string(::getpid()) + ".wat")
    {
        support::writeTextFile(path_, text);
    }
    ~TempWat() { std::remove(path_.c_str()); }
    TempWat(const TempWat &) = delete;
    TempWat &operator=(const TempWat &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * The low-level stress: N threads lease instances of one shared
 * CachedModule from one pool, attach a private runtime's intrinsic
 * hooks, invoke, detach (via release), repeat. Exercises the
 * cache/pool locks, the shared-module immutability split, and the
 * same-kind sink-swap re-attach under real parallelism.
 */
TEST(Concurrency, PooledIntrinsicAttachInvokeDetach)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 25;

    ModuleCache cache;
    auto entry = cache.acquire(watBytes(kLoopWat), "loop.wat");
    InstancePool pool;
    std::atomic<uint64_t> failures{0};

    auto worker = [&]() {
        for (int i = 0; i < kIters; ++i) {
            auto analysis = analyses::makeAnalysis("mix");
            const core::HookSet hooks = analysis->hooks();
            runtime::WasabiRuntime rt(entry->intrinsicInfo(hooks));
            rt.addAnalysis(analysis.get());

            InstanceLease lease = pool.acquire(*entry);
            rt.attachIntrinsic(*lease.instance);
            auto results = interp::Interpreter().invokeExport(
                *lease.instance, "main", {});
            if (results.size() != 1 ||
                toString(results[0]) != "i32:1225")
                ++failures;
            if (rt.hookInvocations() == 0)
                ++failures;
            pool.release(std::move(lease));
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(pool.hits() + pool.misses(),
              static_cast<uint64_t>(kThreads) * kIters);
    // One decode total; every other acquisition was a cache no-op.
    EXPECT_EQ(cache.size(), 1u);
}

/**
 * The full-stack stress: N threads issue the same request sequence to
 * one shared Server. Every response must be byte-identical across
 * threads and iterations (cache/pool provenance is verbose-only, so
 * default responses are deterministic), and no request may error.
 */
TEST(Concurrency, SharedServerDeterministicUnderParallelClients)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 10;

    Server server;
    const TempWat loop("loop", kLoopWat);
    const std::string &path = loop.path();
    const std::string request =
        "{\"op\": \"run\", \"module\": \"" + path + "\"}";

    // Sequential baseline.
    const std::string expected = server.handle(request).response;
    ASSERT_NE(expected.find("\"ok\": true"), std::string::npos)
        << expected;
    ASSERT_NE(expected.find("i32:1225"), std::string::npos);

    std::atomic<uint64_t> mismatches{0};
    auto client = [&]() {
        for (int i = 0; i < kIters; ++i) {
            if (server.handle(request).response != expected)
                ++mismatches;
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(client);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(server.cache().hits() + server.cache().misses(),
              static_cast<uint64_t>(kThreads) * kIters + 1);
    EXPECT_EQ(server.cache().misses(), 1u);
    EXPECT_EQ(server.quotaTrips(), 0u);

    // The metrics document is well-formed after the storm.
    std::string err;
    EXPECT_TRUE(obs::validateProfileJson(server.metricsJson(), &err))
        << err;
}

/**
 * Mixed success/failure storm: threads interleave good runs, quota
 * trips, traps, and malformed requests against one Server. No request
 * may take the daemon down, leak a dirty instance into the pool, or
 * corrupt another thread's result.
 */
TEST(Concurrency, ErrorStormIsolatesFailuresPerRequest)
{
    constexpr int kThreads = 6;
    constexpr int kIters = 8;

    Server server;
    const TempWat good_wat("good", kLoopWat);
    const TempWat trap_wat(
        "trap", "(module (func (export \"main\") unreachable))");
    const std::string &good = good_wat.path();
    const std::string &trapping = trap_wat.path();

    const std::string good_req =
        "{\"op\": \"run\", \"module\": \"" + good + "\"}";
    const std::string expected = server.handle(good_req).response;

    std::atomic<uint64_t> bad{0};
    auto has = [](const std::string &s, const char *needle) {
        return s.find(needle) != std::string::npos;
    };

    auto worker = [&](int seed) {
        for (int i = 0; i < kIters; ++i) {
            switch ((seed + i) % 4) {
            case 0:
                if (server.handle(good_req).response != expected)
                    ++bad;
                break;
            case 1: {
                auto r = server.handle(
                    "{\"op\": \"run\", \"module\": \"" + good +
                    "\", \"fuel\": 2}");
                if (!has(r.response, "serve.quota-exceeded"))
                    ++bad;
                break;
            }
            case 2: {
                auto r = server.handle("{\"op\": \"run\", "
                                       "\"module\": \"" +
                                       trapping + "\"}");
                if (!has(r.response, "serve.trap"))
                    ++bad;
                break;
            }
            case 3: {
                auto r = server.handle("{not json");
                if (!has(r.response, "serve.bad-request"))
                    ++bad;
                break;
            }
            }
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(bad.load(), 0u);
    // After the storm every pooled instance is clean: a fresh good
    // request still returns the baseline result.
    EXPECT_EQ(server.handle(good_req).response, expected);
}

} // namespace
} // namespace wasabi::serve
