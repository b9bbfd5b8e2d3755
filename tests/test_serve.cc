/**
 * @file
 * Serve-daemon tests (DESIGN.md §13): content-hash module cache
 * hit/miss pins, warmed-instance pooling with zero re-translation,
 * per-request fuel/memory quotas that never kill the daemon,
 * snapshot/restore exactness after grow + global-write + trap, the
 * Unix-socket transport, and the checked-I/O regression tests for the
 * silent-write-failure and bogus-WAT-diagnostic bugs.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/profile.h"
#include "serve/instance_pool.h"
#include "serve/module_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "support/file_io.h"
#include "support/module_io.h"
#include "wasm/encoder.h"
#include "wasm/wat_parser.h"

namespace wasabi::serve {
namespace {

/**
 * A file in the test temp dir under a per-process name, removed when
 * the test ends, so that concurrent runs of the suite never overwrite
 * each other's files. Given content, it writes it; otherwise it only
 * names a path (an output file or a socket).
 */
class TempFile {
  public:
    explicit TempFile(const std::string &name)
        : path_(testing::TempDir() + "serve_" +
                std::to_string(::getpid()) + "_" + name)
    {
    }
    TempFile(const std::string &name, const std::string &content)
        : TempFile(name)
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        EXPECT_TRUE(out.good());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A module whose main does a little arithmetic through a global. */
const char *const kAddWat = R"((module
  (memory 1)
  (global $g (mut i32) (i32.const 0))
  (func (export "main") (result i32)
    (global.set $g (i32.add (global.get $g) (i32.const 1)))
    (i32.const 2) (i32.const 3) i32.add)))";

/** Grows memory, writes a global and the grown page, then traps. */
const char *const kDirtyTrapWat = R"((module
  (memory 1 4)
  (global $g (mut i32) (i32.const 7))
  (func (export "main") (result i32)
    (drop (memory.grow (i32.const 1)))
    (global.set $g (i32.const 99))
    (i32.store (i32.const 65536) (i32.const 0xdead))
    unreachable)))";

/** True when @p response contains the `"key": value` JSON fragment. */
bool
hasField(const std::string &response, const std::string &key,
         const std::string &value)
{
    return response.find("\"" + key + "\": " + value) !=
           std::string::npos;
}

std::string
runRequest(const std::string &path, const std::string &extra = "")
{
    return "{\"op\": \"run\", \"module\": \"" + path + "\"" + extra +
           "}";
}

TEST(ServeCache, SecondIdenticalRequestHitsAndSkipsTranslation)
{
    Server server;
    const TempFile path_file("add.wat", kAddWat);
    const std::string &path = path_file.path();

    auto first =
        server.handle(runRequest(path, ", \"verbose\": true"));
    ASSERT_TRUE(hasField(first.response, "ok", "true"))
        << first.response;
    EXPECT_TRUE(hasField(first.response, "cacheHit", "false"));
    EXPECT_TRUE(hasField(first.response, "warm", "false"));
    EXPECT_TRUE(hasField(first.response, "results", "[\"i32:5\"]"));
    EXPECT_EQ(server.cache().misses(), 1u);
    EXPECT_EQ(server.cache().hits(), 0u);
    const uint64_t cold_translations = server.translations();
    EXPECT_GT(cold_translations, 0u);

    auto second =
        server.handle(runRequest(path, ", \"verbose\": true"));
    ASSERT_TRUE(hasField(second.response, "ok", "true"))
        << second.response;
    EXPECT_TRUE(hasField(second.response, "cacheHit", "true"));
    EXPECT_TRUE(hasField(second.response, "warm", "true"));
    // The warm pin: a pooled re-run translates nothing.
    EXPECT_TRUE(hasField(second.response, "translations", "0"));
    EXPECT_EQ(server.translations(), cold_translations);
    EXPECT_EQ(server.cache().hits(), 1u);
    EXPECT_EQ(server.pool().hits(), 1u);
    EXPECT_EQ(server.pool().misses(), 1u);

    // Determinism: the snapshot-restored instance reproduces the cold
    // result exactly (the mutated global was rewound).
    EXPECT_TRUE(hasField(second.response, "results", "[\"i32:5\"]"));
}

TEST(ServeCache, ContentKeyedNotPathKeyed)
{
    ModuleCache cache;
    auto bytes = [](const char *wat) {
        const std::string s(wat);
        return std::vector<uint8_t>(s.begin(), s.end());
    };

    bool hit = true;
    auto a = cache.acquire(bytes(kAddWat), "a.wat", &hit);
    EXPECT_FALSE(hit);
    auto b = cache.acquire(bytes(kAddWat), "b.wat", &hit);
    EXPECT_TRUE(hit);
    // Same bytes under a different path share one decoded module.
    EXPECT_EQ(a->module().get(), b->module().get());
    EXPECT_EQ(cache.size(), 1u);

    auto c = cache.acquire(bytes(kDirtyTrapWat), "a.wat", &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(a->module().get(), c->module().get());
    EXPECT_EQ(cache.size(), 2u);

    // Per-hook-set static facts are built once and shared.
    auto i1 = a->intrinsicInfo(core::HookSet::all());
    auto i2 = a->intrinsicInfo(core::HookSet::all());
    EXPECT_EQ(i1.get(), i2.get());
    EXPECT_EQ(a->infoCount(), 1u);
}

/** Decode a hex string into bytes. */
std::vector<uint8_t>
fromHex(const std::string &hex)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(
            static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

// Two valid 61-byte modules with the same FNV-1a hash
// (0a8fbae839e487d8). `main` returns the i64 in the data segment,
// which is all the two differ in.
const char *const kCollisionA =
    "0061736d010000000105016000017e030201000503010001070801046d61696e"
    "00000a0901070041002903000b0b0e010041000b08bdeeb0fbda73ecea";
const char *const kCollisionB =
    "0061736d010000000105016000017e030201000503010001070801046d61696e"
    "00000a0901070041002903000b0b0e010041000b082e063c604baaa54d";

TEST(ServeCache, HashCollisionGetsItsOwnEntryAndInstances)
{
    const std::vector<uint8_t> a = fromHex(kCollisionA);
    const std::vector<uint8_t> b = fromHex(kCollisionB);
    ASSERT_NE(a, b);
    ASSERT_EQ(contentHash(a), contentHash(b));
    ASSERT_EQ(contentHash(a), 0x0a8fbae839e487d8ull);

    Server server;
    const TempFile path_a_file("collide_a.wasm");
    const std::string &path_a = path_a_file.path();
    const TempFile path_b_file("collide_b.wasm");
    const std::string &path_b = path_b_file.path();
    support::writeBinaryFile(path_a, a);
    support::writeBinaryFile(path_b, b);
    const std::string result_a = "[\"i64:16928032483741593277\"]";
    const std::string result_b = "[\"i64:5595065352791524910\"]";

    // Cold, then warm: each module answers with its own result.
    for (const bool warm : {false, true}) {
        const std::string w = warm ? "true" : "false";
        auto ra = server.handle(runRequest(path_a, ", \"verbose\": true"));
        EXPECT_TRUE(hasField(ra.response, "results", result_a))
            << ra.response;
        EXPECT_TRUE(hasField(ra.response, "cacheHit", w)) << ra.response;
        EXPECT_TRUE(hasField(ra.response, "warm", w)) << ra.response;
        auto rb = server.handle(runRequest(path_b, ", \"verbose\": true"));
        EXPECT_TRUE(hasField(rb.response, "results", result_b))
            << rb.response;
        EXPECT_TRUE(hasField(rb.response, "cacheHit", w)) << rb.response;
        EXPECT_TRUE(hasField(rb.response, "warm", w)) << rb.response;
    }
    EXPECT_EQ(server.cache().misses(), 2u);
    EXPECT_EQ(server.cache().hits(), 2u);
    EXPECT_EQ(server.cache().size(), 2u);
}

TEST(ServeCache, UndecodableBytesThrowIoModule)
{
    ModuleCache cache;
    const std::vector<uint8_t> empty;
    try {
        cache.acquire(empty, "upload-3");
        FAIL() << "empty bytes must not decode";
    } catch (const support::IoError &e) {
        EXPECT_EQ(e.code(), "io.module");
        EXPECT_NE(std::string(e.what()).find("empty file"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeQuota, FuelExhaustionIsStructuredAndNonFatal)
{
    Server server;
    const TempFile path_file("fuel.wat", kAddWat);
    const std::string &path = path_file.path();

    auto denied = server.handle(runRequest(path, ", \"fuel\": 3"));
    EXPECT_TRUE(hasField(denied.response, "ok", "false"));
    EXPECT_TRUE(hasField(denied.response, "code",
                         "\"serve.quota-exceeded\""));
    EXPECT_TRUE(hasField(denied.response, "resource", "\"fuel\""));
    EXPECT_EQ(server.quotaTrips(), 1u);

    // The daemon (and the pooled instance) survive the trip: the same
    // module runs fine with enough fuel, warm from the pool.
    auto ok = server.handle(
        runRequest(path, ", \"fuel\": 1000, \"verbose\": true"));
    EXPECT_TRUE(hasField(ok.response, "ok", "true")) << ok.response;
    EXPECT_TRUE(hasField(ok.response, "warm", "true"));
    EXPECT_TRUE(hasField(ok.response, "results", "[\"i32:5\"]"));
}

TEST(ServeQuota, MemoryQuotaDeniesGrowAndAttributesTrap)
{
    Server server;
    // Grows by 1 page then stores into the grown page: under a 1-page
    // quota the grow is denied (spec-conformant -1) and the store
    // traps out of bounds — attributed to the quota.
    const TempFile path_file("grow_use.wat", R"((module
  (memory 1 4)
  (func (export "main") (result i32)
    (drop (memory.grow (i32.const 1)))
    (i32.store (i32.const 65536) (i32.const 1))
    (i32.const 0))))");
    const std::string &path = path_file.path();

    auto denied =
        server.handle(runRequest(path, ", \"memoryPages\": 1"));
    EXPECT_TRUE(hasField(denied.response, "ok", "false"));
    EXPECT_TRUE(hasField(denied.response, "code",
                         "\"serve.quota-exceeded\""));
    EXPECT_TRUE(hasField(denied.response, "resource", "\"memory\""));
    EXPECT_EQ(server.quotaTrips(), 1u);

    // Without a quota the same program grows and runs to completion.
    auto ok = server.handle(runRequest(path));
    EXPECT_TRUE(hasField(ok.response, "ok", "true")) << ok.response;
}

TEST(ServeQuota, PostStartMemoryAlreadyOverQuota)
{
    Server server;
    const TempFile path_file("prequota.wat", kAddWat);
    const std::string &path = path_file.path();
    auto r = server.handle(runRequest(path, ", \"memoryPages\": 0"));
    EXPECT_TRUE(hasField(r.response, "ok", "false"));
    EXPECT_TRUE(
        hasField(r.response, "code", "\"serve.quota-exceeded\""));
    EXPECT_TRUE(hasField(r.response, "resource", "\"memory\""));
    EXPECT_NE(r.response.find("post-start"), std::string::npos)
        << r.response;
}

TEST(ServeErrors, MalformedAndUnknownRequestsNeverKillTheDaemon)
{
    Server server;
    const TempFile path_file("alive.wat", kAddWat);
    const std::string &path = path_file.path();

    auto bad = server.handle("this is not json");
    EXPECT_TRUE(hasField(bad.response, "ok", "false"));
    EXPECT_TRUE(
        hasField(bad.response, "code", "\"serve.bad-request\""));
    EXPECT_FALSE(bad.shutdown);

    auto unknown = server.handle("{\"op\": \"frobnicate\"}");
    EXPECT_TRUE(
        hasField(unknown.response, "code", "\"serve.bad-request\""));

    const TempFile trap_wat("trap.wat", "(module (func (export \"main\") "
                                        "unreachable))");
    auto trap = server.handle(runRequest(trap_wat.path()));
    EXPECT_TRUE(hasField(trap.response, "ok", "false"));
    EXPECT_TRUE(hasField(trap.response, "code", "\"serve.trap\""));
    EXPECT_TRUE(
        hasField(trap.response, "trap", "\"unreachable executed\""));

    // A hook list with an empty segment or an unknown kind is refused
    // (core::parseHookSet, shared with the CLI), never skipped.
    const TempFile out_file("hooks_out.wasm");
    const std::string &out = out_file.path();
    for (const char *hooks : {"load,", ",load", "load,,store", "bogus"}) {
        const std::string extra =
            std::string(", \"hooks\": \"") + hooks + "\"";
        auto run = server.handle(runRequest(path, extra));
        EXPECT_TRUE(
            hasField(run.response, "code", "\"serve.bad-request\""))
            << hooks << ": " << run.response;
        auto inst = server.handle("{\"op\": \"instrument\", \"module\": "
                                  "\"" + path + "\", \"out\": \"" + out +
                                  "\"" + extra + "}");
        EXPECT_TRUE(
            hasField(inst.response, "code", "\"serve.bad-request\""))
            << hooks << ": " << inst.response;
    }

    // After all of that, a normal request still succeeds.
    auto ok = server.handle(runRequest(path));
    EXPECT_TRUE(hasField(ok.response, "ok", "true")) << ok.response;
}

TEST(ServeErrors, DeeplyNestedWatIsAnErrorReplyNotACrash)
{
    // Past the parser's nesting limit the module fails to parse (it
    // used to overflow the stack and take every tenant down with it);
    // the next request on the same daemon is answered.
    Server server;
    std::string deep = "(module (func (export \"main\")";
    for (int i = 0; i < 200000; ++i)
        deep += " (block";
    deep += std::string(200000, ')') + "))";
    const TempFile deep_wat("deep.wat", deep);
    auto bad = server.handle(runRequest(deep_wat.path()));
    EXPECT_TRUE(hasField(bad.response, "ok", "false")) << bad.response;
    EXPECT_TRUE(
        hasField(bad.response, "code", "\"serve.module-error\""))
        << bad.response;
    EXPECT_NE(bad.response.find("nested deeper"), std::string::npos)
        << bad.response;
    EXPECT_FALSE(bad.shutdown);

    const TempFile after_wat("after_deep.wat", kAddWat);
    auto ok = server.handle(runRequest(after_wat.path()));
    EXPECT_TRUE(hasField(ok.response, "ok", "true")) << ok.response;
}

TEST(ServeErrors, ModuleDiagnosticsArePrecise)
{
    Server server;

    // A directory is not "WAT that fails to parse" — it is named as a
    // directory (the pre-fix behavior surfaced a WAT parse error).
    auto dir = server.handle(runRequest(testing::TempDir()));
    EXPECT_TRUE(
        hasField(dir.response, "code", "\"serve.module-error\""));
    EXPECT_NE(dir.response.find("is a directory"), std::string::npos)
        << dir.response;

    // A truncated binary names the truncation, not a WAT error.
    const TempFile trunc_file("trunc.wasm", std::string("\0as", 3));
    const std::string &trunc = trunc_file.path();
    auto t = server.handle(runRequest(trunc));
    EXPECT_TRUE(
        hasField(t.response, "code", "\"serve.module-error\""));
    EXPECT_NE(t.response.find("magic"), std::string::npos)
        << t.response;

    const TempFile empty_file("empty.wasm", "");
    const std::string &empty = empty_file.path();
    auto e = server.handle(runRequest(empty));
    EXPECT_NE(e.response.find("empty file"), std::string::npos)
        << e.response;

    auto missing = server.handle(runRequest("/nonexistent/x.wasm"));
    EXPECT_TRUE(
        hasField(missing.response, "code", "\"serve.module-error\""));
}

TEST(ServeMetrics, ValidatesAgainstProfileSchemaAndCountsEndpoints)
{
    Server server;
    const TempFile path_file("metrics.wat", kAddWat);
    const std::string &path = path_file.path();
    server.handle(runRequest(path));
    server.handle(runRequest(path));
    server.handle("garbage");

    std::string err;
    ASSERT_TRUE(obs::validateProfileJson(server.metricsJson(), &err))
        << err << "\n"
        << server.metricsJson();

    auto m = server.handle("{\"op\": \"metrics\"}");
    EXPECT_TRUE(hasField(m.response, "ok", "true"));
    EXPECT_TRUE(hasField(m.response, "cacheHits", "1"));
    EXPECT_TRUE(hasField(m.response, "cacheMisses", "1"));
    EXPECT_TRUE(hasField(m.response, "poolHits", "1"));
    EXPECT_NE(m.response.find("\"op\": \"run\", \"requests\": 2, "
                              "\"errors\": 0"),
              std::string::npos)
        << m.response;
}

TEST(ServePool, SnapshotRestoreIsExactAfterGrowWriteAndTrap)
{
    Server server;
    const TempFile path_file("dirty.wat", kDirtyTrapWat);
    const std::string &path = path_file.path();

    // Run once: grows memory, dirties a global and the grown page,
    // then traps mid-execution. The lease is restored and re-parked.
    auto trapped = server.handle(runRequest(path));
    EXPECT_TRUE(hasField(trapped.response, "code", "\"serve.trap\""))
        << trapped.response;

    const auto bytes = support::readBinaryFile(path);
    auto entry = server.cache().acquire(bytes, path);
    ASSERT_EQ(server.pool().parkedCount(*entry), 1u);

    // Lease the restored instance and instantiate a pristine one.
    InstanceLease warm = server.pool().acquire(*entry);
    EXPECT_TRUE(warm.warm);
    auto fresh = interp::Instance::instantiate(entry->module(),
                                               interp::Linker());

    // Byte-identical post-start state: memory shrunk back to 1 page,
    // global rewound to 7, table equal.
    const interp::InstanceSnapshot a = warm.instance->snapshot();
    const interp::InstanceSnapshot b = fresh->snapshot();
    EXPECT_EQ(a.memory, b.memory);
    ASSERT_EQ(a.globals.size(), b.globals.size());
    for (size_t i = 0; i < a.globals.size(); ++i)
        EXPECT_EQ(toString(a.globals[i]), toString(b.globals[i]))
            << "global " << i;
    EXPECT_EQ(a.table, b.table);

    // Per-request execution state was cleared, not leaked.
    EXPECT_FALSE(warm.instance->fuel().has_value());
    EXPECT_FALSE(warm.instance->memory().pageQuota().has_value());
    EXPECT_EQ(warm.instance->memory().quotaDenials(), 0u);

    server.pool().release(std::move(warm));
}

TEST(ServePool, DroppedLeaseIsDiscardedNotPooled)
{
    ModuleCache cache;
    const std::string s(kAddWat);
    auto entry = cache.acquire(
        std::vector<uint8_t>(s.begin(), s.end()), "drop.wat");

    InstancePool pool;
    {
        InstanceLease lease = pool.acquire(*entry);
        EXPECT_FALSE(lease.warm);
        // Dropped without release(): unknown state, never pooled.
    }
    EXPECT_EQ(pool.parkedCount(*entry), 0u);
    InstanceLease again = pool.acquire(*entry);
    EXPECT_FALSE(again.warm);
    EXPECT_EQ(pool.misses(), 2u);
}

TEST(ServeOps, InstrumentWritesModuleAndAnalyzeReports)
{
    Server server;
    const TempFile path_file("inst_src.wat", kAddWat);
    const std::string &path = path_file.path();
    const TempFile out_file("inst_out.wasm");
    const std::string &out = out_file.path();

    auto inst = server.handle("{\"op\": \"instrument\", \"module\": \"" +
                              path + "\", \"out\": \"" + out + "\"}");
    ASSERT_TRUE(hasField(inst.response, "ok", "true"))
        << inst.response;
    // The written file is a loadable binary with hook imports.
    auto m = support::loadModuleFromFile(out);
    size_t imported = 0;
    for (const auto &f : m.functions)
        imported += f.imported() ? 1 : 0;
    EXPECT_GT(imported, 0u);

    auto an = server.handle("{\"op\": \"analyze\", \"module\": \"" +
                            path + "\"}");
    EXPECT_TRUE(hasField(an.response, "ok", "true")) << an.response;
    EXPECT_TRUE(hasField(an.response, "functions", "1"));
    EXPECT_NE(an.response.find("\"hash\""), std::string::npos);
}

TEST(ServeOps, InstrumentToUnwritablePathIsIoErrorNotDeath)
{
    std::ofstream probe("/dev/full");
    if (!probe.is_open())
        GTEST_SKIP() << "/dev/full not available";
    probe.close();

    Server server;
    const TempFile path_file("io_src.wat", kAddWat);
    const std::string &path = path_file.path();
    auto r = server.handle("{\"op\": \"instrument\", \"module\": \"" +
                           path +
                           "\", \"out\": \"/dev/full\"}");
    EXPECT_TRUE(hasField(r.response, "ok", "false"));
    EXPECT_TRUE(hasField(r.response, "code", "\"serve.io-error\""))
        << r.response;

    auto ok = server.handle(runRequest(path));
    EXPECT_TRUE(hasField(ok.response, "ok", "true"));
}

/** Connect to the daemon at @p sock_path, waiting for its listener
 * to come up; -1 if it never does. */
int
connectTo(const std::string &sock_path)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      sock_path.c_str());
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

TEST(ServeSocket, EndToEndOverUnixSocket)
{
    Server server;
    const TempFile sock_path_file("e2e.sock");
    const std::string &sock_path = sock_path_file.path();
    const TempFile wat_path_file("sock.wat", kAddWat);
    const std::string &wat_path = wat_path_file.path();

    std::thread daemon(
        [&] { serveUnixSocket(server, sock_path); });

    int fd = connectTo(sock_path);
    ASSERT_GE(fd, 0) << "could not connect to " << sock_path;

    const std::string payload = runRequest(wat_path) +
                                "\n{\"op\": \"shutdown\"}\n";
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));

    std::string replies;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        replies.append(buf, static_cast<size_t>(n));
    ::close(fd);
    daemon.join();

    EXPECT_NE(replies.find("\"results\": [\"i32:5\"]"),
              std::string::npos)
        << replies;
    EXPECT_NE(replies.find("\"op\": \"shutdown\""), std::string::npos);
}

/** Threads of this process, as /proc/self/task lists them. */
size_t
taskCount()
{
    size_t n = 0;
    if (DIR *d = ::opendir("/proc/self/task")) {
        while (dirent *e = ::readdir(d))
            n += e->d_name[0] != '.';
        ::closedir(d);
    }
    return n;
}

/** This process's mapped address space (VmSize), in KiB. */
uint64_t
vmSizeKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoull(line.substr(7));
    }
    return 0;
}

/** Send one request line on a fresh connection, read its reply line,
 * and hang up. */
std::string
oneShot(const std::string &sock_path, const std::string &request)
{
    int fd = connectTo(sock_path);
    EXPECT_GE(fd, 0) << "could not connect to " << sock_path;
    if (fd < 0)
        return "";
    const std::string line = request + "\n";
    EXPECT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    std::string reply;
    char buf[4096];
    ssize_t n;
    while (reply.find('\n') == std::string::npos &&
           (n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return reply;
}

TEST(ServeSocket, FinishedConnectionThreadsAreReaped)
{
    Server server;
    const TempFile sock_path_file("reap.sock");
    const std::string &sock_path = sock_path_file.path();
    const TempFile wat_path_file("reap.wat", kAddWat);
    const std::string &wat_path = wat_path_file.path();
    std::thread daemon(
        [&] { serveUnixSocket(server, sock_path); });

    // Warm up: the listener, the module cache and malloc's arenas.
    for (int i = 0; i < 4; ++i)
        oneShot(sock_path, runRequest(wat_path));
    const size_t tasks_before = taskCount();
    const uint64_t vm_before = vmSizeKib();
    for (int i = 0; i < 64; ++i) {
        std::string reply = oneShot(sock_path, runRequest(wat_path));
        EXPECT_TRUE(hasField(reply, "ok", "true")) << i << ": " << reply;
    }
    const size_t tasks_after = taskCount();
    const uint64_t vm_after = vmSizeKib();
    oneShot(sock_path, "{\"op\": \"shutdown\"}");
    daemon.join();

    // At most the handlers of the last few connections are still
    // winding down.
    EXPECT_LE(tasks_after, tasks_before + 2);
    // A handler that has exited leaves /proc/self/task even unjoined,
    // but keeps its stack mapped until it is joined: 64 unjoined
    // handlers would add 64 stacks.
    pthread_attr_t attr;
    size_t stack_bytes = 0;
    ASSERT_EQ(pthread_getattr_default_np(&attr), 0);
    pthread_attr_getstacksize(&attr, &stack_bytes);
    pthread_attr_destroy(&attr);
    ASSERT_GT(stack_bytes, 0u);
    EXPECT_LT(vm_after, vm_before + 16 * (stack_bytes / 1024))
        << "VmSize " << vm_before << " -> " << vm_after << " KiB";
}

TEST(ServeProtocol, ParseRequestAndArgSpecs)
{
    Request r = parseRequest(
        "{\"op\": \"run\", \"module\": \"m.wasm\", \"entry\": \"f\", "
        "\"args\": [\"i32:5\", \"i64:-1\", \"f64:1.5\"], "
        "\"fuel\": 10, \"memoryPages\": 2}");
    EXPECT_EQ(r.op, "run");
    EXPECT_EQ(r.entry, "f");
    ASSERT_EQ(r.args.size(), 3u);
    EXPECT_EQ(toString(r.args[0]), "i32:5");
    // toString renders i64 bits unsigned; -1 parsed to all-ones.
    EXPECT_EQ(toString(r.args[1]), "i64:18446744073709551615");
    EXPECT_EQ(toString(r.args[2]), "f64:1.5");
    ASSERT_TRUE(r.fuel.has_value());
    EXPECT_EQ(*r.fuel, 10u);
    ASSERT_TRUE(r.memoryPages.has_value());
    EXPECT_EQ(*r.memoryPages, 2u);

    EXPECT_THROW(parseRequest("{\"op\": \"run\"}"), BadRequest);
    EXPECT_THROW(parseRequest("{\"id\": \"x\"}"), BadRequest);
    EXPECT_THROW(parseRequest("[1, 2]"), BadRequest);
    EXPECT_THROW(parseArgSpec("i16:5"), BadRequest);
    EXPECT_THROW(parseArgSpec("i32:notanumber"), BadRequest);
    // Strict: a whole token, in range, never a prefix or a wrap.
    for (const char *bad :
         {"i32:12abc", "i32:4294967296", "i32:-2147483649", "i32:",
          "i32: 12", "i32:+12", "i32:0x10", "i32:1.5", "i64:abc",
          "i64:18446744073709551616", "i64:-9223372036854775809",
          "i64:12abc", "f32:1.5abc", "f32:1e60", "f64:", "f64:1.5x",
          "f64:1e999", "12", "i32"})
        EXPECT_THROW(parseArgSpec(bad), BadRequest) << bad;
    EXPECT_EQ(toString(parseArgSpec("i32:4294967295")), "i32:4294967295");
    EXPECT_EQ(toString(parseArgSpec("i32:-2147483648")), "i32:2147483648");
    EXPECT_EQ(toString(parseArgSpec("i32:-1")), "i32:4294967295");
    EXPECT_EQ(toString(parseArgSpec("i64:18446744073709551615")),
              "i64:18446744073709551615");
    EXPECT_EQ(toString(parseArgSpec("i64:-9223372036854775808")),
              "i64:9223372036854775808");
    EXPECT_EQ(parseArgSpec("f32:0.5").f32(), 0.5f);
    EXPECT_EQ(parseArgSpec("f64:-2.25").f64(), -2.25);
    EXPECT_THROW(parseRequest("{\"op\": \"run\", \"module\": \"m\", "
                              "\"memoryPages\": 100000}"),
                 BadRequest);
    // Quotas are unsigned integers: never rounded, clamped or cast
    // from out of range.
    for (const char *quota :
         {"\"fuel\": 1.5", "\"fuel\": 0.4", "\"fuel\": 1e30",
          "\"fuel\": -1", "\"memoryPages\": 0.5",
          "\"memoryPages\": -1"}) {
        EXPECT_THROW(parseRequest(std::string("{\"op\": \"run\", "
                                              "\"module\": \"m\", ") +
                                  quota + "}"),
                     BadRequest)
            << quota;
    }
    Request big = parseRequest("{\"op\": \"run\", \"module\": \"m\", "
                               "\"fuel\": 1e15, \"memoryPages\": 65536}");
    EXPECT_EQ(big.fuel, 1000000000000000u);
    EXPECT_EQ(big.memoryPages, 65536u);
}

// ---------------------------------------------------------------------
// Checked file I/O (the bugfix satellites).
// ---------------------------------------------------------------------

TEST(CheckedIo, ShortWriteToFullDeviceThrows)
{
    std::ofstream probe("/dev/full");
    if (!probe.is_open())
        GTEST_SKIP() << "/dev/full not available";
    probe.close();

    // The pre-fix writeFile wrote via an unchecked ofstream and
    // reported success; the checked writers must throw io.short-write.
    try {
        support::writeTextFile("/dev/full",
                               std::string(1 << 16, 'x'));
        FAIL() << "write to /dev/full must not succeed";
    } catch (const support::IoError &e) {
        EXPECT_EQ(e.code(), "io.short-write");
        EXPECT_NE(std::string(e.what()).find("/dev/full"),
                  std::string::npos);
    }
    EXPECT_THROW(support::writeBinaryFile(
                     "/dev/full", std::vector<uint8_t>(1 << 16, 7)),
                 support::IoError);
}

TEST(CheckedIo, WriteToUnwritableDirectoryThrows)
{
    EXPECT_THROW(
        support::writeTextFile("/nonexistent-dir/out.txt", "x"),
        support::IoError);
    try {
        support::writeBinaryFile(testing::TempDir(), {1, 2, 3});
        FAIL() << "writing to a directory path must fail";
    } catch (const support::IoError &e) {
        EXPECT_NE(std::string(e.what()).find(testing::TempDir()),
                  std::string::npos);
    }
}

TEST(CheckedIo, RoundTripSucceeds)
{
    const TempFile path_file("rt.bin");
    const std::string &path = path_file.path();
    const std::vector<uint8_t> data = {0, 1, 2, 254, 255};
    support::writeBinaryFile(path, data);
    EXPECT_EQ(support::readBinaryFile(path), data);
    support::writeTextFile(path, "hello\n");
    const auto text = support::readBinaryFile(path);
    EXPECT_EQ(std::string(text.begin(), text.end()), "hello\n");
}

TEST(CheckedIo, BulkReadReturnsWholeFileAtEverySize)
{
    const TempFile path_file("bulk.bin");
    const std::string &path = path_file.path();
    for (size_t size : {size_t{0}, size_t{1}, size_t{65536},
                        size_t{3} << 20}) {
        std::vector<uint8_t> data(size);
        for (size_t i = 0; i < size; ++i)
            data[i] = static_cast<uint8_t>(i * 131 + (i >> 11));
        support::writeBinaryFile(path, data);
        EXPECT_EQ(support::readBinaryFile(path), data) << size;
    }
    // A file with more content than stat reports (procfs reports 0
    // bytes) is read to its end, as one that grew after the stat is.
    std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
    if (!cmdline.is_open())
        GTEST_SKIP() << "/proc/self/cmdline not available";
    const std::vector<uint8_t> expected{
        std::istreambuf_iterator<char>(cmdline),
        std::istreambuf_iterator<char>()};
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(support::readBinaryFile("/proc/self/cmdline"), expected);
}

TEST(CheckedIo, ReadDiagnosticsNamePathAndCause)
{
    try {
        support::readBinaryFile(testing::TempDir());
        FAIL() << "reading a directory must fail";
    } catch (const support::IoError &e) {
        EXPECT_EQ(e.code(), "io.read");
        EXPECT_NE(std::string(e.what()).find("is a directory"),
                  std::string::npos)
            << e.what();
    }
    try {
        support::readBinaryFile("/no/such/file.wasm");
        FAIL() << "missing file must fail";
    } catch (const support::IoError &e) {
        EXPECT_NE(std::string(e.what()).find("/no/such/file.wasm"),
                  std::string::npos);
    }
}

TEST(CheckedIo, ModuleBytesClassifierIsPrecise)
{
    using support::classifyModuleBytes;
    using support::IoError;
    using support::ModuleBytesKind;

    auto diagOf = [](std::string s) -> std::string {
        try {
            classifyModuleBytes(
                std::vector<uint8_t>(s.begin(), s.end()), "input");
        } catch (const IoError &e) {
            EXPECT_EQ(e.code(), "io.module");
            return e.what();
        }
        return "";
    };

    EXPECT_NE(diagOf("").find("empty file"), std::string::npos);
    // Truncated inside the magic: named as such, never "WAT".
    EXPECT_NE(diagOf(std::string("\0as", 3)).find("magic"),
              std::string::npos);
    // Magic but no version word.
    EXPECT_NE(diagOf(std::string("\0asm", 4)).find("version"),
              std::string::npos);
    // NUL-leading garbage is neither binary nor plausibly WAT.
    EXPECT_NE(diagOf(std::string("\0gar bage", 9)).find("bad magic"),
              std::string::npos);

    EXPECT_EQ(classifyModuleBytes({0x00, 0x61, 0x73, 0x6D, 1, 0, 0, 0},
                                  "ok.wasm"),
              ModuleBytesKind::WasmBinary);
    const std::string wat = "(module)";
    EXPECT_EQ(classifyModuleBytes(
                  std::vector<uint8_t>(wat.begin(), wat.end()),
                  "ok.wat"),
              ModuleBytesKind::WatText);
}

TEST(CheckedIo, LoadModuleFromBytesRejectsTruncatedBinary)
{
    const std::string trunc("\0asm\x01", 5);
    try {
        support::loadModuleFromBytes(
            std::vector<uint8_t>(trunc.begin(), trunc.end()),
            "trunc.wasm");
        FAIL() << "truncated binary must not load";
    } catch (const support::IoError &e) {
        EXPECT_EQ(e.code(), "io.module");
        EXPECT_NE(std::string(e.what()).find("trunc.wasm"),
                  std::string::npos);
        // The message must not be a baffling WAT parse error.
        EXPECT_EQ(std::string(e.what()).find("expected"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace wasabi::serve
