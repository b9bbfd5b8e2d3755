/**
 * @file
 * Parallel per-function phases (support/parallel.h): decode,
 * validation, the side tables, the refined call graph, `opt`'s passes
 * and `check --manifest`'s replay must give the same result, and
 * report the same error, at every worker count. Each case runs the
 * phase at 1 worker (the serial reference), at 2, 4 and 8, and at 0
 * (one per CPU, what the CLI passes). `lint` and `analyze`, which always use
 * one worker per CPU, must give the same output on every run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/static_info.h"
#include "static/analyze.h"
#include "static/interproc/call_graph.h"
#include "static/passes/pipeline.h"
#include "static/rewrite/opt.h"
#include "support/parallel.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi {
namespace {

namespace rw = static_analysis::rewrite;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8, 0};

/** The message of what @p f throws, or "" when it returns. */
template <class F>
std::string
errorOf(F &&f)
{
    try {
        f();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/** app:small, random programs with constant and dynamic
 * call_indirects, and PolyBench kernels. */
std::vector<Module>
corpus()
{
    std::vector<Module> mods;
    mods.push_back(
        workloads::syntheticApp(workloads::AppSize::Small).module);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 24;
        opts.indirectCallPct = 30;
        opts.constIndexIndirectPct = 50;
        mods.push_back(workloads::randomProgram(opts).module);
    }
    for (const char *k : {"gemm", "atax", "cholesky", "lu", "heat-3d"})
        mods.push_back(workloads::polybench(k, 8).module);
    return mods;
}

TEST(ParallelPhases, WorkerCountClampsToItems)
{
    EXPECT_EQ(support::workerCount(1, 100), 1u);
    EXPECT_EQ(support::workerCount(8, 3), 3u);
    EXPECT_EQ(support::workerCount(4, 0), 1u);
    EXPECT_EQ(support::workerCount(0, 0), 1u);
    EXPECT_EQ(support::workerCount(0, 1), 1u);
    EXPECT_GE(support::workerCount(0, 1000), 1u);
}

TEST(ParallelPhases, LoopCoversEveryItemOnceAndRethrowsTheLowestError)
{
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> seen(1000);
        std::atomic<bool> bad_worker{false};
        support::parallelFor(seen.size(), threads,
                             [&](size_t i, unsigned w) {
                                 if (w >= threads)
                                     bad_worker = true;
                                 ++seen[i];
                             });
        EXPECT_FALSE(bad_worker) << threads;
        for (size_t i = 0; i < seen.size(); ++i)
            ASSERT_EQ(seen[i].load(), 1) << threads << " workers, item " << i;

        // Items 37, 38, 111, ... throw; a serial loop stops at 37.
        std::string err = errorOf([&] {
            support::parallelFor(500, threads, [](size_t i, unsigned) {
                if (i % 73 == 37 || i == 38)
                    throw std::runtime_error("item " + std::to_string(i));
            });
        });
        EXPECT_EQ(err, "item 37") << threads << " workers";
    }
}

/** 40 functions `() -> i32` returning a constant; those in @p bad
 * read local 7, which they do not have. */
Module
manyFunctions(const std::vector<uint32_t> &bad)
{
    ModuleBuilder mb;
    for (uint32_t f = 0; f < 40; ++f) {
        bool invalid =
            std::find(bad.begin(), bad.end(), f) != bad.end();
        mb.addFunction(FuncType({}, {ValType::I32}),
                       f == 0 ? "main" : "",
                       [&](FunctionBuilder &b) {
                           b.i32Const(static_cast<int32_t>(0x7ABC0 + f));
                           if (invalid)
                               b.localGet(7).op(Opcode::I32Add);
                       });
    }
    return mb.build();
}

TEST(ParallelPhases, ValidationReportsTheLowestInvalidFunction)
{
    Module m = manyFunctions({9, 31});
    std::optional<std::string> serial = wasm::validationError(m, 1);
    ASSERT_TRUE(serial.has_value());
    EXPECT_NE(serial->find("func 9"), std::string::npos) << *serial;
    for (unsigned w : kWorkerCounts)
        EXPECT_EQ(wasm::validationError(m, w), serial) << w << " workers";
    EXPECT_EQ(wasm::validationError(manyFunctions({}), 0), std::nullopt);
}

/** Replace the `end` that follows function @p f's constant (see
 * manyFunctions) with @p byte. */
void
corruptBody(std::vector<uint8_t> &bytes, uint32_t f, uint8_t byte)
{
    std::vector<uint8_t> pattern{0x41};
    wasm::encodeSLEB(pattern, 0x7ABC0 + f);
    pattern.push_back(0x0B);
    auto it = std::search(bytes.begin(), bytes.end(), pattern.begin(),
                          pattern.end());
    ASSERT_NE(it, bytes.end()) << "function " << f;
    *(it + pattern.size() - 1) = byte;
}

TEST(ParallelPhases, DecodeReportsTheFirstCorruptBody)
{
    std::vector<uint8_t> good = wasm::encodeModule(manyFunctions({}));
    for (unsigned w : kWorkerCounts)
        EXPECT_EQ(wasm::encodeModule(wasm::decodeModule(good, w)), good)
            << w << " workers";

    // Two bad opcodes: the earlier body's is the one a serial decoder
    // reaches first.
    std::vector<uint8_t> bytes = good;
    corruptBody(bytes, 12, 0xFE);
    corruptBody(bytes, 30, 0xFF);
    std::string serial = errorOf([&] { wasm::decodeModule(bytes, 1); });
    EXPECT_NE(serial.find("invalid opcode byte 254"), std::string::npos)
        << serial;
    for (unsigned w : kWorkerCounts)
        EXPECT_EQ(errorOf([&] { wasm::decodeModule(bytes, w); }), serial)
            << w << " workers";

    // A body that loses its `end` reads on into the next entry, as one
    // reader through the section would.
    bytes = good;
    corruptBody(bytes, 20, 0x01); // nop
    serial = errorOf([&] { wasm::decodeModule(bytes, 1); });
    EXPECT_FALSE(serial.empty());
    for (unsigned w : kWorkerCounts)
        EXPECT_EQ(errorOf([&] { wasm::decodeModule(bytes, w); }), serial)
            << w << " workers";
}

TEST(ParallelPhases, SideTablesEqualAcrossWorkerCounts)
{
    std::vector<std::pair<std::string, Module>> mods;
    for (const std::string &k : workloads::polybenchNames())
        mods.emplace_back(k, workloads::polybench(k, 8).module);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        mods.emplace_back("random:" + std::to_string(seed),
                          workloads::randomProgram(opts).module);
    }
    mods.emplace_back(
        "app:small",
        workloads::syntheticApp(workloads::AppSize::Small).module);
    for (const auto &[name, m] : mods) {
        const core::SideTables one = core::sideTables(m, 1);
        for (unsigned w : kWorkerCounts)
            EXPECT_TRUE(core::sideTables(m, w) == one)
                << name << ", " << w << " workers";
    }
}

TEST(ParallelPhases, RefinedCallGraphSitesAreEqual)
{
    for (const Module &m : corpus()) {
        using static_analysis::interproc::CallGraph;
        using static_analysis::interproc::Precision;
        CallGraph one(m, Precision::Refined, 1);
        for (unsigned w : kWorkerCounts) {
            CallGraph g(m, Precision::Refined, w);
            ASSERT_EQ(g.sites().size(), one.sites().size()) << w;
            for (size_t s = 0; s < one.sites().size(); ++s) {
                const auto &a = one.sites()[s];
                const auto &b = g.sites()[s];
                EXPECT_EQ(a.func, b.func);
                EXPECT_EQ(a.instr, b.instr);
                EXPECT_EQ(a.kind, b.kind);
                EXPECT_EQ(a.constIndex, b.constIndex);
                EXPECT_EQ(a.targets, b.targets);
                EXPECT_EQ(g.siteAt(a.func, a.instr), &b);
            }
            for (uint32_t f = 0; f < m.numFunctions(); ++f) {
                EXPECT_EQ(g.callees(f), one.callees(f));
                EXPECT_EQ(g.callers(f), one.callers(f));
                EXPECT_EQ(g.reachable(f), one.reachable(f));
            }
        }
    }
}

TEST(ParallelPhases, OptimizeIsEqual)
{
    for (const Module &m : corpus()) {
        rw::OptResult one = rw::optimize(m, rw::allOptPasses(), 1);
        const std::vector<uint8_t> bytes = wasm::encodeModule(one.module);
        const std::string manifest = rw::claimsToManifest(one.claims);
        for (unsigned w : kWorkerCounts) {
            rw::OptResult r = rw::optimize(m, rw::allOptPasses(), w);
            EXPECT_EQ(wasm::encodeModule(r.module), bytes) << w;
            EXPECT_EQ(rw::claimsToManifest(r.claims), manifest) << w;
        }
    }
}

/** checkOptimization's report at every worker count equals the
 * serial one; returns it. */
std::string
checkReport(const Module &m, const std::vector<uint8_t> &bytes,
            const rw::OptClaims &claims)
{
    const std::string one = static_analysis::toString(
        rw::checkOptimization(m, bytes, claims, 1));
    for (unsigned w : kWorkerCounts)
        EXPECT_EQ(static_analysis::toString(
                      rw::checkOptimization(m, bytes, claims, w)),
                  one)
            << w << " workers";
    return one;
}

TEST(ParallelPhases, CheckOptimizationReportIsEqual)
{
    std::vector<Module> mods;
    mods.push_back(
        workloads::syntheticApp(workloads::AppSize::Small).module);
    for (const char *k : {"gemm", "2mm", "cholesky", "floyd-warshall",
                          "seidel-2d"})
        mods.push_back(workloads::polybench(k, 8).module);
    for (const Module &m : mods) {
        rw::OptResult r = rw::optimize(m, rw::allOptPasses());
        std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
        EXPECT_EQ(checkReport(m, bytes, r.claims), "");

        // Tampered: a byte appended (undecodable), no claims for an
        // optimized binary (output mismatch), a forged fold and a
        // forged dead store.
        std::vector<uint8_t> longer = bytes;
        longer.push_back(0);
        EXPECT_NE(checkReport(m, longer, r.claims), "");
        if (r.claims.totalClaims() > 0) {
            EXPECT_NE(checkReport(m, bytes, rw::OptClaims{}), "");
        }
        const uint32_t first = m.numImportedFunctions();
        rw::OptClaims forged = r.claims;
        forged.constFolds.push_back({first, 0, 2, 12345});
        EXPECT_NE(checkReport(m, bytes, forged), "");
        forged = r.claims;
        forged.deadStores.push_back({first, 0, 0});
        EXPECT_NE(checkReport(m, bytes, forged), "");
    }
}

TEST(ParallelPhases, LintAndAnalyzeAreStableAcrossRuns)
{
    // lint and analyze always run on one worker per CPU; which worker
    // gets which function varies from run to run, so a join in
    // completion order would show as a difference between runs.
    for (const Module &m : corpus()) {
        const std::string lint = static_analysis::toJson(
            static_analysis::passes::lintModule(m));
        const std::string report =
            static_analysis::toJson(static_analysis::analyzeModule(m));
        const std::string dot = static_analysis::refinedCallGraphDot(m);
        for (int run = 0; run < 3; ++run) {
            EXPECT_EQ(static_analysis::toJson(
                          static_analysis::passes::lintModule(m)),
                      lint);
            EXPECT_EQ(static_analysis::toJson(
                          static_analysis::analyzeModule(m)),
                      report);
            EXPECT_EQ(static_analysis::refinedCallGraphDot(m), dot);
        }
    }
}

} // namespace
} // namespace wasabi
