/**
 * @file
 * Fuzz wiring for the instrumentation-invariant checker: random
 * programs (plain and call_indirect-heavy, before and after `wasabi
 * opt`), PolyBench kernels and the synthetic app are run through the
 * instrumenter under many hook subsets and the checker must come back
 * empty every time. This is the end-to-end guarantee behind
 * `wasabi check` — any instrumenter regression that breaks one of the
 * paper's invariants (selective instrumentation, constant locations,
 * i64 splitting, side tables) trips these tests before it can skew a
 * faithfulness experiment.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/instrument.h"
#include "static/analyze.h"
#include "static/check.h"
#include "static/interproc/call_graph.h"
#include "static/rewrite/opt.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::static_analysis {
namespace {

using core::HookKind;
using core::HookSet;
using core::InstrumentResult;
using wasm::Module;

/** The hook subsets every fuzzed module is instrumented under. */
const std::vector<HookSet> &
hookSubsets()
{
    static const std::vector<HookSet> subsets = {
        HookSet::all(),
        {HookKind::Begin, HookKind::End},
        {HookKind::Call, HookKind::Return},
        {HookKind::Const, HookKind::Unary, HookKind::Binary},
        {HookKind::Load, HookKind::Store},
        {HookKind::Br, HookKind::BrIf, HookKind::BrTable},
        {HookKind::Local, HookKind::Global, HookKind::Drop,
         HookKind::Select, HookKind::If},
    };
    return subsets;
}

void
expectClean(const Module &orig, HookSet hooks, bool split_i64,
            const std::string &what)
{
    core::InstrumentOptions opts;
    opts.splitI64 = split_i64;
    InstrumentResult r = core::instrument(orig, hooks, opts);
    Diagnostics d = checkInstrumentation(*r.info, r.module);
    EXPECT_TRUE(d.empty())
        << what << " [hooks " << hooks.toString() << ", splitI64 "
        << split_i64 << "]:\n"
        << toString(d);
}

class RandomProgramCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramCheck, InstrumenterOutputSatisfiesAllInvariants)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    Module orig = workloads::randomProgram(opts).module;
    wasm::validateModule(orig);

    for (const HookSet &hooks : hookSubsets())
        expectClean(orig, hooks, true,
                    "random seed " + std::to_string(opts.seed));
    expectClean(orig, HookSet::all(), false,
                "random seed " + std::to_string(opts.seed));
}

TEST_P(RandomProgramCheck, TwoBinaryPathAgreesWithMetadataPath)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    Module orig = workloads::randomProgram(opts).module;

    InstrumentResult r = core::instrument(orig, HookSet::all());
    Diagnostics d = checkInstrumentation(orig, r.module);
    EXPECT_TRUE(d.empty())
        << "two-binary check, seed " << opts.seed << ":\n" << toString(d);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramCheck,
                         ::testing::Range<uint64_t>(1, 11));

/** Instrument @p m under every hook subset; the checker must accept
 * each output. */
void
expectAllSubsetsClean(const Module &m, const std::string &what)
{
    for (const HookSet &hooks : hookSubsets())
        expectClean(m, hooks, true, what);
}

/** Optimize @p m with @p passes; the result must re-prove from its
 * JSON claim manifest. */
rewrite::OptResult
optimizeAndReprove(const Module &m, const std::vector<std::string> &passes,
                   const std::string &what)
{
    rewrite::OptResult r = rewrite::optimize(m, passes);
    rewrite::OptClaims parsed;
    std::string error;
    EXPECT_TRUE(rewrite::claimsFromManifest(
        rewrite::claimsToManifest(r.claims), parsed, &error))
        << what << ": " << error;
    Diagnostics d = rewrite::checkOptimization(
        m, wasm::encodeModule(r.module), parsed);
    EXPECT_TRUE(d.empty()) << what << ":\n" << toString(d);
    return r;
}

TEST_P(RandomProgramCheck, OptimizedInstrumentationChecksClean)
{
    // Instrumenting the output of `wasabi opt` must keep every
    // invariant the checker knows about.
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    Module orig = workloads::randomProgram(opts).module;
    wasm::validateModule(orig);

    Module optimized =
        rewrite::optimize(orig, rewrite::allOptPasses()).module;
    wasm::validateModule(optimized);
    expectAllSubsetsClean(optimized, "optimized random seed " +
                                         std::to_string(opts.seed));
}

TEST_P(RandomProgramCheck, ManifestRoundTripTwoBinaryChecksClean)
{
    // The CLI flow `opt --manifest-out=` then `check orig optimized
    // --manifest=`: the claims travel through their JSON manifest and
    // must re-prove against the two binaries.
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    optimizeAndReprove(workloads::randomProgram(opts).module,
                       rewrite::allOptPasses(),
                       "random seed " + std::to_string(opts.seed));
}

TEST_P(RandomProgramCheck, OptimizedInstrumentationNeverGrows)
{
    // `dead-stores` turns a `local.set N` into a one-byte `drop` and
    // adds nothing, so the optimized module instruments to at most
    // the original's size, and strictly less once any claim applies.
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    Module orig = workloads::randomProgram(opts).module;

    rewrite::OptResult r = rewrite::optimize(orig, {"dead-stores"});
    const HookSet branch = {HookKind::If, HookKind::BrIf,
                            HookKind::BrTable, HookKind::Select};
    size_t plain_size =
        wasm::encodeModule(core::instrument(orig, branch).module).size();
    size_t opt_size =
        wasm::encodeModule(core::instrument(r.module, branch).module)
            .size();
    EXPECT_LE(opt_size, plain_size) << "seed " << opts.seed;
    if (r.claims.totalClaims() != 0) {
        EXPECT_LT(opt_size, plain_size) << "seed " << opts.seed;
    }
}

/** Indirect-heavy generator config: extra call_indirect statements,
 * half of them with constant in-range indices — the shape the
 * interprocedural refinement resolves to a unique target. */
workloads::RandomProgramOptions
indirectHeavyOptions(uint64_t seed)
{
    workloads::RandomProgramOptions opts;
    opts.seed = seed;
    opts.indirectCallPct = 30;
    opts.constIndexIndirectPct = 50;
    return opts;
}

class IndirectHeavyCheck : public ::testing::TestWithParam<uint64_t> {};

/** The `opt` passes the refined call graph licenses. */
const std::vector<std::string> kRefinedPasses = {"call-indirect"};

TEST_P(IndirectHeavyCheck, RefinedPlanChecksClean)
{
    // The refined call graph's narrowings reach instrumentation
    // through `wasabi opt` (call_indirect -> call). The indirect-heavy module and its refined rewrite must
    // both instrument cleanly under every hook subset.
    const std::string what =
        "indirect-heavy seed " + std::to_string(GetParam());
    Module orig =
        workloads::randomProgram(indirectHeavyOptions(GetParam())).module;
    wasm::validateModule(orig);
    expectAllSubsetsClean(orig, what);

    Module refined = rewrite::optimize(orig, kRefinedPasses).module;
    wasm::validateModule(refined);
    expectAllSubsetsClean(refined, what + ", refined");
}

TEST_P(IndirectHeavyCheck, RefinedManifestRoundTripChecksClean)
{
    // The refined rewrite's claims must survive their JSON manifest
    // and re-prove against the two binaries (`check --manifest=`).
    optimizeAndReprove(
        workloads::randomProgram(indirectHeavyOptions(GetParam())).module,
        kRefinedPasses,
        "indirect-heavy seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndirectHeavyCheck,
                         ::testing::Range<uint64_t>(1, 11));

TEST(StaticFuzz, IndirectKnobsProduceNarrowableSites)
{
    // The knobs must actually exercise the refinement: across the
    // seed range at least one call_indirect resolves to a unique
    // target (otherwise the IndirectHeavy suites silently test
    // nothing new).
    size_t narrowable = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        interproc::CallGraph rcg(
            workloads::randomProgram(indirectHeavyOptions(seed)).module,
            interproc::Precision::Refined);
        narrowable += std::count_if(
            rcg.sites().begin(), rcg.sites().end(),
            [](const interproc::CallSite &s) {
                return s.kind == interproc::SiteKind::IndirectConst;
            });
    }
    EXPECT_GT(narrowable, 0u);
}

TEST(StaticFuzz, PolybenchKernelsCheckClean)
{
    for (const std::string name : {"gemm", "jacobi-2d", "cholesky"}) {
        Module orig = workloads::polybench(name, 8).module;
        for (const HookSet &hooks : hookSubsets())
            expectClean(orig, hooks, true, "polybench " + name);
    }
}

TEST(StaticFuzz, SyntheticAppChecksClean)
{
    Module orig =
        workloads::syntheticApp(workloads::AppSize::Small).module;
    for (const HookSet &hooks : hookSubsets())
        expectClean(orig, hooks, true, "synthetic app");
    expectClean(orig, HookSet::all(), false, "synthetic app");
}

TEST(StaticFuzz, ParallelInstrumentationChecksClean)
{
    workloads::RandomProgramOptions opts;
    opts.seed = 42;
    Module orig = workloads::randomProgram(opts).module;

    core::InstrumentOptions iopts;
    iopts.numThreads = 4;
    InstrumentResult r =
        core::instrument(orig, HookSet::all(), iopts);
    Diagnostics d = checkInstrumentation(*r.info, r.module);
    EXPECT_TRUE(d.empty()) << toString(d);
}

TEST(StaticFuzz, AnalyzeRunsOnAllFuzzedModules)
{
    // The CFG/dataflow layer must handle whatever the generators emit.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        Module m = workloads::randomProgram(opts).module;
        ModuleReport r = analyzeModule(m);
        EXPECT_EQ(r.numFunctions, m.numFunctions());
        uint32_t blocks = 0;
        for (const FunctionStats &s : r.functions)
            blocks += s.numBlocks;
        EXPECT_GT(blocks, 0u);
    }
}

} // namespace
} // namespace wasabi::static_analysis
