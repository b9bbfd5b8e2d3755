/**
 * @file
 * Tests of the value-range abstract interpretation (interval domain,
 * threshold widening, branch-condition edge refinement, interprocedural
 * argument seeding), the lint.range.* diagnostics, the deterministic
 * JSON/DOT views, and the dynamic oracle that checks every proven
 * access stays inside the declared minimum memory
 * (tests/range_claim_oracle.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "interp/interpreter.h"
#include "range_claim_oracle.h"
#include "static/analyze.h"
#include "static/passes/constprop.h"
#include "static/passes/pipeline.h"
#include "static/passes/range.h"
#include "wasm/builder.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::static_analysis::passes {
namespace {

using interp::TrapKind;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;
using workloads::Workload;

/** The FunctionRanges of the only defined function of @p m. */
FunctionRanges
soloRanges(const Module &m)
{
    ModuleRanges mr = moduleRanges(m, 1);
    for (const FunctionRanges &fr : mr.functions) {
        if (!fr.accesses.empty() || fr.analyzed)
            return fr;
    }
    return {};
}

// ----- interval arithmetic ------------------------------------------

TEST(Interval, HullAndPredicates)
{
    EXPECT_TRUE(Interval::top().isTop());
    EXPECT_TRUE(Interval::exact(7).isConst());
    Interval h = hull(Interval::exact(3), Interval::exact(9));
    EXPECT_EQ(h.lo, 3u);
    EXPECT_EQ(h.hi, 9u);
    EXPECT_EQ(hull(h, Interval::top()), Interval::top());
}

// ----- intra-procedural provability ---------------------------------

TEST(Range, CountedLoopStoreIsProven)
{
    // for (i = 0; i < 100; ++i) mem[i*4] = i  — peak address 396+4,
    // well inside the one declared page.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t i = f.addLocal(ValType::I32);
        f.forLoop(i, 0, 100, [&] {
            f.localGet(i).i32Const(4).op(Opcode::I32Mul);
            f.localGet(i).i32Store();
        });
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_TRUE(fr.analyzed);
    ASSERT_EQ(fr.accesses.size(), 1u);
    EXPECT_TRUE(fr.accesses[0].isStore);
    EXPECT_TRUE(fr.accesses[0].proven);
    // Branch refinement: the loop guard (i >= 100 exits) bounds i to
    // [0, 99] on the fallthrough edge, so the address is [0, 396].
    EXPECT_EQ(fr.accesses[0].addr.lo, 0u);
    EXPECT_EQ(fr.accesses[0].addr.hi, 396u);
}

TEST(Range, DynamicBoundLoopTerminatesButCannotProve)
{
    // The loop bound is a parameter: widening must still terminate
    // (analyzed == true), but i*4 can wrap, so no claim.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(
        FuncType({ValType::I32}, {}), "f", [](FunctionBuilder &f) {
            uint32_t i = f.addLocal(ValType::I32);
            f.i32Const(0).localSet(i);
            f.block();
            f.loop();
            f.localGet(i).localGet(0).op(Opcode::I32GeS);
            f.brIf(1);
            f.localGet(i).i32Const(4).op(Opcode::I32Mul);
            f.localGet(i).i32Store();
            f.localGet(i).i32Const(1).op(Opcode::I32Add).localSet(i);
            f.br(0);
            f.end();
            f.end();
        });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_TRUE(fr.analyzed);
    ASSERT_EQ(fr.accesses.size(), 1u);
    EXPECT_FALSE(fr.accesses[0].proven);
}

TEST(Range, WrapAroundAdditionIsNotProven)
{
    // base + 0xFFFFFF00 wraps for base >= 256: the sum interval must
    // degrade to top rather than pretend the address is small.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t b = f.addLocal(ValType::I32);
        // b in [0, 65535] via a 16-bit load result.
        f.i32Const(0).load(Opcode::I32Load16U).localSet(b);
        f.localGet(b).i32Const(static_cast<int32_t>(0xFFFFFF00u));
        f.op(Opcode::I32Add);
        f.i32Const(1).i32Store();
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_TRUE(fr.analyzed);
    ASSERT_EQ(fr.accesses.size(), 2u); // the load + the store
    EXPECT_FALSE(fr.accesses[1].proven);
}

TEST(Range, UnsignedCompareRefinesLargeConstants)
{
    // u32 edge case: `if (x < 0x80000010)` is an UNSIGNED test; the
    // signed view of the bound is negative, but refinement must still
    // cap x.hi at 0x8000000F on the taken edge.
    ModuleBuilder mb;
    mb.memory(2);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t x = f.addLocal(ValType::I32);
        f.i32Const(0).i32Load().localSet(x);
        f.localGet(x).i32Const(static_cast<int32_t>(0x80000010u));
        f.op(Opcode::I32LtU);
        f.if_();
        f.localGet(x).i32Const(0).i32Store();
        f.end();
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_TRUE(fr.analyzed);
    // Access 0 is the i32.load at address 0; access 1 is the guarded
    // store: refined to [0, 0x8000000F], still far past memory, so
    // refinement happened but the claim must NOT be made.
    ASSERT_EQ(fr.accesses.size(), 2u);
    EXPECT_TRUE(fr.accesses[0].proven);
    EXPECT_EQ(fr.accesses[1].addr.hi, 0x8000000Fu);
    EXPECT_FALSE(fr.accesses[1].proven);
}

TEST(Range, NarrowLoadResultBoundsFollowOnAccess)
{
    // mem[mem8[0]] is proven: an 8-bit load yields [0, 255], and
    // 255 + 4 fits the declared page.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(0).load(Opcode::I32Load8U);
        f.i32Const(7).i32Store();
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_EQ(fr.accesses.size(), 2u);
    EXPECT_TRUE(fr.accesses[0].proven);
    EXPECT_TRUE(fr.accesses[1].proven);
    EXPECT_EQ(fr.accesses[1].addr.hi, 255u);
}

TEST(Range, SpilledComparisonStillRefines)
{
    // The pattern instrumented code produces around every hook call:
    // the comparison result is spilled to a local, other code runs,
    // and the branch consumes a reload. The predicate must survive.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t x = f.addLocal(ValType::I32);
        uint32_t c = f.addLocal(ValType::I32);
        f.i32Const(0).i32Load().localSet(x);
        f.localGet(x).i32Const(100).op(Opcode::I32LtU).localSet(c);
        f.i32Const(0).drop(); // unrelated work between spill + branch
        f.localGet(c);
        f.if_();
        f.localGet(x).i32Const(1).i32Store();
        f.end();
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_EQ(fr.accesses.size(), 2u);
    EXPECT_TRUE(fr.accesses[1].proven) << "refinement lost at spill";
    EXPECT_EQ(fr.accesses[1].addr.hi, 99u);
}

TEST(Range, ImmutableGlobalSeedsAddress)
{
    // Satellite: an immutable const-initialized global is a constant
    // for the interval domain (and for constprop).
    ModuleBuilder mb;
    mb.memory(1);
    uint32_t g =
        mb.global(ValType::I32, /*mut=*/false, Value::makeI32(1024));
    mb.addFunction(FuncType({}, {}), "f", [&](FunctionBuilder &f) {
        f.globalGet(g);
        f.i32Const(5).i32Store();
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_EQ(fr.accesses.size(), 1u);
    EXPECT_TRUE(fr.accesses[0].proven);
    EXPECT_EQ(fr.accesses[0].addr, Interval::exact(1024));

    EXPECT_EQ(immutableI32GlobalInit(m, g), 1024u);
}

TEST(ConstProp, MutableGlobalIsNotAConstant)
{
    ModuleBuilder mb;
    uint32_t g =
        mb.global(ValType::I32, /*mut=*/true, Value::makeI32(3));
    Module m = mb.build();
    EXPECT_EQ(immutableI32GlobalInit(m, g), std::nullopt);
    EXPECT_EQ(immutableI32GlobalInit(m, g + 17), std::nullopt);
}

// ----- interprocedural seeding --------------------------------------

TEST(Range, DirectCallArgumentsSeedCallee)
{
    // Internal g(base) stores at base; its only caller passes 2048,
    // so the callee's access is proven through the seed.
    ModuleBuilder mb;
    mb.memory(1);
    uint32_t gIdx = mb.addFunction( // internal: no export name
        FuncType({ValType::I32}, {}), "", [](FunctionBuilder &f) {
            f.localGet(0).i32Const(9).i32Store();
        });
    mb.addFunction(FuncType({}, {}), "f", [&](FunctionBuilder &f) {
        f.i32Const(2048).call(gIdx);
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    ModuleRanges mr = moduleRanges(m, 1);
    const FunctionRanges &g = mr.functions.at(gIdx);
    ASSERT_TRUE(g.analyzed);
    ASSERT_EQ(g.args.size(), 1u);
    EXPECT_EQ(g.args[0], Interval::exact(2048));
    ASSERT_EQ(g.accesses.size(), 1u);
    EXPECT_TRUE(g.accesses[0].proven);
}

TEST(Range, ExportedCalleeGetsTopArguments)
{
    // An exported function can be called from outside with anything:
    // its args must stay top even with a single provable internal
    // caller.
    ModuleBuilder mb;
    mb.memory(1);
    uint32_t gIdx = mb.addFunction(
        FuncType({ValType::I32}, {}), "g", [](FunctionBuilder &f) {
            f.localGet(0).i32Const(9).i32Store();
        });
    mb.addFunction(FuncType({}, {}), "f", [&](FunctionBuilder &f) {
        f.i32Const(8).call(gIdx);
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    ModuleRanges mr = moduleRanges(m, 1);
    const FunctionRanges &g = mr.functions.at(gIdx);
    ASSERT_TRUE(g.analyzed);
    EXPECT_TRUE(g.args.at(0).isTop());
    EXPECT_FALSE(g.accesses.at(0).proven);
}

/** Restores the default solver budget even when an assertion throws. */
struct SolverBudgetGuard {
    explicit SolverBudgetGuard(uint64_t b)
    {
        setRangeSolverBudgetForTest(b);
    }
    ~SolverBudgetGuard() { setRangeSolverBudgetForTest(0); }
};

TEST(Range, CapHitCallerDegradesCalleeSeedToTop)
{
    // When one caller's solver hits the iteration cap its call
    // arguments are unknown, so the callee's seed must degrade to
    // top. Seeding only from the surviving callers would silently
    // drop the failed caller's argument set and could prove claims
    // that its real arguments violate.
    ModuleBuilder mb;
    mb.memory(1);
    uint32_t gIdx = mb.addFunction( // internal: no export name
        FuncType({ValType::I32}, {}), "", [](FunctionBuilder &f) {
            f.localGet(0).i32Const(9).i32Store();
        });
    uint32_t aIdx =
        mb.addFunction(FuncType({}, {}), "a", [&](FunctionBuilder &f) {
            f.i32Const(2048).call(gIdx);
        });
    uint32_t bIdx =
        mb.addFunction(FuncType({}, {}), "b", [&](FunctionBuilder &f) {
            uint32_t i = f.addLocal(ValType::I32);
            f.forLoop(i, 0, 100, [&] { f.nop(); });
            f.i32Const(64).call(gIdx);
        });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);

    // With the default budget everything converges and the callee is
    // seeded with the join of both call sites.
    ModuleRanges full = moduleRanges(m, 1);
    ASSERT_TRUE(full.functions.at(bIdx).analyzed);
    EXPECT_EQ(full.functions.at(gIdx).args.at(0), (Interval{64, 2048}));
    EXPECT_TRUE(full.functions.at(gIdx).accesses.at(0).proven);

    // A tiny budget lets the straight-line caller (and the callee)
    // converge but trips the cap in the loop caller: the callee must
    // fall back to top, not to the surviving caller's exact(2048).
    SolverBudgetGuard guard(5);
    ModuleRanges capped = moduleRanges(m, 1);
    ASSERT_TRUE(capped.functions.at(aIdx).analyzed);
    ASSERT_FALSE(capped.functions.at(bIdx).analyzed);
    const FunctionRanges &g = capped.functions.at(gIdx);
    ASSERT_TRUE(g.analyzed);
    EXPECT_TRUE(g.args.at(0).isTop());
    ASSERT_EQ(g.accesses.size(), 1u);
    EXPECT_FALSE(g.accesses.at(0).proven);
}

TEST(Range, ManyConstantsKeepWideningSound)
{
    // >64 distinct i32 constants with a large negative share: the
    // threshold cap keeps the 62 smallest as u32 (negatives sort
    // large) and appends the sentinels, which used to leave the
    // vector unsorted — the widening binary search could then return
    // a "bound" below real runtime values and falsely prove the
    // store. The dynamic-bound loop below must never be proven.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(
        FuncType({ValType::I32}, {}), "f", [](FunctionBuilder &f) {
            for (int32_t k = 0; k < 40; ++k)
                f.i32Const(3 + k).drop();
            for (int32_t k = 1; k <= 35; ++k)
                f.i32Const(-k).drop();
            // for (i = 0; i != n; i += 3) mem[i] = 1
            uint32_t i = f.addLocal(ValType::I32);
            f.block();
            f.loop();
            f.localGet(i).localGet(0).op(Opcode::I32Eq).brIf(1);
            f.localGet(i).i32Const(1).i32Store();
            f.localGet(i).i32Const(3).op(Opcode::I32Add).localSet(i);
            f.br(0);
            f.end();
            f.end();
        });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    FunctionRanges fr = soloRanges(m);
    ASSERT_TRUE(fr.analyzed);
    ASSERT_EQ(fr.accesses.size(), 1u);
    EXPECT_FALSE(fr.accesses[0].proven);
    // The widened address bound must cover the whole page, not stop
    // at an artifact of an unsorted threshold search.
    EXPECT_GE(fr.accesses[0].addr.hi, 65536u);
}

// ----- determinism ---------------------------------------------------

TEST(Range, JsonIsByteIdenticalAcrossThreadCounts)
{
    // Against the serial reference: explicit worker counts and the
    // automatic count (0) every production caller uses.
    const std::pair<const char *, int> kernels[] = {
        {"gemm", 16}, {"atax", 16},     {"jacobi-1d", 16},
        {"gemm", 8},  {"cholesky", 8}, {"floyd-warshall", 8}};
    for (const auto &[name, size] : kernels) {
        Workload w = workloads::polybench(name, size);
        std::string one = static_analysis::rangesJson(w.module, 1);
        for (unsigned t : {0u, 2u, 4u, 8u}) {
            EXPECT_EQ(one, static_analysis::rangesJson(w.module, t))
                << name << ":" << size << " threads=" << t;
        }
    }
    // Condensations with hundreds of SCCs over several levels: the
    // synthetic apps, and a random program whose indirect calls give
    // the refined graph sites of every kind.
    workloads::RandomProgramOptions indirect;
    indirect.seed = 7;
    indirect.numFunctions = 24;
    indirect.indirectCallPct = 30;
    indirect.constIndexIndirectPct = 50;
    const Workload programs[] = {
        workloads::syntheticApp(workloads::AppSize::Small),
        workloads::syntheticApp(workloads::AppSize::PdfkitLike),
        workloads::randomProgram(indirect)};
    for (const Workload &w : programs) {
        std::string one = static_analysis::rangesJson(w.module, 1);
        for (unsigned t : {0u, 2u, 4u, 8u}) {
            EXPECT_EQ(one, static_analysis::rangesJson(w.module, t))
                << w.name << " threads=" << t;
        }
    }
}

TEST(Range, PolybenchKernelsYieldClaims)
{
    // The paper-style payoff: counted-loop kernels must have proven
    // in-bounds accesses.
    for (const std::string &name :
         {std::string("gemm"), std::string("atax"),
          std::string("mvt")}) {
        Workload w = workloads::polybench(name, 16);
        size_t proven = 0;
        for (const FunctionRanges &fr : moduleRanges(w.module, 1).functions)
            proven += std::count_if(
                fr.accesses.begin(), fr.accesses.end(),
                [](const MemAccess &a) { return a.proven; });
        EXPECT_GT(proven, 0u) << name;
    }
}

TEST(Range, DotViewRendersReachedBlocks)
{
    Workload w = workloads::polybench("gemm", 8);
    uint32_t kernel = 0;
    for (uint32_t i = 0; i < w.module.numFunctions(); ++i) {
        if (!w.module.functions[i].imported()) {
            kernel = i;
            break;
        }
    }
    std::string dot = static_analysis::rangesDot(w.module, kernel);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

/** A counted loop of 64 stores whose one store instruction is proven. */
Module
provenStoreModule()
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t i = f.addLocal(ValType::I32);
        f.forLoop(i, 0, 64, [&] {
            f.localGet(i).i32Const(8).op(Opcode::I32Mul);
            f.localGet(i).i32Store();
        });
    });
    return mb.build();
}

// ----- lint integration ---------------------------------------------

TEST(RangeLint, ProvablyOutOfBoundsAccessWarns)
{
    ModuleBuilder mb;
    mb.memory(1, 1); // max == min: growth impossible
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(70000).i32Load().drop();
    });
    Module m = mb.build();
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintRangeOob)) << toString(d);
}

TEST(RangeLint, GrowDependentAccessIsANote)
{
    ModuleBuilder mb;
    mb.memory(1); // no max: the access works iff memory has grown
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(70000).i32Load().drop();
    });
    Module m = mb.build();
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintRangeGrowDependent)) << toString(d);
    EXPECT_FALSE(d.hasCode(kLintRangeOob)) << toString(d);
}

TEST(RangeLint, ConstantZeroDivisorWarns)
{
    ModuleBuilder mb;
    mb.addFunction(
        FuncType({}, {ValType::I32}), "f", [](FunctionBuilder &f) {
            uint32_t z = f.addLocal(ValType::I32); // zero-initialized
            f.i32Const(7).localGet(z).op(Opcode::I32DivU);
        });
    Module m = mb.build();
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintRangeDivByZero)) << toString(d);
}

TEST(RangeLint, IntervalOnlyDeadGuardIsReported)
{
    // (mem8[0] & 7) < 8 is always true. Constprop cannot see it (the
    // load is opaque to it), so this exercises the interval-only path
    // and the dedup against lint.branch.const-condition.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(0).load(Opcode::I32Load8U);
        f.i32Const(7).op(Opcode::I32And);
        f.i32Const(8).op(Opcode::I32LtU);
        f.if_();
        f.nop();
        f.end();
    });
    Module m = mb.build();
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintRangeDeadGuard)) << toString(d);
}

TEST(RangeLint, ConstpropFlaggedGuardIsNotDuplicated)
{
    // A guard constprop already reports must not also appear as
    // lint.range.dead-guard.
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.block();
        f.i32Const(1);
        f.brIf(0);
        f.end();
    });
    Module m = mb.build();
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintConstCondition)) << toString(d);
    EXPECT_FALSE(d.hasCode(kLintRangeDeadGuard)) << toString(d);
}

// ----- range-claim soundness oracle --------------------------------
//
// The engine once ran claimed accesses without a bounds check, and the
// tests below compared those runs with checked ones (the `Elision.*`
// names are from then). Each now checks the claim such a run relied
// on, directly: at every claimed access,
// addr + offset + width <= minPages * 64 KiB.

using tests::expectClaimsHold;
using tests::OracleMode;
using tests::OracleRun;
using tests::provableClaims;
using tests::runRangeOracle;

/** Locations of the I32Store instructions of function 0 of @p m. */
std::vector<core::Location>
i32StoresOf(const Module &m)
{
    std::vector<core::Location> out;
    const std::vector<wasm::Instr> &body = m.functions.at(0).body;
    for (uint32_t i = 0; i < body.size(); ++i) {
        if (body[i].op == Opcode::I32Store)
            out.push_back({0, i});
    }
    return out;
}

class RangeClaimOraclePolybench
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RangeClaimOraclePolybench, ClaimsHold)
{
    // Counted-loop kernels are what the analysis targets: each must
    // run claimed accesses, or the check would be vacuous.
    EXPECT_GT(expectClaimsHold(workloads::polybench(GetParam(), 8),
                               GetParam()),
              0u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, RangeClaimOraclePolybench,
                         ::testing::ValuesIn(workloads::polybenchNames()));

TEST(RangeClaimOracle, SyntheticAppsAgree)
{
    Workload small = workloads::syntheticApp(workloads::AppSize::Small);
    EXPECT_GT(expectClaimsHold(small, small.name), 0u);
    // The large app in intrinsic mode only: with every hook attached,
    // its rewritten module takes seconds on the legacy walker.
    Workload large =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    OracleRun run = runRangeOracle(large, provableClaims(large.module));
    EXPECT_EQ(run.violationCount, 0u)
        << ::testing::PrintToString(run.violations);
    EXPECT_GT(run.claimedAccesses, 0u);
}

TEST(Elision, CountersAreExact)
{
    // 64 proven stores in a counted loop: the oracle must check
    // exactly those 64 accesses.
    Workload w;
    w.module = provenStoreModule();
    w.entry = "f";
    ASSERT_EQ(validationError(w.module), std::nullopt);
    tests::AccessClaims claims = provableClaims(w.module);
    ASSERT_EQ(claims.locs.size(), 1u);
    OracleRun run = runRangeOracle(w, claims);
    EXPECT_EQ(run.trap, std::nullopt);
    EXPECT_EQ(run.claimedAccesses, 64u);
    EXPECT_EQ(run.violationCount, 0u);
}

/** One proven store, then one store to the address argument. */
Workload
provenThenDynamicStore(uint32_t addr)
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(
        FuncType({ValType::I32}, {}), "f", [](FunctionBuilder &f) {
            f.i32Const(16).i32Const(1).i32Store(); // proven
            f.localGet(0).i32Const(2).i32Store();  // top: unclaimed
        });
    Workload w;
    w.module = mb.build();
    w.entry = "f";
    w.args = {Value::makeI32(addr)};
    return w;
}

TEST(Elision, UnclaimedAccessStillTraps)
{
    // The unclaimed store traps out of bounds; the trap is not blamed
    // on the claimed store that ran just before it.
    Workload w = provenThenDynamicStore(0xFFFFFFF0u);
    ASSERT_EQ(validationError(w.module), std::nullopt);
    tests::AccessClaims claims = provableClaims(w.module);
    ASSERT_EQ(claims.locs.size(), 1u);
    OracleRun oob = runRangeOracle(w, claims);
    EXPECT_EQ(oob.trap, TrapKind::MemoryOutOfBounds);
    EXPECT_EQ(oob.claimedAccesses, 1u);
    EXPECT_EQ(oob.violationCount, 0u);

    OracleRun inBounds =
        runRangeOracle(provenThenDynamicStore(64), claims);
    EXPECT_EQ(inBounds.trap, std::nullopt);
    EXPECT_EQ(inBounds.claimedAccesses, 1u);
    EXPECT_EQ(inBounds.violationCount, 0u);
}

// The oracle's self-tests: a claim the analysis would never make must
// be reported once the access it covers leaves the claimed memory.

TEST(RangeClaimOracle, ForgedClaimOnTrappingAccessIsReported)
{
    Workload w = provenThenDynamicStore(0xFFFFFFF0u);
    tests::AccessClaims forged{1, i32StoresOf(w.module)};
    ASSERT_EQ(forged.locs.size(), 2u);
    for (OracleMode mode : {OracleMode::Intrinsic, OracleMode::RewriteFast,
                            OracleMode::RewriteLegacy}) {
        OracleRun run = runRangeOracle(w, forged, mode);
        EXPECT_EQ(run.trap, TrapKind::MemoryOutOfBounds);
        EXPECT_EQ(run.claimedAccesses, 1u);
        EXPECT_EQ(run.violationCount, 1u);
    }
    // The same forged claims hold for an in-bounds argument.
    OracleRun ok = runRangeOracle(provenThenDynamicStore(64), forged);
    EXPECT_EQ(ok.claimedAccesses, 2u);
    EXPECT_EQ(ok.violationCount, 0u);
}

TEST(RangeClaimOracle, ForgedClaimPastMinimumMemoryIsReported)
{
    // The store lands in a page the module grew: in bounds for the
    // engine, but past the 1-page minimum the claim is relative to.
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(1).op(Opcode::MemoryGrow).drop();
        f.i32Const(65534).i32Const(7).i32Store();
    });
    Workload w;
    w.module = mb.build();
    w.entry = "f";
    ASSERT_EQ(validationError(w.module), std::nullopt);
    EXPECT_TRUE(provableClaims(w.module).locs.empty());
    OracleRun run = runRangeOracle(w, {1, i32StoresOf(w.module)});
    EXPECT_EQ(run.trap, std::nullopt);
    EXPECT_EQ(run.claimedAccesses, 1u);
    ASSERT_EQ(run.violationCount, 1u);
    EXPECT_NE(run.violations.at(0).find("65538"), std::string::npos)
        << run.violations.at(0);
}

} // namespace
} // namespace wasabi::static_analysis::passes
