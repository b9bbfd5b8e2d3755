/**
 * @file
 * Differential gate between the two execution engines: the pre-decoded
 * fast engine must be observationally identical to the legacy
 * structured walker — same results, same trap kinds, same final
 * memory, same fuel consumption, and same ExecStats — across the
 * random-program corpus, PolyBench kernels, fuel-budget sweeps,
 * instrumented runs, and the interpreter-hardening regressions — plus
 * the range-claim soundness oracle on the same corpus, and the
 * counter-vs-hook leg: count-only analyses report the same through
 * the engine's counter probes as through hook calls.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "analyses/basic_block_profile.h"
#include "analyses/cryptominer.h"
#include "analyses/instruction_coverage.h"
#include "analyses/instruction_mix.h"
#include "analyses/registry.h"
#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "core/static_info.h"
#include "hook_stream_recorder.h"
#include "interp/engine/code.h"
#include "interp/interpreter.h"
#include "range_claim_oracle.h"
#include "runtime/runtime.h"
#include "wasm/builder.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi {
namespace {

using core::HookSet;
using interp::EngineKind;
using interp::ExecStats;
using interp::Instance;
using interp::Interpreter;
using interp::Linker;
using interp::Trap;
using interp::TrapKind;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;
using workloads::Workload;

/** Everything observable about one execution. */
struct Outcome {
    std::vector<Value> results;
    std::optional<TrapKind> trap;
    std::vector<uint8_t> memory;
    uint64_t instructions = 0;
    uint64_t calls = 0;
    uint64_t memoryOps = 0;
    uint64_t traps = 0;
    std::optional<uint64_t> fuelLeft;

    bool operator==(const Outcome &other) const = default;
};

/** Invoke @p w's entry on @p inst and observe the run. */
Outcome
observeRun(Instance &inst, const Workload &w, EngineKind engine)
{
    Outcome out;
    Interpreter interp;
    interp.engine = engine;
    try {
        out.results = interp.invokeExport(inst, w.entry, w.args);
    } catch (const Trap &t) {
        out.trap = t.kind();
    }
    out.memory = inst.memory().raw();
    const ExecStats &s = interp.stats();
    out.instructions = s.instructions;
    out.calls = s.calls;
    out.memoryOps = s.memoryOps;
    out.traps = s.traps;
    out.fuelLeft = inst.fuel();
    return out;
}

Outcome
runEngine(const Workload &w, EngineKind engine,
          std::optional<uint64_t> fuel = std::nullopt)
{
    auto inst = Instance::instantiate(w.module, Linker());
    inst->setFuel(fuel);
    return observeRun(*inst, w, engine);
}

void
expectSame(const Outcome &legacy, const Outcome &fast,
           const std::string &what)
{
    EXPECT_EQ(legacy.results, fast.results) << what;
    EXPECT_EQ(legacy.trap, fast.trap) << what;
    EXPECT_EQ(legacy.memory == fast.memory, true)
        << what << ": final memories differ";
    EXPECT_EQ(legacy.instructions, fast.instructions) << what;
    EXPECT_EQ(legacy.calls, fast.calls) << what;
    EXPECT_EQ(legacy.memoryOps, fast.memoryOps) << what;
    EXPECT_EQ(legacy.traps, fast.traps) << what;
    EXPECT_EQ(legacy.fuelLeft, fast.fuelLeft) << what;
}

// ---------------------------------------------------------------------
// Random-program corpus, several generator shapes per seed.

class EngineDifferentialRandom
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferentialRandom, UninstrumentedRunsAgree)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.numFunctions = 10;
    opts.stmtsPerFunction = 14;
    opts.indirectCallPct = 25;
    opts.constIndexIndirectPct = 50;
    Workload w = workloads::randomProgram(opts);
    ASSERT_EQ(validationError(w.module), std::nullopt);
    expectSame(runEngine(w, EngineKind::Legacy),
               runEngine(w, EngineKind::Fast),
               "seed " + std::to_string(GetParam()));
}

/** Run @p w under each fuel budget on both engines: same outcome, and
 * at exhaustion exactly `budget` instructions retired (the batched
 * accounting must keep the legacy per-instruction invariant). */
void
expectFuelSweepAgrees(const Workload &w,
                      const std::vector<uint64_t> &budgets, uint64_t total,
                      const std::string &what)
{
    for (uint64_t fuel : budgets) {
        Outcome legacy = runEngine(w, EngineKind::Legacy, fuel);
        Outcome fast = runEngine(w, EngineKind::Fast, fuel);
        expectSame(legacy, fast, what + " fuel " + std::to_string(fuel));
        if (fuel < total) {
            EXPECT_EQ(legacy.trap, TrapKind::FuelExhausted);
            EXPECT_EQ(fast.instructions, fuel);
            EXPECT_EQ(fast.fuelLeft, 0u);
        } else {
            EXPECT_EQ(legacy.trap, std::nullopt);
            EXPECT_EQ(fast.instructions, total);
        }
    }
}

TEST_P(EngineDifferentialRandom, FuelSweepAgreesExactly)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.numFunctions = 6;
    opts.stmtsPerFunction = 10;
    Workload w = workloads::randomProgram(opts);
    // Total instruction count of the unlimited run calibrates the
    // sweep so it brackets the exhaustion point.
    uint64_t total = runEngine(w, EngineKind::Legacy).instructions;
    ASSERT_GT(total, 0u);
    expectFuelSweepAgrees(
        w, {0, 1, 7, total / 2, total - 1, total, total + 5}, total,
        "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialRandom,
                         ::testing::Range<uint64_t>(300, 340));

// ---------------------------------------------------------------------
// PolyBench kernels (small n keeps the gate fast).

class EngineDifferentialPolybench
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineDifferentialPolybench, KernelRunsAgree)
{
    Workload w = workloads::polybench(GetParam(), 8);
    expectSame(runEngine(w, EngineKind::Legacy),
               runEngine(w, EngineKind::Fast), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, EngineDifferentialPolybench,
                         ::testing::ValuesIn(workloads::polybenchNames()));

/** Every budget from 0 to the total: exhaustion lands inside each
 * fused loop shape (compare-and-branch, mul-add, add-then-load, the
 * loop latch) at every position the random corpus rarely reaches. */
TEST(EngineDifferentialPolybench, FuelSweepAgreesExactly)
{
    for (const char *kernel : {"gemm", "jacobi-1d", "trisolv"}) {
        Workload w = workloads::polybench(kernel, 4);
        uint64_t total = runEngine(w, EngineKind::Legacy).instructions;
        ASSERT_GT(total, 0u) << kernel;
        std::vector<uint64_t> budgets;
        for (uint64_t fuel = 0; fuel <= total; ++fuel)
            budgets.push_back(fuel);
        expectFuelSweepAgrees(w, budgets, total, kernel);
    }
}

// ---------------------------------------------------------------------
// Instrumented runs: the engines must agree while dispatching hooks
// through the Wasabi runtime (host calls from inside the VM loop).

struct InstrumentedOutcome {
    Outcome outcome;
    uint64_t hookInvocations = 0;
};

InstrumentedOutcome
runInstrumented(const Workload &w, EngineKind engine)
{
    core::InstrumentResult r = core::instrument(w.module, HookSet::all());
    runtime::WasabiRuntime rt(r.info);
    analyses::InstructionMix mix;
    rt.addAnalysis(&mix);
    auto inst = rt.instantiate(r.module);
    InstrumentedOutcome out;
    Interpreter interp;
    interp.engine = engine;
    try {
        out.outcome.results = interp.invokeExport(*inst, w.entry, w.args);
    } catch (const Trap &t) {
        out.outcome.trap = t.kind();
    }
    out.outcome.memory = inst->memory().raw();
    const ExecStats &s = interp.stats();
    out.outcome.instructions = s.instructions;
    out.outcome.calls = s.calls;
    out.outcome.memoryOps = s.memoryOps;
    out.outcome.traps = s.traps;
    out.hookInvocations = rt.hookInvocations();
    return out;
}

TEST(EngineDifferential, InstrumentedRunsAgree)
{
    for (uint64_t seed : {401u, 402u, 403u, 404u}) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 8;
        opts.stmtsPerFunction = 10;
        Workload w = workloads::randomProgram(opts);
        InstrumentedOutcome legacy =
            runInstrumented(w, EngineKind::Legacy);
        InstrumentedOutcome fast = runInstrumented(w, EngineKind::Fast);
        expectSame(legacy.outcome, fast.outcome,
                   "instrumented seed " + std::to_string(seed));
        EXPECT_EQ(legacy.hookInvocations, fast.hookInvocations)
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Range claims. These tests once ran every statically proven access
// without its bounds check and compared the result with the legacy
// walker. They keep their names; each now checks the claims such a
// run relied on, directly (tests/range_claim_oracle.h): every claimed
// access stays inside the claimed memory, on both engines.

using tests::expectClaimsHold;

TEST_P(EngineDifferentialRandom, ElidedRunsAgree)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.numFunctions = 10;
    opts.stmtsPerFunction = 14;
    opts.indirectCallPct = 25;
    opts.constIndexIndirectPct = 50;
    Workload w = workloads::randomProgram(opts);
    ASSERT_EQ(validationError(w.module), std::nullopt);
    EXPECT_GT(expectClaimsHold(w, "seed " + std::to_string(GetParam())),
              0u);
}

TEST_P(EngineDifferentialPolybench, ElidedKernelRunsAgree)
{
    // An odd size, so the claims differ from the n = 8 ones the range
    // tests check; every kernel must still run claimed accesses.
    EXPECT_GT(expectClaimsHold(workloads::polybench(GetParam(), 13),
                               GetParam()),
              0u);
}

// ---------------------------------------------------------------------
// Intrinsic-vs-rewrite hook-stream parity: engine-intrinsified
// instrumentation must produce a byte-identical hook stream — same
// kinds, same counts, same argument values, same ordering — as the
// binary-rewriting instrumenter, on every workload.

struct HookStream {
    std::vector<std::string> stream;
    std::array<uint64_t, core::kNumHookKinds> perKind{};
    std::optional<TrapKind> trap;
    uint64_t invocations = 0;
};

HookStream
runRewriteStream(const Workload &w, EngineKind engine,
                 HookSet kinds = HookSet::all())
{
    core::InstrumentResult r = core::instrument(w.module, kinds);
    runtime::WasabiRuntime rt(r.info);
    tests::HookStreamRecorder rec;
    rt.addAnalysis(&rec);
    auto inst = rt.instantiate(r.module);
    Interpreter interp;
    interp.engine = engine;
    HookStream out;
    try {
        interp.invokeExport(*inst, w.entry, w.args);
    } catch (const Trap &t) {
        out.trap = t.kind();
    }
    out.stream = std::move(rec.stream);
    out.perKind = rec.perKind;
    out.invocations = rt.hookInvocations();
    return out;
}

HookStream
runIntrinsicStream(const Workload &w, HookSet kinds = HookSet::all())
{
    runtime::WasabiRuntime rt(core::buildIntrinsicInfo(w.module, kinds));
    tests::HookStreamRecorder rec;
    rt.addAnalysis(&rec);
    auto inst = rt.instantiateIntrinsic(w.module);
    Interpreter interp;
    interp.engine = EngineKind::Fast;
    HookStream out;
    try {
        interp.invokeExport(*inst, w.entry, w.args);
    } catch (const Trap &t) {
        out.trap = t.kind();
    }
    out.stream = std::move(rec.stream);
    out.perKind = rec.perKind;
    out.invocations = rt.hookInvocations();
    return out;
}

void
expectSameStream(const HookStream &rewrite, const HookStream &intrinsic,
                 const std::string &what)
{
    ASSERT_EQ(rewrite.trap, intrinsic.trap) << what;
    for (int k = 0; k < core::kNumHookKinds; ++k) {
        EXPECT_EQ(rewrite.perKind[k], intrinsic.perKind[k])
            << what << ": count mismatch for hook kind "
            << core::name(static_cast<core::HookKind>(k));
    }
    ASSERT_EQ(rewrite.stream.size(), intrinsic.stream.size()) << what;
    for (size_t i = 0; i < rewrite.stream.size(); ++i) {
        ASSERT_EQ(rewrite.stream[i], intrinsic.stream[i])
            << what << ": hook stream diverges at invocation " << i;
    }
    EXPECT_EQ(rewrite.invocations, intrinsic.invocations) << what;
}

TEST_P(EngineDifferentialPolybench, IntrinsicHookStreamParity)
{
    Workload w = workloads::polybench(GetParam(), 6);
    HookStream legacy = runRewriteStream(w, EngineKind::Legacy);
    HookStream fast = runRewriteStream(w, EngineKind::Fast);
    HookStream intrinsic = runIntrinsicStream(w);
    expectSameStream(legacy, fast, GetParam() + " (rewrite L vs F)");
    expectSameStream(fast, intrinsic, GetParam() + " (rewrite vs intrinsic)");
}

TEST_P(EngineDifferentialRandom, IntrinsicHookStreamParity)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.numFunctions = 8;
    opts.stmtsPerFunction = 12;
    opts.indirectCallPct = 25;
    opts.constIndexIndirectPct = 50;
    Workload w = workloads::randomProgram(opts);
    ASSERT_EQ(validationError(w.module), std::nullopt);
    expectSameStream(runRewriteStream(w, EngineKind::Fast),
                     runIntrinsicStream(w),
                     "seed " + std::to_string(GetParam()));
}

TEST(EngineDifferential, IntrinsicHookStreamParityUnderSubsetHookSets)
{
    Workload w = workloads::polybench("gemm", 6);
    const HookSet subsets[] = {
        {core::HookKind::Load, core::HookKind::Store},
        {core::HookKind::Call, core::HookKind::Return},
        {core::HookKind::Begin, core::HookKind::End},
        {core::HookKind::Br, core::HookKind::BrIf, core::HookKind::BrTable},
        {core::HookKind::Binary, core::HookKind::Unary,
         core::HookKind::Const},
        {core::HookKind::Local, core::HookKind::Global,
         core::HookKind::Select, core::HookKind::Drop},
        {core::HookKind::End}, // branch-site ends without Br hooks
    };
    for (const HookSet &kinds : subsets) {
        expectSameStream(runRewriteStream(w, EngineKind::Fast, kinds),
                         runIntrinsicStream(w, kinds), "gemm subset");
    }
}

/** A workload that traps mid-execution must yield identical hook
 * streams up to (and including) the last hook before the trap. */
TEST(EngineDifferential, IntrinsicTrapMidStreamPrefixParity)
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(
        FuncType({}, {ValType::I32}), "f", [](FunctionBuilder &f) {
            f.i32Const(7);
            f.i32Const(5);
            f.op(Opcode::I32Add);
            f.drop();
            // In-bounds store, then an out-of-bounds load: the trap
            // cuts the stream after the store hook fired.
            f.i32Const(16);
            f.i32Const(42);
            f.store(Opcode::I32Store, 0);
            f.i32Const(-8);
            f.load(Opcode::I32Load, 0);
        });
    Workload w;
    w.module = mb.build();
    w.entry = "f";
    ASSERT_EQ(validationError(w.module), std::nullopt);
    HookStream rewrite = runRewriteStream(w, EngineKind::Fast);
    HookStream intrinsic = runIntrinsicStream(w);
    ASSERT_EQ(rewrite.trap, TrapKind::MemoryOutOfBounds);
    expectSameStream(rewrite, intrinsic, "trap mid-stream");
    EXPECT_GT(intrinsic.perKind[static_cast<size_t>(core::HookKind::Store)],
              0u);
}

// ---------------------------------------------------------------------
// Superinstructions (DESIGN.md §9): the fast engine fuses unhooked FOp
// sequences; each invariant gets a shape that would expose it.

using interp::engine::CompiledModule;
using interp::engine::FInstr;
using interp::engine::FOp;

/** A one-export module from WAT, called as `kernel` with @p args. */
Workload
watWorkload(const std::string &wat, std::vector<Value> args = {})
{
    Workload w;
    w.module = wasm::parseWat(wat);
    w.args = std::move(args);
    return w;
}

/** The fast engine's translation of function @p func_idx. */
std::vector<FInstr>
translated(const wasm::Module &m, uint32_t func_idx,
           HookSet hooks = HookSet{})
{
    CompiledModule cm(m);
    cm.setIntrinsicHooks(hooks, nullptr);
    return cm.function(func_idx).code;
}

bool
hasOp(const std::vector<FInstr> &code, FOp op)
{
    for (const FInstr &in : code) {
        if (in.op == op)
            return true;
    }
    return false;
}

void
expectEnginesAgree(const Workload &w, const std::string &what)
{
    ASSERT_EQ(validationError(w.module), std::nullopt) << what;
    expectSame(runEngine(w, EngineKind::Legacy),
               runEngine(w, EngineKind::Fast), what);
}

/** Invariant 1: the `end` of a block that is branched to is a label;
 * the `i32.const` before it and the `i32.add` after it stay apart, so
 * the branch edge still runs the add. */
TEST(EngineFusion, BranchTargetBetweenConstAndAddIsNotFused)
{
    Workload w = watWorkload(R"((module
        (func (export "kernel") (param i32) (result i32)
            local.get 0
            block (result i32)
                i32.const 5
                local.get 0
                br_if 0
                drop
                i32.const 9
            end
            i32.add)))",
                             {Value::makeI32(0)});
    std::vector<FInstr> code = translated(w.module, 0);
    EXPECT_TRUE(hasOp(code, FOp::I32Add));
    EXPECT_FALSE(hasOp(code, FOp::I32AddImm));
    for (uint32_t x : {0u, 1u, 40u}) {
        w.args = {Value::makeI32(x)};
        expectEnginesAgree(w, "x=" + std::to_string(x));
    }
    w.args = {Value::makeI32(40)};
    EXPECT_EQ(runEngine(w, EngineKind::Fast).results,
              std::vector<Value>{Value::makeI32(45)});
}

/** Invariant 5: a fused add-then-load wraps the add in 32 bits and
 * only then adds the static offset. */
TEST(EngineFusion, AddThenLoadWrapsBeforeTheOffset)
{
    const std::string wat = R"((module
        (memory 1)
        (data (i32.const 12) "\2a\00\00\00")
        (func (export "kernel") (param i32 i32) (result i32)
            local.get 0
            local.get 1
            i32.add
            i32.const 16
            i32.add
            i32.load offset=4)))";
    Workload w = watWorkload(wat);
    EXPECT_TRUE(hasOp(translated(w.module, 0), FOp::I32LoadAddImm));

    // 0xFFFFFFF8 + 16 wraps to 8; + offset 4 = 12. Folding 16 into the
    // offset would address 0x1_0000_000C and trap.
    w.args = {Value::makeI32(0xFFFFFFF8u), Value::makeI32(0)};
    expectEnginesAgree(w, "wrapping sum");
    Outcome fast = runEngine(w, EngineKind::Fast);
    EXPECT_EQ(fast.trap, std::nullopt);
    EXPECT_EQ(fast.results, std::vector<Value>{Value::makeI32(42)});

    // A wrapped sum past the memory still traps, with equal counters.
    w.args = {Value::makeI32(0xFFFFFFF8u), Value::makeI32(0x10000)};
    expectEnginesAgree(w, "out-of-bounds sum");
    EXPECT_EQ(runEngine(w, EngineKind::Fast).trap,
              TrapKind::MemoryOutOfBounds);
}

/** Invariant 6: a compare-and-br_if that carries a value, or leaves
 * extra values to unwind, takes the unfused path. */
TEST(EngineFusion, BranchNeedingUnwindIsNotFused)
{
    Workload keep = watWorkload(R"((module
        (func (export "kernel") (param i32) (result i32)
            block (result i32)
                i32.const 7
                local.get 0
                i32.const 3
                i32.lt_s
                br_if 0
                drop
                i32.const 9
            end)))");
    Workload extra = watWorkload(R"((module
        (func (export "kernel") (param i32) (result i32) (local i32)
            block
                block
                    i32.const 1
                    local.get 0
                    i32.const 3
                    i32.lt_s
                    br_if 1
                    drop
                    i32.const 5
                    local.set 1
                end
            end
            local.get 1)))");
    for (Workload *w : {&keep, &extra}) {
        std::vector<FInstr> code = translated(w->module, 0);
        EXPECT_TRUE(hasOp(code, FOp::BrIf));
        EXPECT_FALSE(hasOp(code, FOp::I32LtSBrIf));
        for (uint32_t x : {0u, 3u, 0x80000000u}) {
            w->args = {Value::makeI32(x)};
            expectEnginesAgree(*w, "x=" + std::to_string(x));
        }
    }
}

/** The increment-and-jump form needs one local as source and
 * destination; `local.set` to another local keeps the set and the
 * branch apart. */
TEST(EngineFusion, IncrementAndJumpNeedsOneLocal)
{
    const char *wat = R"((module
        (func (export "kernel") (param i32) (result i32) (local i32)
            block
                local.get %s
                i32.const 5
                i32.add
                local.set %s
                br 0
            end
            local.get 1
            local.get 0
            i32.sub)))";
    for (const char *src : {"0", "1"}) {
        char text[512];
        std::snprintf(text, sizeof text, wat, src, "1");
        Workload w = watWorkload(text, {Value::makeI32(7)});
        std::vector<FInstr> code = translated(w.module, 0);
        bool same = std::string(src) == "1";
        EXPECT_EQ(hasOp(code, FOp::I32IncBr), same) << src;
        EXPECT_EQ(hasOp(code, FOp::I32AddLocalImmSet), !same) << src;
        expectEnginesAgree(w, std::string("source local ") + src);
    }
}

/** Fusion actually happens on unhooked code, and never in code where
 * every instruction is hooked (invariant 2): a silent fall-back to
 * unfused code, or fusion into hooked code, fails here. */
TEST(EngineFusion, KernelsFuseUnhookedAndNeverHooked)
{
    Workload gemm = workloads::polybench("gemm", 8);
    size_t body = gemm.module.functions[0].body.size();
    size_t fused = translated(gemm.module, 0).size();
    EXPECT_LE(fused * 10, body * 6) << fused << " slots for " << body
                                    << " instructions";
    for (const std::string &name : workloads::polybenchNames()) {
        Workload w = workloads::polybench(name, 8);
        for (uint32_t f = 0; f < w.module.functions.size(); ++f) {
            if (w.module.functions[f].imported())
                continue;
            for (const FInstr &in :
                 translated(w.module, f, HookSet::all())) {
                EXPECT_FALSE(interp::engine::isFused(in.op))
                    << name << " function " << f << " op "
                    << static_cast<int>(in.op);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Counter probes (DESIGN.md §12): in intrinsic mode the kinds a
// count-only analysis counts compile to FOp::Count slots and reach it
// in bulk. Against the same analysis kept on the hook path by a
// subscriber that counts nothing (tests::HookedShadow), its report,
// the hook invocation count and the ExecStats must be equal.

const std::vector<std::string> kCountOnly = {"mix", "blocks", "branch",
                                             "icov", "miner"};

/** Everything a run of one count-only analysis shows. */
struct CountedOutcome {
    Outcome run;
    std::string report;
    uint64_t invocations = 0;
};

/** The analysis state in full: its CLI report plus what that leaves
 * out (mix and blocks print their top entries only, icov a ratio,
 * miner a verdict). */
std::string
fullReport(const std::string &name, runtime::Analysis &a,
           const wasm::Module &m)
{
    std::string out = analyses::analysisReport(name, a, m);
    if (name == "mix") {
        out += static_cast<analyses::InstructionMix &>(a).report(SIZE_MAX);
    } else if (name == "blocks") {
        out += static_cast<analyses::BasicBlockProfile &>(a).report(
            SIZE_MAX);
    } else if (name == "icov") {
        auto &cov = static_cast<analyses::InstructionCoverage &>(a);
        for (uint32_t f = 0; f < m.functions.size(); ++f) {
            for (uint32_t i = 0; i < m.functions[f].body.size(); ++i) {
                if (cov.covered({f, i}))
                    out += " " + std::to_string(f) + ":" +
                           std::to_string(i);
            }
        }
    } else if (name == "miner") {
        for (const auto &[op, n] :
             static_cast<analyses::CryptominerDetector &>(a).signature())
            out += " " + op + "=" + std::to_string(n);
    }
    return out;
}

/** Count-only analyses on one workload, counted vs hooked. Each
 * group of analyses shares one runtime. */
class CountOnlyRuns {
  public:
    using Group = std::vector<std::string>;

    /** Each count-only analysis on a runtime of its own. */
    explicit CountOnlyRuns(const Workload &w) : w_(w)
    {
        for (const std::string &name : kCountOnly)
            add({name});
    }

    /** The analyses of @p group on one runtime. */
    CountOnlyRuns(const Workload &w, Group group) : w_(w)
    {
        add(std::move(group));
    }

    /** Every group, counted vs hooked under @p fuel; returns the
     * counted runs' outcome (the same for each group). */
    Outcome
    expectMatch(const std::string &what,
                std::optional<uint64_t> fuel = std::nullopt) const
    {
        Outcome run;
        for (size_t g = 0; g < groups_.size(); ++g) {
            std::string label = what;
            for (const std::string &name : groups_[g])
                label += " " + name;
            CountedOutcome counted = runGroup(g, /*hooked=*/false, fuel);
            CountedOutcome hooked = runGroup(g, /*hooked=*/true, fuel);
            expectSame(hooked.run, counted.run, label);
            EXPECT_EQ(hooked.report, counted.report) << label;
            EXPECT_EQ(hooked.invocations, counted.invocations) << label;
            run = counted.run;
        }
        return run;
    }

  private:
    void
    add(Group group)
    {
        HookSet hooks;
        for (const std::string &name : group)
            hooks |= analyses::makeAnalysis(name)->hooks();
        infos_.push_back(core::buildIntrinsicInfo(w_.module, hooks));
        groups_.push_back(std::move(group));
    }

    /** Run group @p g counted or, with a shadow subscriber, hooked. */
    CountedOutcome
    runGroup(size_t g, bool hooked, std::optional<uint64_t> fuel) const
    {
        runtime::WasabiRuntime rt(infos_[g]);
        std::vector<std::unique_ptr<runtime::Analysis>> as;
        for (const std::string &name : groups_[g]) {
            as.push_back(analyses::makeAnalysis(name));
            rt.addAnalysis(as.back().get(), name);
        }
        tests::HookedShadow shadow(infos_[g]->instrumentedHooks);
        if (hooked)
            rt.addAnalysis(&shadow, "shadow");
        EXPECT_EQ(rt.countedKinds().empty(), hooked);
        auto inst = rt.instantiateIntrinsic(w_.module);
        inst->setFuel(fuel);
        CountedOutcome out;
        out.run = observeRun(*inst, w_, EngineKind::Fast);
        for (size_t k = 0; k < as.size(); ++k)
            out.report += fullReport(groups_[g][k], *as[k], w_.module);
        out.invocations = rt.hookInvocations();
        return out;
    }

    const Workload &w_;
    std::vector<Group> groups_;
    std::vector<std::shared_ptr<const core::StaticInfo>> infos_;
};

TEST_P(EngineDifferentialPolybench, CountedMatchesHooked)
{
    Workload w = workloads::polybench(GetParam(), 6);
    CountOnlyRuns(w).expectMatch(GetParam());
}

TEST_P(EngineDifferentialRandom, CountedMatchesHooked)
{
    workloads::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.numFunctions = 8;
    opts.stmtsPerFunction = 12;
    opts.indirectCallPct = 25;
    opts.constIndexIndirectPct = 50;
    Workload w = workloads::randomProgram(opts);
    ASSERT_EQ(validationError(w.module), std::nullopt);
    CountOnlyRuns(w).expectMatch("seed " + std::to_string(GetParam()));
}

TEST(EngineCounters, SyntheticAppsCountedMatchesHooked)
{
    Workload small = workloads::syntheticApp(workloads::AppSize::Small);
    small.args = {Value::makeI32(1)};
    CountOnlyRuns(small).expectMatch("app:small");
    // app:medium runs 161M hook events in full; a prefix suffices, and
    // folds on the trap path.
    Workload medium =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    medium.args = {Value::makeI32(1)};
    Outcome run =
        CountOnlyRuns(medium).expectMatch("app:medium", 3'000'000);
    EXPECT_EQ(run.trap, TrapKind::FuelExhausted);
}

class EngineCountersFuelSweep : public ::testing::TestWithParam<std::string> {
};

/** Every budget from 0 to the total: exhaustion lands before, on and
 * after every counter probe, and the counts folded on the trap path
 * equal the hooks fired before it. On one runtime, mix and icov
 * count every kind (icov marks the blocks a taken branch ends) and
 * branch keeps select and br_table on the hook path. */
TEST_P(EngineCountersFuelSweep, CountedMatchesHooked)
{
    Workload w = workloads::polybench(GetParam(), 4);
    uint64_t total = runEngine(w, EngineKind::Legacy).instructions;
    ASSERT_GT(total, 0u);
    const CountOnlyRuns runs(w, {"mix", "icov", "branch"});
    for (uint64_t fuel = 0; fuel <= total; ++fuel) {
        const std::string what = "fuel " + std::to_string(fuel);
        Outcome run = runs.expectMatch(what, fuel);
        EXPECT_EQ(run.trap, fuel < total
                                ? std::optional(TrapKind::FuelExhausted)
                                : std::nullopt)
            << what;
        EXPECT_EQ(run.instructions, std::min(fuel, total)) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, EngineCountersFuelSweep,
                         ::testing::Values("gemm", "jacobi-1d",
                                           "trisolv"));

/** With `mix` counted, every hook site of a translation is a counter
 * probe: no Hook and no HookStash slot is left. */
TEST(EngineCounters, CountedMixTranslatesToCountSlotsOnly)
{
    std::vector<Workload> corpus;
    for (const std::string &name : workloads::polybenchNames())
        corpus.push_back(workloads::polybench(name, 8));
    corpus.push_back(workloads::syntheticApp(workloads::AppSize::Small));
    for (const Workload &w : corpus) {
        analyses::InstructionMix mix;
        runtime::WasabiRuntime rt(
            core::buildIntrinsicInfo(w.module, mix.hooks()));
        rt.addAnalysis(&mix);
        auto inst = rt.instantiateIntrinsic(w.module);
        CompiledModule &cm = inst->engineCode();
        for (uint32_t f = 0; f < w.module.functions.size(); ++f) {
            if (w.module.functions[f].imported())
                continue;
            const auto &fn = cm.function(f);
            size_t probes = 0;
            for (const FInstr &in : fn.code) {
                EXPECT_NE(in.op, FOp::Hook) << "function " << f;
                EXPECT_NE(in.op, FOp::HookStash) << "function " << f;
                if (in.op == FOp::Count || in.op == FOp::CountCond)
                    ++probes;
            }
            EXPECT_GT(probes, 0u) << "function " << f;
            EXPECT_EQ(probes, fn.hookSites.size()) << "function " << f;
            EXPECT_EQ(fn.countedSites.size(), fn.hookSites.size());
        }
    }
}

// ---------------------------------------------------------------------
// Hardening regressions (must hold in Release builds too — these were
// previously debug-only asserts that NDEBUG compiled away).

/** A structurally broken body leaving two values for a one-result
 * function must trap InternalError, not return garbage. */
TEST(EngineDifferential, FrameExitArityMismatchTrapsInBothEngines)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) {
                       f.i32Const(1);
                       f.i32Const(2);
                   });
    wasm::Module m = mb.build();
    // (Deliberately not validated: this models a buggy producer.)
    for (EngineKind engine : {EngineKind::Legacy, EngineKind::Fast}) {
        auto inst = Instance::instantiate(m, Linker());
        Interpreter interp;
        interp.engine = engine;
        try {
            interp.invokeExport(*inst, "f", {});
            FAIL() << "expected InternalError trap";
        } catch (const Trap &t) {
            EXPECT_EQ(t.kind(), TrapKind::InternalError);
        }
        // Both engines charge the whole body before detecting the
        // mismatch at the frame exit.
        EXPECT_EQ(interp.stats().instructions, 3u);
        EXPECT_EQ(interp.stats().traps, 1u);
    }
}

/** A host function returning the wrong result arity must trap
 * InternalError instead of corrupting the operand stack. */
TEST(EngineDifferential, HostResultArityMismatchTrapsInBothEngines)
{
    ModuleBuilder mb;
    uint32_t imp = mb.importFunction("env", "bad",
                                     FuncType({}, {ValType::I32}));
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [&](FunctionBuilder &f) { f.call(imp); });
    wasm::Module m = mb.build();
    Linker linker;
    linker.func("env", "bad",
                [](Instance &, std::span<const Value>,
                   std::vector<Value> &) { /* returns nothing */ });
    for (EngineKind engine : {EngineKind::Legacy, EngineKind::Fast}) {
        auto inst = Instance::instantiate(m, linker);
        Interpreter interp;
        interp.engine = engine;
        try {
            interp.invokeExport(*inst, "f", {});
            FAIL() << "expected InternalError trap";
        } catch (const Trap &t) {
            EXPECT_EQ(t.kind(), TrapKind::InternalError);
        }
    }
}

/** Unbounded recursion must exhaust the call stack identically. */
TEST(EngineDifferential, DeepRecursionParity)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f",
                   [](FunctionBuilder &f) { f.call(0); });
    wasm::Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    ExecStats stats[2];
    int i = 0;
    for (EngineKind engine : {EngineKind::Legacy, EngineKind::Fast}) {
        auto inst = Instance::instantiate(m, Linker());
        Interpreter interp;
        interp.engine = engine;
        // Modest limit: the legacy walker recurses on the host stack,
        // and sanitizer builds inflate its frames considerably.
        interp.maxCallDepth = 200;
        try {
            interp.invokeExport(*inst, "f", {});
            FAIL() << "expected CallStackExhausted";
        } catch (const Trap &t) {
            EXPECT_EQ(t.kind(), TrapKind::CallStackExhausted);
        }
        stats[i++] = interp.stats();
    }
    EXPECT_EQ(stats[0].instructions, stats[1].instructions);
    EXPECT_EQ(stats[0].calls, stats[1].calls);
}

} // namespace
} // namespace wasabi
