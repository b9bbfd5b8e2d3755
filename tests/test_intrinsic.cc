/**
 * @file
 * Engine-intrinsic instrumentation mode (DESIGN.md §12): attachment
 * and invalidation semantics, counter visibility from inside hooks,
 * per-kind dispatch accounting, and the structured errors that keep
 * the two instrumentation modes from being combined.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "hook_stream_recorder.h"
#include "interp/engine/code.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "wasm/builder.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"

namespace wasabi {
namespace {

using core::HookKind;
using core::HookSet;
using interp::EngineKind;
using interp::Instance;
using interp::Interpreter;
using interp::Linker;
using tests::HookStreamRecorder;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;
using workloads::Workload;

wasm::Module
threeNops()
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.nop().nop().nop();
    });
    return mb.build();
}

// ---------------------------------------------------------------------
// Counter visibility (the hook-dispatch correctness sweep): a hook
// must observe up-to-date execution counters — the engine's batched
// accounting has to flush before every dispatch.

/** Records interp.stats().instructions at every nop hook. */
class CounterProbe : public runtime::Analysis {
  public:
    const Interpreter *interp = nullptr;
    std::vector<uint64_t> observed;

    HookSet hooks() const override { return HookSet::only(HookKind::Nop); }

    void
    onNop(runtime::Location) override
    {
        observed.push_back(interp->stats().instructions);
    }
};

TEST(Intrinsic, HooksObserveFlushedInstructionCounter)
{
    wasm::Module m = threeNops();
    ASSERT_EQ(validationError(m), std::nullopt);
    runtime::WasabiRuntime rt(
        core::buildIntrinsicInfo(m, HookSet::only(HookKind::Nop)));
    CounterProbe probe;
    rt.addAnalysis(&probe);
    auto inst = rt.instantiateIntrinsic(m);
    Interpreter interp;
    interp.engine = EngineKind::Fast;
    probe.interp = &interp;
    interp.invokeExport(*inst, "f", {});
    // Each hook runs right after its nop retires; batched accounting
    // must already be flushed, or the probe would see stale values
    // (0, 0, 0 — or worse, whatever the previous batch held).
    EXPECT_EQ(probe.observed, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(Intrinsic, RewriteModeCountersAgreeAcrossEngines)
{
    wasm::Module m = threeNops();
    core::InstrumentResult r =
        core::instrument(m, HookSet::only(HookKind::Nop));
    std::vector<uint64_t> seen[2];
    int i = 0;
    for (EngineKind engine : {EngineKind::Legacy, EngineKind::Fast}) {
        runtime::WasabiRuntime rt(r.info);
        CounterProbe probe;
        rt.addAnalysis(&probe);
        auto inst = rt.instantiate(r.module);
        Interpreter interp;
        interp.engine = engine;
        probe.interp = &interp;
        interp.invokeExport(*inst, "f", {});
        ASSERT_EQ(probe.observed.size(), 3u);
        seen[i++] = probe.observed;
    }
    // Same instrumented module, so the counter values visible inside
    // each hook must agree exactly between the walker and the VM.
    EXPECT_EQ(seen[0], seen[1]);
}

// ---------------------------------------------------------------------
// Accounting: hookInvocations() must equal the per-kind dispatch sum
// under strict-subset subscription.

TEST(Intrinsic, InvocationsEqualPerKindSumUnderSubsetSubscription)
{
    Workload w = workloads::polybench("gemm", 6);
    HookSet kinds{HookKind::Load, HookKind::Store, HookKind::Local,
                  HookKind::Binary};
    runtime::WasabiRuntime rt(core::buildIntrinsicInfo(w.module, kinds));
    HookStreamRecorder rec; // subscribes to all kinds
    rt.addAnalysis(&rec);
    auto inst = rt.instantiateIntrinsic(w.module);
    Interpreter interp;
    interp.engine = EngineKind::Fast;
    interp.invokeExport(*inst, w.entry, w.args);
    // Only the instrumented kinds may fire…
    for (int k = 0; k < core::kNumHookKinds; ++k) {
        if (!kinds.has(static_cast<HookKind>(k))) {
            EXPECT_EQ(rec.perKind[k], 0u)
                << core::name(static_cast<HookKind>(k));
        } else {
            EXPECT_GT(rec.perKind[k], 0u)
                << core::name(static_cast<HookKind>(k));
        }
    }
    // …and every dispatch is counted exactly once.
    EXPECT_EQ(rt.hookInvocations(), rec.total());
}

// ---------------------------------------------------------------------
// Combining the two instrumentation modes is a structured usage
// error, never silent double instrumentation.

TEST(Intrinsic, IntrinsicOnRewrittenModuleIsUsageError)
{
    wasm::Module m = threeNops();
    core::InstrumentResult r = core::instrument(m, HookSet::all());
    runtime::WasabiRuntime rt(
        core::buildIntrinsicInfo(m, HookSet::all()));
    EXPECT_THROW(rt.instantiateIntrinsic(r.module), std::invalid_argument);
}

TEST(Intrinsic, AttachWithRewriteStaticInfoIsUsageError)
{
    wasm::Module m = threeNops();
    core::InstrumentResult r = core::instrument(m, HookSet::all());
    runtime::WasabiRuntime rt(r.info); // rewrite-mode StaticInfo
    auto inst = Instance::instantiate(m, Linker());
    EXPECT_THROW(rt.attachIntrinsic(*inst), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Attach/detach after first execution must invalidate cached
// translations.

TEST(Intrinsic, AttachAfterFirstExecutionTakesEffect)
{
    wasm::Module m = threeNops();
    auto inst = Instance::instantiate(m, Linker());
    Interpreter interp;
    interp.engine = EngineKind::Fast;
    // First run uninstrumented: translations are now cached.
    interp.invokeExport(*inst, "f", {});

    runtime::WasabiRuntime rt(
        core::buildIntrinsicInfo(m, HookSet::only(HookKind::Nop)));
    HookStreamRecorder rec;
    rt.addAnalysis(&rec);
    rt.attachIntrinsic(*inst);
    interp.invokeExport(*inst, "f", {});
    // A stale cached translation would silently drop every hook.
    EXPECT_EQ(rec.perKind[static_cast<size_t>(HookKind::Nop)], 3u);
}

TEST(Intrinsic, ChangingHookKindsInvalidatesTranslations)
{
    wasm::Module m = threeNops();
    auto inst = Instance::instantiate(m, Linker());
    Interpreter interp;
    interp.engine = EngineKind::Fast;

    runtime::WasabiRuntime nopRt(
        core::buildIntrinsicInfo(m, HookSet::only(HookKind::Nop)));
    HookStreamRecorder nopRec;
    nopRt.addAnalysis(&nopRec);
    nopRt.attachIntrinsic(*inst);
    interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(nopRec.total(), 3u);

    // Re-attach with different kinds: old sites must be retranslated.
    runtime::WasabiRuntime beginRt(
        core::buildIntrinsicInfo(m, HookSet::only(HookKind::Begin)));
    HookStreamRecorder beginRec;
    beginRt.addAnalysis(&beginRec);
    beginRt.attachIntrinsic(*inst);
    interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(nopRec.total(), 3u); // unchanged
    EXPECT_EQ(beginRec.perKind[static_cast<size_t>(HookKind::Begin)], 1u);
    EXPECT_EQ(beginRec.perKind[static_cast<size_t>(HookKind::Nop)], 0u);

    beginRt.detachIntrinsic(*inst);
    interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(nopRec.total(), 3u);
    EXPECT_EQ(beginRec.total(), 1u); // detached: nothing new fired
}

// ---------------------------------------------------------------------
// The legacy walker cannot dispatch intrinsic hooks; running it on an
// instance with an attached sink must fail loudly, not silently
// drop the hook stream.

TEST(Intrinsic, LegacyEngineWithIntrinsicHooksThrows)
{
    wasm::Module m = threeNops();
    runtime::WasabiRuntime rt(
        core::buildIntrinsicInfo(m, HookSet::only(HookKind::Nop)));
    HookStreamRecorder rec;
    rt.addAnalysis(&rec);
    auto inst = rt.instantiateIntrinsic(m);
    Interpreter interp;
    interp.engine = EngineKind::Legacy;
    EXPECT_THROW(interp.invokeExport(*inst, "f", {}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// The start function runs during instantiateIntrinsic — with hooks
// already attached, matching rewrite mode.

TEST(Intrinsic, StartFunctionIsInstrumented)
{
    ModuleBuilder mb;
    uint32_t g = mb.global(ValType::I32, true, Value::makeI32(0));
    uint32_t init =
        mb.addFunction(FuncType({}, {}), "", [&](FunctionBuilder &f) {
            f.i32Const(1).globalSet(g);
        });
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [&](FunctionBuilder &f) { f.globalGet(g); });
    mb.start(init);
    wasm::Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);

    runtime::WasabiRuntime rt(core::buildIntrinsicInfo(
        m, HookSet{HookKind::Start, HookKind::Global}));
    HookStreamRecorder rec;
    rt.addAnalysis(&rec);
    auto inst = rt.instantiateIntrinsic(m);
    EXPECT_EQ(rec.perKind[static_cast<size_t>(HookKind::Start)], 1u);
    EXPECT_EQ(rec.perKind[static_cast<size_t>(HookKind::Global)], 1u);

    Interpreter interp;
    interp.engine = EngineKind::Fast;
    std::vector<Value> out = interp.invokeExport(*inst, "f", {});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].i32(), 1u);
    EXPECT_EQ(rec.perKind[static_cast<size_t>(HookKind::Global)], 2u);
    EXPECT_EQ(rec.perKind[static_cast<size_t>(HookKind::Start)], 1u);
}

} // namespace
} // namespace wasabi
