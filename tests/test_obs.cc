/**
 * @file
 * Tests for the observability subsystem (src/obs/): the shared JSON
 * reader (support/json.h), the ProfileCollector and its three
 * reporters, schema validation, dispatch-count accounting against
 * the runtime, the determinism guarantee of
 * `toJson(deterministic=true)` across instrumentation thread counts,
 * and the interpreter counters.
 */

#include <gtest/gtest.h>

#include "core/instrument.h"
#include "interp/interpreter.h"
#include "obs/profile.h"
#include "runtime/runtime.h"
#include "support/json.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace wasabi::obs {
namespace {

using core::HookKind;
using core::HookSet;
using wasm::FuncType;
using wasm::ValType;

// --- JSON reader -----------------------------------------------------

TEST(Json, ParsesScalarsAndContainers)
{
    std::string err;
    auto v = json::parse(
        R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5e1}})",
        &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_EQ(v->find("a")->asUInt(), 1u);
    const json::Value *b = v->find("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].str, "x\n");
    EXPECT_DOUBLE_EQ(v->find("c")->find("d")->number, -25.0);
}

TEST(Json, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(json::parse("", &err).has_value());
    EXPECT_FALSE(json::parse("{", &err).has_value());
    EXPECT_FALSE(json::parse("{\"a\": }", &err).has_value());
    EXPECT_FALSE(json::parse("[1,]", &err).has_value());
    EXPECT_FALSE(json::parse("01", &err).has_value());
    EXPECT_FALSE(json::parse("tru", &err).has_value());
    EXPECT_FALSE(json::parse("\"unterminated", &err).has_value());
    // Trailing garbage after a complete document.
    EXPECT_FALSE(json::parse("{} extra", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Json, DecodesUnicodeEscapesIncludingSurrogatePairs)
{
    std::string err;
    // BMP code points: 1-, 2- and 3-byte UTF-8.
    auto bmp = json::parse(R"("\u0041\u00e9\u20ac")", &err);
    ASSERT_TRUE(bmp.has_value()) << err;
    EXPECT_EQ(bmp->str, "A\xC3\xA9\xE2\x82\xAC");
    // U+1F600 as a surrogate pair must decode to one 4-byte UTF-8
    // sequence, not two 3-byte WTF-8 surrogates.
    auto emoji = json::parse(R"("\ud83d\ude00")", &err);
    ASSERT_TRUE(emoji.has_value()) << err;
    EXPECT_EQ(emoji->str, "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsLoneAndMalformedSurrogates)
{
    std::string err;
    // Lone high surrogate (end of string / non-escape follower).
    EXPECT_FALSE(json::parse(R"("\ud83d")", &err).has_value());
    EXPECT_FALSE(json::parse(R"("\ud83dx")", &err).has_value());
    EXPECT_FALSE(json::parse(R"("\ud83d\n")", &err).has_value());
    // High surrogate followed by a non-low-surrogate escape.
    EXPECT_FALSE(json::parse(R"("\ud83dA")", &err).has_value());
    EXPECT_FALSE(json::parse(R"("\ud83d\ud83d")", &err).has_value());
    // Lone low surrogate.
    EXPECT_FALSE(json::parse(R"("\ude00")", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Json, RejectsExcessiveNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    std::string err;
    EXPECT_FALSE(json::parse(deep, &err).has_value());
    EXPECT_NE(err.find("nesting"), std::string::npos);
}

// --- profiled end-to-end run ----------------------------------------

/** Observes everything, does nothing. */
class NullAnalysis final : public runtime::Analysis {
  public:
    HookSet hooks() const override { return HookSet::all(); }
};

/** A small module exercising const/load/store/call/binary hooks:
 * main() stores 42, loads it back, adds helper()'s 5 -> 47. */
wasm::Module
makeTestModule()
{
    wasm::ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](wasm::FunctionBuilder &f) { f.i32Const(5); });
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](wasm::FunctionBuilder &f) {
                       f.i32Const(0).i32Const(42).i32Store();
                       f.i32Const(0).i32Load();
                       f.call(0);
                       f.op(wasm::Opcode::I32Add);
                   });
    return mb.build();
}

/** Instrument (with @p threads workers), run under a NullAnalysis
 * with @p collector attached; returns the runtime's invocation
 * count. */
uint64_t
runProfiled(const wasm::Module &m, unsigned threads,
            ProfileCollector &collector)
{
    core::InstrumentOptions opts;
    opts.numThreads = threads;
    core::InstrumentResult r = [&] {
        ProfileCollector::ScopedPhase p(&collector, "instrument");
        return core::instrument(m, HookSet::all(), opts);
    }();
    collector.recordInstrumentation(r.stats);
    runtime::WasabiRuntime rt(r.info);
    NullAnalysis a;
    rt.addAnalysis(&a, "null");
    rt.setProfiler(&collector);
    auto inst = rt.instantiate(r.module);
    interp::Interpreter interp;
    {
        ProfileCollector::ScopedPhase p(&collector, "execute");
        auto results = interp.invokeExport(*inst, "main", {});
        EXPECT_EQ(results.at(0).i32(), 47u);
    }
    const interp::ExecStats &es = interp.stats();
    collector.setInterpCounters(InterpCounters{
        es.instructions, es.calls, es.memoryOps, es.traps});
    return rt.hookInvocations();
}

TEST(Profile, PerKindCountsSumExactlyToHookInvocations)
{
    ProfileCollector c;
    uint64_t invocations = runProfiled(makeTestModule(), 1, c);
    EXPECT_GT(invocations, 0u);
    EXPECT_EQ(c.totalDispatches(), invocations);
    // Exact per-kind counts: 4 consts (0, 42, 0, helper's 5), one
    // load, one store, one add; call fires pre and post.
    EXPECT_EQ(c.dispatchCount(HookKind::Const), 4u);
    EXPECT_EQ(c.dispatchCount(HookKind::Load), 1u);
    EXPECT_EQ(c.dispatchCount(HookKind::Store), 1u);
    EXPECT_EQ(c.dispatchCount(HookKind::Binary), 1u);
    EXPECT_EQ(c.dispatchCount(HookKind::Call), 2u);
}

TEST(Profile, JsonReportValidatesAgainstSchema)
{
    ProfileCollector c;
    runProfiled(makeTestModule(), 2, c);
    std::string err;
    EXPECT_TRUE(validateProfileJson(c.toJson(), &err)) << err;
    EXPECT_TRUE(validateProfileJson(c.toJson(true), &err)) << err;
    EXPECT_FALSE(c.toText().empty());
    // Documents written while the engine still counted unchecked
    // accesses carry one more interp counter; the interp object is
    // open, so they keep validating.
    std::string older = c.toJson();
    size_t at = older.find("\"memoryOps\": ");
    ASSERT_NE(at, std::string::npos);
    older.insert(at, "\"memoryOps" "Elided\": 0, ");
    EXPECT_TRUE(validateProfileJson(older, &err)) << err;

    // The parsed document mirrors the collector's counters.
    auto doc = json::parse(c.toJson(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("runtime")->find("hookInvocations")->asUInt(),
              c.totalDispatches());
    EXPECT_EQ(doc->find("instrumentation")->find("functions")->asUInt(),
              2u);
    EXPECT_GT(doc->find("interp")->find("instructions")->asUInt(), 0u);
    // In the instrumented run every hook dispatch is itself a call to
    // an imported function, on top of main's call to the helper.
    EXPECT_EQ(doc->find("interp")->find("calls")->asUInt(),
              c.totalDispatches() + 1);
    EXPECT_EQ(doc->find("interp")->find("memoryOps")->asUInt(), 2u);
    EXPECT_EQ(doc->find("interp")->find("traps")->asUInt(), 0u);
}

TEST(Profile, ChromeTraceValidatesAndHasExpectedTracks)
{
    ProfileCollector c;
    runProfiled(makeTestModule(), 2, c);
    std::string trace = c.toChromeTrace();
    std::string err;
    EXPECT_TRUE(validateChromeTrace(trace, &err)) << err;
    EXPECT_NE(trace.find("instrument-worker-0"), std::string::npos);
    EXPECT_NE(trace.find("instrument-worker-1"), std::string::npos);
    EXPECT_NE(trace.find("runtime-hooks"), std::string::npos);
    EXPECT_NE(trace.find("\"analysis: null\""), std::string::npos);
    // Phase spans recorded by the ScopedPhase helpers.
    EXPECT_NE(trace.find("\"instrument\""), std::string::npos);
    EXPECT_NE(trace.find("\"execute\""), std::string::npos);
}

TEST(Profile, DeterministicJsonIdenticalAcrossThreadCounts)
{
    ProfileCollector c1, c8;
    runProfiled(makeTestModule(), 1, c1);
    runProfiled(makeTestModule(), 8, c8);
    // Timings and worker layout differ, but the deterministic report
    // must agree byte-for-byte.
    EXPECT_EQ(c1.toJson(true), c8.toJson(true));
    // The full reports still both validate (they differ in timings).
    std::string err;
    EXPECT_TRUE(validateProfileJson(c1.toJson(), &err)) << err;
    EXPECT_TRUE(validateProfileJson(c8.toJson(), &err)) << err;
}

TEST(Profile, InstrumentStatsAccountForWorkersAndHookMap)
{
    core::InstrumentOptions opts;
    opts.numThreads = 4;
    core::InstrumentResult r =
        core::instrument(makeTestModule(), HookSet::all(), opts);
    const core::InstrumentStats &s = r.stats;
    EXPECT_EQ(s.workers.size(), 4u);
    uint64_t sum = 0;
    for (const auto &w : s.workers)
        sum += w.functions;
    EXPECT_EQ(sum, s.functionsInstrumented);
    EXPECT_EQ(s.functionsInstrumented, 2u);
    EXPECT_EQ(s.hooksGenerated, r.info->hooks.size());
    // Every distinct hook was inserted into the shared map exactly
    // once; per-worker caches make hit/miss counts nondeterministic,
    // but inserts are not.
    EXPECT_EQ(s.hookMap.inserts, s.hooksGenerated);
    EXPECT_GT(s.wallNanos, 0u);
}

TEST(Profile, DisabledCollectorRecordsNothing)
{
    ProfileCollector c(/*enabled=*/false);
    runProfiled(makeTestModule(), 1, c);
    EXPECT_EQ(c.totalDispatches(), 0u);
}

// --- interpreter counters -------------------------------------------

TEST(InterpCountersTest, CountsCallsAndMemoryOps)
{
    wasm::Module m = makeTestModule();
    auto inst =
        interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    interp.invokeExport(*inst, "main", {});
    const interp::ExecStats &es = interp.stats();
    EXPECT_EQ(es.calls, 1u);
    EXPECT_EQ(es.memoryOps, 2u); // one store + one load
    EXPECT_EQ(es.traps, 0u);
    EXPECT_GT(es.instructions, 0u);
    EXPECT_EQ(es.instructions, interp.instructionsExecuted());
}

TEST(InterpCountersTest, CountsTraps)
{
    wasm::ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "boom",
                   [](wasm::FunctionBuilder &f) { f.unreachable(); });
    wasm::Module m = mb.build();
    auto inst = interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    EXPECT_THROW(interp.invokeExport(*inst, "boom", {}), interp::Trap);
    EXPECT_EQ(interp.stats().traps, 1u);
}

// --- schema validation negatives ------------------------------------

TEST(Schema, RejectsNonProfileDocuments)
{
    std::string err;
    EXPECT_FALSE(validateProfileJson("not json", &err));
    EXPECT_FALSE(validateProfileJson("[]", &err));
    EXPECT_FALSE(validateProfileJson("{}", &err));
    EXPECT_FALSE(validateProfileJson(
        R"({"schema": "other", "version": 1, "deterministic": false})",
        &err));
    EXPECT_FALSE(validateProfileJson(
        R"({"schema": "wasabi-profile", "version": 999,
            "deterministic": false})",
        &err));

    // Versions and counters are unsigned integers, never rounded.
    auto doc = [](const std::string &version, const std::string &count) {
        return R"({"schema": "wasabi-profile", "version": )" + version +
               R"(, "deterministic": false, "runtime": {
                   "hookInvocations": )" +
               count + R"(, "perKind": [
                   {"kind": "const", "count": )" +
               count + R"(, "nanos": 0}]}})";
    };
    EXPECT_TRUE(validateProfileJson(doc("1", "1"), &err)) << err;
    EXPECT_FALSE(validateProfileJson(doc("1.4", "1"), &err));
    EXPECT_FALSE(validateProfileJson(doc("1", "1.5"), &err));
    EXPECT_FALSE(validateProfileJson(doc("1", "0.4"), &err));
    EXPECT_FALSE(validateProfileJson(doc("1", "-1"), &err));
    EXPECT_FALSE(validateProfileJson(doc("1", "1e30"), &err));
}

TEST(Schema, RejectsUnknownTopLevelKeys)
{
    std::string err;
    EXPECT_FALSE(validateProfileJson(
        R"({"schema": "wasabi-profile", "version": 1,
            "deterministic": false,
            "runtime": {"hookInvocations": 0, "perKind": []},
            "surprise": 1})",
        &err));
    EXPECT_NE(err.find("surprise"), std::string::npos);
}

TEST(Schema, RejectsPerKindSumMismatch)
{
    std::string err;
    EXPECT_FALSE(validateProfileJson(
        R"({"schema": "wasabi-profile", "version": 1,
            "deterministic": false,
            "runtime": {"hookInvocations": 5, "perKind": [
              {"kind": "const", "count": 2, "nanos": 0},
              {"kind": "load", "count": 2, "nanos": 0}]}})",
        &err));
    EXPECT_NE(err.find("hookInvocations"), std::string::npos);
}

TEST(Schema, RejectsBadHookKindNames)
{
    std::string err;
    EXPECT_FALSE(validateProfileJson(
        R"({"schema": "wasabi-profile", "version": 1,
            "deterministic": false,
            "runtime": {"hookInvocations": 1, "perKind": [
              {"kind": "frobnicate", "count": 1, "nanos": 0}]}})",
        &err));
}

TEST(Schema, AcceptsBenchSection)
{
    std::string err;
    EXPECT_TRUE(validateProfileJson(
        R"({"schema": "wasabi-profile", "version": 1,
            "deterministic": false,
            "runtime": {"hookInvocations": 0, "perKind": []},
            "bench": {"name": "fig9", "all": {"polybench": 49.0}}})",
        &err))
        << err;
    // ...but a bench section without a name is malformed.
    EXPECT_FALSE(validateProfileJson(
        R"({"schema": "wasabi-profile", "version": 1,
            "deterministic": false,
            "runtime": {"hookInvocations": 0, "perKind": []},
            "bench": {"label": "fig9"}})",
        &err));
}

} // namespace
} // namespace wasabi::obs
