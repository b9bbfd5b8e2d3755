/**
 * @file
 * Instrumenter tests: hook-import generation, index remapping,
 * validity of instrumented modules, faithful execution under no-op
 * hooks, and the values delivered to low-level hooks (including the
 * i64 split ABI and drop/select monomorphization).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "core/instrument.h"
#include "interp/interpreter.h"
#include "serve/server.h"
#include "support/file_io.h"
#include "support/module_io.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::core {
namespace {

using interp::Instance;
using interp::Interpreter;
using interp::Linker;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::Value;
using wasm::ValType;

/** Linker that binds every hook import to a no-op host function. */
Linker
noopLinker(const StaticInfo &info)
{
    Linker linker;
    for (const HookSpec &spec : info.hooks) {
        linker.func(core::kHookImportModule, mangledName(spec),
                    [](Instance &, std::span<const Value>,
                       std::vector<Value> &) {});
    }
    return linker;
}

/** Record of one low-level hook invocation. */
struct HookCall {
    std::string name;
    std::vector<Value> args; // including the two location args
};

/** Linker that records every hook invocation. */
Linker
recordingLinker(const StaticInfo &info, std::vector<HookCall> &calls)
{
    Linker linker;
    for (const HookSpec &spec : info.hooks) {
        std::string name = mangledName(spec);
        linker.func(core::kHookImportModule, name,
                    [&calls, name](Instance &, std::span<const Value> args,
                                   std::vector<Value> &) {
                        calls.push_back(
                            {name, {args.begin(), args.end()}});
                    });
    }
    return linker;
}

/** A small module exercising many instruction classes. */
wasm::Module
sampleModule()
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.table(2, 2);
    mb.global(ValType::I64, true, Value::makeI64(3));
    FuncType helper_t({ValType::I32}, {ValType::I32});
    uint32_t helper =
        mb.addFunction(helper_t, "", [](FunctionBuilder &f) {
            f.localGet(0).i32Const(1).op(Opcode::I32Add);
        });
    mb.elem(0, {helper, helper});
    FunctionBuilder fb =
        mb.startFunction(FuncType({ValType::I32}, {ValType::I32}), "main");
    uint32_t acc = fb.addLocal(ValType::I32);
    uint32_t i = fb.addLocal(ValType::I32);
    // Store the argument, load it back.
    fb.i32Const(8).localGet(0).i32Store();
    fb.i32Const(8).i32Load().localSet(acc);
    // Loop: acc = helper(acc) repeated 3 times (direct call).
    fb.forLoop(i, 0, 3, [&]() {
        fb.localGet(acc).call(helper).localSet(acc);
    });
    // Indirect call through the table.
    fb.localGet(acc).i32Const(1).callIndirect(mb.type(helper_t));
    fb.localSet(acc);
    // Global traffic with i64.
    fb.globalGet(0).i64Const(5).op(Opcode::I64Add).globalSet(0);
    // Some numeric/parametric mix.
    fb.f64Const(2.0).f64Const(3.0).op(Opcode::F64Mul).drop();
    fb.i32Const(10).i32Const(20).localGet(acc).i32Const(2);
    fb.op(Opcode::I32GeS).select().drop();
    // if/else on the accumulator.
    fb.localGet(acc).i32Const(100).op(Opcode::I32LtS);
    fb.if_(ValType::I32);
    fb.localGet(acc);
    fb.else_();
    fb.i32Const(-1);
    fb.end();
    fb.finish();
    return mb.build();
}

TEST(Instrument, EmptyHookSetLeavesBehaviorAndAddsNoImports)
{
    wasm::Module m = sampleModule();
    InstrumentResult r = instrument(m, HookSet::none());
    EXPECT_EQ(r.info->hooks.size(), 0u);
    EXPECT_EQ(r.module.numImportedFunctions(), 0u);
    EXPECT_EQ(validationError(r.module), std::nullopt);
}

TEST(Instrument, FullInstrumentationValidates)
{
    wasm::Module m = sampleModule();
    InstrumentResult r = instrument(m, HookSet::all());
    ASSERT_EQ(validationError(r.module), std::nullopt);
    EXPECT_GT(r.info->hooks.size(), 10u);
    // All hook imports precede everything and use the wasabi module.
    for (uint32_t h = 0; h < r.info->hooks.size(); ++h) {
        const wasm::Function &f =
            r.module.functions.at(r.info->hookFuncIdx(h));
        ASSERT_TRUE(f.imported());
        EXPECT_EQ(f.import->module, "wasabi");
    }
}

class SingleHookValidates
    : public ::testing::TestWithParam<HookKind> {};

TEST_P(SingleHookValidates, InstrumentedModuleIsValid)
{
    wasm::Module m = sampleModule();
    InstrumentResult r = instrument(m, HookSet::only(GetParam()));
    EXPECT_EQ(validationError(r.module), std::nullopt)
        << "hook: " << name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SingleHookValidates,
    ::testing::ValuesIn(figureOrderHookKinds()),
    [](const ::testing::TestParamInfo<HookKind> &info) {
        std::string n = name(info.param);
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

/** Run the sample module original vs. instrumented and compare. */
void
expectFaithful(HookSet hooks)
{
    wasm::Module m = sampleModule();
    auto orig_inst = Instance::instantiate(m, Linker());
    Interpreter interp1;
    std::vector<Value> args{Value::makeI32(7)};
    auto expected = interp1.invokeExport(*orig_inst, "main", args);

    InstrumentResult r = instrument(m, hooks);
    ASSERT_EQ(validationError(r.module), std::nullopt);
    auto inst = Instance::instantiate(r.module, noopLinker(*r.info));
    Interpreter interp2;
    auto actual = interp2.invokeExport(*inst, "main", args);
    EXPECT_EQ(expected, actual) << "hooks: " << hooks.toString();
}

TEST(Instrument, FaithfulUnderFullInstrumentation)
{
    expectFaithful(HookSet::all());
}

class SingleHookFaithful : public ::testing::TestWithParam<HookKind> {};

TEST_P(SingleHookFaithful, PreservesBehavior)
{
    expectFaithful(HookSet::only(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SingleHookFaithful,
    ::testing::ValuesIn(figureOrderHookKinds()),
    [](const ::testing::TestParamInfo<HookKind> &info) {
        return std::string(name(info.param));
    });

TEST(Instrument, ConstHookReceivesLocationAndValue)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Const));
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    interp.invokeExport(*inst, "f", {});
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].name, "i32.const");
    ASSERT_EQ(calls[0].args.size(), 3u);
    EXPECT_EQ(calls[0].args[0].i32(), 0u); // function index
    EXPECT_EQ(calls[0].args[1].i32(), 0u); // instruction index
    EXPECT_EQ(calls[0].args[2].i32(), 42u);
}

TEST(Instrument, BinaryHookReceivesOperandsAndResult)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) {
                       f.i32Const(30).i32Const(12).op(Opcode::I32Add);
                   });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Binary));
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    auto res = interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(res[0].i32(), 42u);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].name, "i32.add");
    ASSERT_EQ(calls[0].args.size(), 5u);
    EXPECT_EQ(calls[0].args[2].i32(), 30u);
    EXPECT_EQ(calls[0].args[3].i32(), 12u);
    EXPECT_EQ(calls[0].args[4].i32(), 42u);
}

TEST(Instrument, I64ValuesAreSplitIntoTwoI32s)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i64Const(static_cast<int64_t>(0x123456789ABCDEF0ull));
        f.drop();
    });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Drop));
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    interp.invokeExport(*inst, "f", {});
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].name, "drop_i64");
    ASSERT_EQ(calls[0].args.size(), 4u); // loc + (low, high)
    EXPECT_EQ(calls[0].args[2].i32(), 0x9ABCDEF0u);
    EXPECT_EQ(calls[0].args[3].i32(), 0x12345678u);
}

TEST(Instrument, NativeI64AbiWhenSplitDisabled)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i64Const(-1);
        f.drop();
    });
    InstrumentOptions opts;
    opts.splitI64 = false;
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Drop), opts);
    ASSERT_EQ(validationError(r.module), std::nullopt);
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    interp.invokeExport(*inst, "f", {});
    ASSERT_EQ(calls.size(), 1u);
    ASSERT_EQ(calls[0].args.size(), 3u);
    EXPECT_EQ(calls[0].args[2].i64(), 0xFFFFFFFFFFFFFFFFull);
}

TEST(Instrument, DropIsMonomorphizedByStackType)
{
    // Two drops with different incoming types must produce two
    // distinct monomorphic hooks (§2.4.3).
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(1).drop();
        f.f64Const(1.0).drop();
    });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Drop));
    std::vector<std::string> names;
    for (const HookSpec &s : r.info->hooks)
        names.push_back(mangledName(s));
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"drop_f64", "drop_i32"}));
}

TEST(Instrument, SelectHookReceivesConditionAndBothValues)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({ValType::I32}, {ValType::F64}), "f",
                   [](FunctionBuilder &f) {
                       f.f64Const(1.5).f64Const(2.5).localGet(0).select();
                   });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Select));
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    std::vector<Value> args{Value::makeI32(0)};
    auto res = interp.invokeExport(*inst, "f", args);
    EXPECT_EQ(res[0].f64(), 2.5);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].name, "select_f64");
    ASSERT_EQ(calls[0].args.size(), 5u);
    EXPECT_EQ(calls[0].args[2].i32(), 0u);  // condition
    EXPECT_EQ(calls[0].args[3].f64(), 1.5); // first
    EXPECT_EQ(calls[0].args[4].f64(), 2.5); // second
}

TEST(Instrument, CallHooksFireAroundTheCall)
{
    ModuleBuilder mb;
    uint32_t callee = mb.addFunction(
        FuncType({ValType::I32}, {ValType::I32}), "",
        [](FunctionBuilder &f) {
            f.localGet(0).i32Const(2).op(Opcode::I32Mul);
        });
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [&](FunctionBuilder &f) {
                       f.i32Const(21).call(callee);
                   });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Call));
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    auto res = interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(res[0].i32(), 42u);
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0].name, "call_pre_i32");
    EXPECT_EQ(calls[0].args[2].i32(), 21u);
    EXPECT_EQ(calls[1].name, "call_post_i32");
    EXPECT_EQ(calls[1].args[2].i32(), 42u);
}

TEST(Instrument, IndirectCallHookReceivesTableIndex)
{
    ModuleBuilder mb;
    mb.table(1, 1);
    FuncType t({}, {ValType::I32});
    uint32_t callee = mb.addFunction(t, "", [](FunctionBuilder &f) {
        f.i32Const(9);
    });
    mb.elem(0, {callee});
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [&](FunctionBuilder &f) {
                       f.i32Const(0);
                       f.callIndirect(mb.type(t));
                   });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Call));
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    auto res = interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(res[0].i32(), 9u);
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0].name, "call_pre_indirect");
    EXPECT_EQ(calls[0].args[2].i32(), 0u); // runtime table index
}

TEST(Instrument, BranchTargetsAreResolvedStatically)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}), "f");
    fb.block();       // @0
    fb.loop();        // @1
    fb.i32Const(0);   // @2
    fb.brIf(1);       // @3  -> forward, to after the block's end
    fb.br(0);         // @4  -> backward, to loop start
    fb.end();         // @5
    fb.end();         // @6
    fb.finish();      // @7 (function end)
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Br));
    // br_if @3 targets label 1 = the block -> next instr after end @6.
    auto it = r.info->brTargets.find(packLoc({0, 3}));
    ASSERT_NE(it, r.info->brTargets.end());
    EXPECT_EQ(it->second.label, 1u);
    EXPECT_EQ(it->second.location.instr, 7u);
    // br @4 targets label 0 = the loop -> first instr inside loop @2.
    it = r.info->brTargets.find(packLoc({0, 4}));
    ASSERT_NE(it, r.info->brTargets.end());
    EXPECT_EQ(it->second.label, 0u);
    EXPECT_EQ(it->second.location.instr, 2u);
}

TEST(Instrument, EndHooksFireForBranchTraversedBlocks)
{
    // br 1 out of two nested blocks must fire end hooks for both.
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.block();
        f.block();
        f.br(1);
        f.end();
        f.end();
    });
    InstrumentResult r =
        instrument(mb.build(), HookSet{HookKind::End});
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    interp.invokeExport(*inst, "f", {});
    // Two ends from the branch + the function end; the blocks' own
    // end hooks are skipped by the jump.
    ASSERT_EQ(calls.size(), 3u);
    EXPECT_EQ(calls[0].name, "end_block"); // inner
    EXPECT_EQ(calls[1].name, "end_block"); // outer
    EXPECT_EQ(calls[2].name, "end_function");
}

TEST(Instrument, BrIfEndHooksOnlyWhenTaken)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({ValType::I32}, {}), "f",
                   [](FunctionBuilder &f) {
                       f.block();
                       f.localGet(0);
                       f.brIf(0);
                       f.end();
                   });
    InstrumentResult r = instrument(mb.build(), HookSet{HookKind::End});
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;

    std::vector<Value> taken{Value::makeI32(1)};
    interp.invokeExport(*inst, "f", taken);
    // Branch taken: block end (from branch) + function end.
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0].name, "end_block");

    calls.clear();
    std::vector<Value> not_taken{Value::makeI32(0)};
    interp.invokeExport(*inst, "f", not_taken);
    // Not taken: block end fires at the end instruction instead.
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0].name, "end_block");
}

TEST(Instrument, BeginHooksFirePerLoopIteration)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t i = f.addLocal(ValType::I32);
        f.forLoop(i, 0, 3, []() {});
    });
    InstrumentResult r =
        instrument(mb.build(), HookSet{HookKind::Begin});
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    interp.invokeExport(*inst, "f", {});
    int loop_begins = 0;
    int fn_begins = 0;
    for (const HookCall &c : calls) {
        if (c.name == "begin_loop")
            ++loop_begins;
        if (c.name == "begin_function")
            ++fn_begins;
    }
    // forLoop iterates 4 times through the loop header (3 body
    // iterations + the final check that exits).
    EXPECT_EQ(loop_begins, 4);
    EXPECT_EQ(fn_begins, 1);
}

TEST(Instrument, OriginalImportsKeepTheirIndices)
{
    ModuleBuilder mb;
    uint32_t imp = mb.importFunction("env", "ext", FuncType({}, {}));
    mb.addFunction(FuncType({}, {}), "f", [&](FunctionBuilder &f) {
        f.call(imp);
    });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::Call));
    ASSERT_EQ(validationError(r.module), std::nullopt);
    // env.ext must still be function 0; hooks follow.
    EXPECT_EQ(r.module.functions[0].import->module, "env");
    // Run it: both hook imports and the original import resolve.
    std::vector<HookCall> calls;
    Linker linker = recordingLinker(*r.info, calls);
    int ext_calls = 0;
    linker.func("env", "ext",
                [&](Instance &, std::span<const Value>,
                    std::vector<Value> &) { ++ext_calls; });
    auto inst = Instance::instantiate(r.module, linker);
    Interpreter interp;
    interp.invokeExport(*inst, "f", {});
    EXPECT_EQ(ext_calls, 1);
    ASSERT_EQ(calls.size(), 2u); // pre + post
}

TEST(Instrument, StartFunctionIndexIsRemapped)
{
    ModuleBuilder mb;
    mb.global(ValType::I32, true, Value::makeI32(0));
    uint32_t s = mb.addFunction(FuncType({}, {}), "",
                                [](FunctionBuilder &f) {
                                    f.i32Const(1);
                                    f.globalSet(0);
                                });
    mb.start(s);
    InstrumentResult r = instrument(mb.build(), HookSet::all());
    ASSERT_EQ(validationError(r.module), std::nullopt);
    auto inst = Instance::instantiate(r.module, noopLinker(*r.info));
    EXPECT_EQ(inst->globalGet(0).i32(), 1u);
}

TEST(Instrument, BrTableSideTableIsRecorded)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({ValType::I32}, {}), "f",
                   [](FunctionBuilder &f) {
                       f.block(); // label 1
                       f.block(); // label 0
                       f.localGet(0);
                       f.brTable({0}, 1); // @3
                       f.end();
                       f.end();
                   });
    InstrumentResult r =
        instrument(mb.build(), HookSet::only(HookKind::BrTable));
    auto it = r.info->brTables.find(packLoc({0, 3}));
    ASSERT_NE(it, r.info->brTables.end());
    ASSERT_EQ(it->second.cases.size(), 1u);
    EXPECT_EQ(it->second.cases[0].target.label, 0u);
    EXPECT_EQ(it->second.cases[0].ended.size(), 1u);
    EXPECT_EQ(it->second.defaultCase.target.label, 1u);
    EXPECT_EQ(it->second.defaultCase.ended.size(), 2u);
}

TEST(Instrument, ParallelInstrumentationMatchesSequentialBehavior)
{
    // Hook ids are numbered in first-use order whatever the schedule,
    // so every thread count gives the sequential output, byte for
    // byte, with the same hook order. 0 is one worker per CPU.
    for (const wasm::Module &m :
         {sampleModule(),
          workloads::syntheticApp(workloads::AppSize::Small).module}) {
        InstrumentResult rs = instrument(m, HookSet::all());
        std::vector<uint8_t> bytes = encodeModule(rs.module);
        for (unsigned threads : {2u, 4u, 8u, 0u}) {
            InstrumentOptions par;
            par.numThreads = threads;
            InstrumentResult rp = instrument(m, HookSet::all(), par);
            ASSERT_EQ(validationError(rp.module), std::nullopt);
            EXPECT_EQ(encodeModule(rp.module), bytes)
                << threads << " threads";
            ASSERT_EQ(rp.info->hooks.size(), rs.info->hooks.size());
            for (size_t h = 0; h < rs.info->hooks.size(); ++h)
                EXPECT_EQ(mangledName(rp.info->hooks[h]),
                          mangledName(rs.info->hooks[h]))
                    << threads << " threads, hook " << h;
        }
    }
    // And behavior matches the original.
    wasm::Module m = sampleModule();
    InstrumentOptions par;
    par.numThreads = 4;
    InstrumentResult rp = instrument(m, HookSet::all(), par);
    auto inst = Instance::instantiate(rp.module, noopLinker(*rp.info));
    Interpreter interp;
    std::vector<Value> args{Value::makeI32(7)};
    auto res = interp.invokeExport(*inst, "main", args);
    auto orig_inst = Instance::instantiate(m, Linker());
    Interpreter interp2;
    EXPECT_EQ(res, interp2.invokeExport(*orig_inst, "main", args));
}

TEST(Instrument, UnreachableCodeIsCopiedVerbatim)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) {
                       f.i32Const(5);
                       f.ret();
                       f.drop(); // dead, polymorphic
                       f.i32Const(1);
                   });
    InstrumentResult r = instrument(mb.build(), HookSet::all());
    ASSERT_EQ(validationError(r.module), std::nullopt);
    auto inst = Instance::instantiate(r.module, noopLinker(*r.info));
    Interpreter interp;
    EXPECT_EQ(interp.invokeExport(*inst, "f", {})[0].i32(), 5u);
}

TEST(Instrument, ElseAfterDeadThenBranchStillBeginsElse)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) {
                       f.localGet(0);
                       f.if_(ValType::I32);
                       f.i32Const(1);
                       f.ret(); // then-branch ends dead
                       f.else_();
                       f.i32Const(2);
                       f.end();
                   });
    InstrumentResult r = instrument(mb.build(), HookSet::all());
    ASSERT_EQ(validationError(r.module), std::nullopt);
    std::vector<HookCall> calls;
    auto inst =
        Instance::instantiate(r.module, recordingLinker(*r.info, calls));
    Interpreter interp;
    std::vector<Value> zero{Value::makeI32(0)};
    EXPECT_EQ(interp.invokeExport(*inst, "f", zero)[0].i32(), 2u);
    bool saw_begin_else = false;
    for (const HookCall &c : calls)
        saw_begin_else |= c.name == "begin_else";
    EXPECT_TRUE(saw_begin_else);
}

TEST(Instrument, MemoryBehaviorIsUntouched)
{
    // The instrumented program's final memory must be byte-identical:
    // inserted code only uses fresh locals (paper §1, "preserves its
    // memory behavior").
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        uint32_t i = f.addLocal(ValType::I32);
        f.forLoop(i, 0, 64, [&]() {
            f.localGet(i).i32Const(4).op(Opcode::I32Mul);
            f.localGet(i).localGet(i).op(Opcode::I32Mul);
            f.i32Store();
        });
    });
    wasm::Module m = mb.build();
    auto orig = Instance::instantiate(m, Linker());
    Interpreter i1;
    i1.invokeExport(*orig, "f", {});

    InstrumentResult r = instrument(m, HookSet::all());
    auto inst = Instance::instantiate(r.module, noopLinker(*r.info));
    Interpreter i2;
    i2.invokeExport(*inst, "f", {});

    EXPECT_EQ(orig->memory().raw(), inst->memory().raw());
}

// ----- the byte entry (instrumentToBytes) ------------------------------

/** The hook sets of the byte-identity gates. */
std::vector<HookSet>
gateHookSets()
{
    return {HookSet::all(), HookSet{HookKind::Call},
            HookSet{HookKind::Load, HookKind::Store},
            HookSet{HookKind::Br, HookKind::BrIf, HookKind::BrTable,
                    HookKind::End}};
}

InstrumentedBinary
toBytes(const wasm::Module &m, HookSet hooks,
        const InstrumentOptions &opts = {})
{
    return instrumentToBytes(std::make_shared<const wasm::Module>(m), hooks,
                             opts);
}

/** The bytes decode, validate and encode back to the same bytes. */
void
expectCanonicalBinary(const wasm::Module &m, const std::string &what)
{
    for (HookSet hooks : gateHookSets()) {
        std::vector<uint8_t> bytes = toBytes(m, hooks).bytes;
        wasm::Module decoded = wasm::decodeModule(bytes);
        ASSERT_EQ(validationError(decoded), std::nullopt)
            << what << ", hooks " << hooks.toString();
        EXPECT_EQ(encodeModule(decoded), bytes)
            << what << ", hooks " << hooks.toString();
    }
}

TEST(InstrumentBytes, DecodeValidateAndReencodeIdentically)
{
    for (const std::string &k : workloads::polybenchNames())
        expectCanonicalBinary(workloads::polybench(k, 8).module, k);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        expectCanonicalBinary(workloads::randomProgram(opts).module,
                              "random:" + std::to_string(seed));
    }
    expectCanonicalBinary(
        workloads::syntheticApp(workloads::AppSize::Small).module,
        "app:small");
}

TEST(InstrumentBytes, ThreadCountsGiveEqualBytes)
{
    workloads::RandomProgramOptions rp;
    rp.seed = 3;
    for (const wasm::Module &m :
         {workloads::syntheticApp(workloads::AppSize::Small).module,
          workloads::randomProgram(rp).module}) {
        for (HookSet hooks : gateHookSets()) {
            std::vector<uint8_t> serial = toBytes(m, hooks).bytes;
            for (unsigned threads : {2u, 4u, 8u}) {
                InstrumentOptions opts;
                opts.numThreads = threads;
                EXPECT_EQ(toBytes(m, hooks, opts).bytes, serial)
                    << threads << " threads, hooks " << hooks.toString();
            }
        }
    }
}

TEST(InstrumentBytes, DecodeWrapperMatchesBytes)
{
    wasm::Module m = sampleModule();
    for (HookSet hooks : gateHookSets()) {
        InstrumentedBinary b = toBytes(m, hooks);
        InstrumentResult r = instrument(m, hooks);
        EXPECT_EQ(encodeModule(r.module), b.bytes) << hooks.toString();
        EXPECT_EQ(r.info->hooks, b.info->hooks) << hooks.toString();
    }
}

TEST(InstrumentBytes, ByteEntryBuildsNoSideTables)
{
    // Only readers build side tables: the byte entry leaves them empty,
    // the decode wrapper fills them, equal to the standalone builder's.
    workloads::RandomProgramOptions rp;
    rp.seed = 3;
    for (const wasm::Module &m :
         {sampleModule(), workloads::randomProgram(rp).module,
          workloads::syntheticApp(workloads::AppSize::Small).module}) {
        const SideTables expected = sideTables(m, 1);
        EXPECT_FALSE(expected.brTargets.empty());
        EXPECT_FALSE(expected.blockEnds.empty());
        for (HookSet hooks : gateHookSets()) {
            InstrumentedBinary b = toBytes(m, hooks);
            EXPECT_TRUE(b.info->brTargets.empty()) << hooks.toString();
            EXPECT_TRUE(b.info->brTables.empty()) << hooks.toString();
            EXPECT_TRUE(b.info->blockEnds.empty()) << hooks.toString();
            InstrumentResult r = instrument(m, hooks);
            EXPECT_TRUE(static_cast<const SideTables &>(*r.info) ==
                        expected)
                << hooks.toString();
        }
    }
}

TEST(InstrumentBytes, StaticInfoSharesTheCallersModule)
{
    auto m = std::make_shared<const wasm::Module>(sampleModule());
    InstrumentedBinary r = instrumentToBytes(m, HookSet::all());
    EXPECT_EQ(r.info->original.get(), m.get());
    EXPECT_EQ(m.use_count(), 2);
}

/**
 * A module of 16383 functions, indices 0..16382: every function
 * index fits the LEB width it has, but hook imports shift the ones
 * just below 128 and 16384 past the boundary, so their call
 * immediates grow a byte in the output. main (index 0) threads its
 * argument through every function; the odd ones call an even one
 * from the other end of the index space, across both boundaries.
 */
wasm::Module
lebBoundaryModule()
{
    constexpr uint32_t kFuncs = 16383;
    FuncType unary({ValType::I32}, {ValType::I32});
    ModuleBuilder mb;
    mb.addFunction(unary, "main", [&](FunctionBuilder &f) {
        f.localGet(0);
        for (uint32_t j = 1; j < kFuncs; ++j)
            f.call(j);
    });
    for (uint32_t j = 1; j < kFuncs; ++j) {
        mb.addFunction(unary, "", [&](FunctionBuilder &f) {
            f.localGet(0).i32Const(static_cast<int32_t>(j));
            if (j % 2 == 1) {
                f.op(Opcode::I32Add).call(kFuncs - j);
                f.i32Const(static_cast<int32_t>(j)).op(Opcode::I32Xor);
            } else {
                f.i32Const(3).op(Opcode::I32Mul).op(Opcode::I32Add);
            }
        });
    }
    return mb.build();
}

TEST(InstrumentBytes, CallIndicesWidenAcrossLebBoundaries)
{
    wasm::Module m = lebBoundaryModule();
    ASSERT_EQ(m.numFunctions(), 16383u);
    ASSERT_EQ(validationError(m), std::nullopt);
    std::vector<Value> args{Value::makeI32(7)};
    std::vector<Value> expected;
    {
        auto inst = Instance::instantiate(m, Linker());
        Interpreter interp;
        expected = interp.invokeExport(*inst, "main", args);
    }
    for (HookSet hooks : {HookSet::all(), HookSet{HookKind::Call}}) {
        InstrumentResult r = instrument(m, hooks);
        ASSERT_GE(r.info->hooks.size(), 2u);
        ASSERT_EQ(validationError(r.module), std::nullopt);
        // The output calls the shifted indices, widened or not.
        const uint32_t shift = static_cast<uint32_t>(r.info->hooks.size());
        const wasm::Function &main_out = r.module.functions.at(shift);
        std::vector<uint32_t> direct;
        for (const wasm::Instr &in : main_out.body) {
            if (in.op == Opcode::Call && in.imm.idx >= shift)
                direct.push_back(in.imm.idx);
        }
        ASSERT_EQ(direct.size(), 16382u);
        for (uint32_t j = 1; j < 16383; ++j)
            ASSERT_EQ(direct[j - 1], j + shift);
        for (interp::EngineKind engine :
             {interp::EngineKind::Legacy, interp::EngineKind::Fast}) {
            auto inst =
                Instance::instantiate(r.module, noopLinker(*r.info));
            Interpreter interp;
            interp.engine = engine;
            EXPECT_EQ(interp.invokeExport(*inst, "main", args), expected)
                << hooks.toString();
        }
    }
}

TEST(InstrumentBytes, ServeWritesTheSameBytesAsTheByteEntry)
{
    const std::string base = testing::TempDir() + "instrument_" +
                             std::to_string(::getpid());
    const std::string in = base + "_in.wasm", out = base + "_out.wasm";
    wasm::Module app =
        workloads::syntheticApp(workloads::AppSize::Small).module;
    support::writeBinaryFile(in, encodeModule(app));
    serve::Server server;
    auto reply = server.handle("{\"op\": \"instrument\", \"module\": \"" +
                               in + "\", \"out\": \"" + out +
                               "\", \"hooks\": \"all\"}");
    EXPECT_NE(reply.response.find("\"ok\": true"), std::string::npos)
        << reply.response;
    auto loaded = std::make_shared<const wasm::Module>(
        support::loadModuleFromFile(in));
    EXPECT_EQ(support::readBinaryFile(out),
              instrumentToBytes(loaded, HookSet::all()).bytes);
    std::remove(in.c_str());
    std::remove(out.c_str());
}

} // namespace
} // namespace wasabi::core
