/**
 * @file
 * Tests for the ModuleBuilder / FunctionBuilder DSL.
 */

#include <gtest/gtest.h>

#include "wasm/builder.h"
#include "wasm/validator.h"

namespace wasabi::wasm {
namespace {

TEST(Builder, BuildsMinimalValidModule)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "answer",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    Module m = mb.build();
    EXPECT_EQ(m.functions.size(), 1u);
    EXPECT_EQ(m.functions[0].body.size(), 2u); // const + end
    EXPECT_EQ(m.functions[0].body.back().op, Opcode::End);
    EXPECT_EQ(validationError(m), std::nullopt);
    EXPECT_EQ(m.findFuncExport("answer"), 0u);
}

TEST(Builder, EachFunctionHasItsOwnLabelPool)
{
    ModuleBuilder mb;
    FuncType t({ValType::I32}, {});
    mb.addFunction(t, "a", [](FunctionBuilder &f) {
        f.block().block();
        f.localGet(0).brTable({1, 0}, 1);
        f.end().end();
    });
    mb.addFunction(t, "b", [](FunctionBuilder &f) {
        f.block();
        f.localGet(0).brTable({}, 0);
        f.end();
        f.block();
        f.localGet(0).brTable({0, 0, 0}, 0);
        f.end();
    });
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    EXPECT_EQ(m.functions[0].labelPool, (std::vector<uint32_t>{1, 0, 1}));
    EXPECT_EQ(m.functions[1].labelPool,
              (std::vector<uint32_t>{0, 0, 0, 0, 0}));
    // b's first table starts its own pool at 0, not after a's labels.
    const Instr &b0 = m.functions[1].body[2];
    const Instr &b1 = m.functions[1].body[6];
    ASSERT_EQ(b0.op, Opcode::BrTable);
    ASSERT_EQ(b1.op, Opcode::BrTable);
    EXPECT_EQ(b0.aux, 0u);
    EXPECT_EQ(m.functions[1].labels(b0).size(), 1u);
    EXPECT_EQ(b1.aux, 1u);
    EXPECT_EQ(m.functions[1].labels(b1).size(), 4u);
    const Instr &a0 = m.functions[0].body[3];
    ASSERT_EQ(a0.op, Opcode::BrTable);
    std::span<const uint32_t> a_labels = m.functions[0].labels(a0);
    EXPECT_EQ(std::vector<uint32_t>(a_labels.begin(), a_labels.end()),
              (std::vector<uint32_t>{1, 0, 1}));
}

TEST(Builder, DeduplicatesTypes)
{
    ModuleBuilder mb;
    FuncType t({ValType::I32}, {ValType::I32});
    mb.addFunction(t, "a", [](FunctionBuilder &f) { f.localGet(0); });
    mb.addFunction(t, "b", [](FunctionBuilder &f) { f.localGet(0); });
    Module m = mb.build();
    EXPECT_EQ(m.types.size(), 1u);
}

TEST(Builder, LocalsAreNumberedAfterParams)
{
    ModuleBuilder mb;
    FunctionBuilder fb =
        mb.startFunction(FuncType({ValType::I32, ValType::F64}, {}));
    uint32_t l0 = fb.addLocal(ValType::I64);
    uint32_t l1 = fb.addLocal(ValType::F32);
    EXPECT_EQ(l0, 2u);
    EXPECT_EQ(l1, 3u);
    fb.finish();
}

TEST(Builder, UnbalancedBlocksThrow)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}));
    fb.block();
    EXPECT_THROW(fb.finish(), std::logic_error);
}

TEST(Builder, ExtraEndThrows)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}));
    EXPECT_THROW(fb.end(), std::logic_error);
    fb.finish();
}

TEST(Builder, ImportAfterDefinedFunctionThrows)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &) {});
    EXPECT_THROW(mb.importFunction("env", "g", FuncType({}, {})),
                 std::logic_error);
}

TEST(Builder, ForLoopSumsCorrectStructure)
{
    ModuleBuilder mb;
    FunctionBuilder fb =
        mb.startFunction(FuncType({}, {ValType::I32}), "sum");
    uint32_t i = fb.addLocal(ValType::I32);
    uint32_t acc = fb.addLocal(ValType::I32);
    fb.forLoop(i, 0, 10, [&]() {
        fb.localGet(acc).localGet(i).op(Opcode::I32Add).localSet(acc);
    });
    fb.localGet(acc);
    fb.finish();
    Module m = mb.build();
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Builder, GlobalsTablesMemoriesValidate)
{
    ModuleBuilder mb;
    mb.memory(1, 2, "mem");
    mb.table(4, 4);
    mb.global(ValType::F64, true, Value::makeF64(1.5), "g");
    uint32_t f = mb.addFunction(FuncType({}, {}), "f",
                                [](FunctionBuilder &) {});
    mb.elem(0, {f, f});
    mb.data(16, {1, 2, 3});
    Module m = mb.build();
    EXPECT_EQ(validationError(m), std::nullopt);
    EXPECT_EQ(m.globals[0].init[0].op, Opcode::F64Const);
}

TEST(Builder, StartFunctionIsRecorded)
{
    ModuleBuilder mb;
    uint32_t f = mb.addFunction(FuncType({}, {}), "",
                                [](FunctionBuilder &) {});
    mb.start(f);
    Module m = mb.build();
    ASSERT_TRUE(m.start.has_value());
    EXPECT_EQ(*m.start, f);
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Builder, TwoOpenFunctionsThrow)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}));
    EXPECT_THROW(mb.startFunction(FuncType({}, {})), std::logic_error);
    fb.finish();
}

} // namespace
} // namespace wasabi::wasm
