/**
 * @file
 * Validator tests: type checking, control flow, unreachable-code
 * polymorphism, and module-level invariants.
 */

#include <gtest/gtest.h>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/validator.h"

namespace wasabi::wasm {
namespace {

Module
funcModule(const FuncType &type,
           const std::function<void(FunctionBuilder &)> &fill,
           bool with_memory = false)
{
    ModuleBuilder mb;
    if (with_memory)
        mb.memory(1);
    mb.addFunction(type, "f", fill);
    return mb.build();
}

TEST(Validator, AcceptsSimpleArithmetic)
{
    Module m = funcModule(FuncType({ValType::I32, ValType::I32},
                                   {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.localGet(0).localGet(1).op(Opcode::I32Add);
                          });
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, RejectsTypeMismatch)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.f32Const(1.0f);
                              f.i32Const(1);
                              f.op(Opcode::I32Add);
                          });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, RejectsStackUnderflow)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.i32Const(1);
                              f.op(Opcode::I32Add);
                          });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, RejectsMissingResult)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &) {});
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, RejectsExtraResult)
{
    Module m = funcModule(FuncType({}, {}), [](FunctionBuilder &f) {
        f.i32Const(1);
    });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, BlockWithResult)
{
    Module m = funcModule(FuncType({}, {ValType::F64}),
                          [](FunctionBuilder &f) {
                              f.block(ValType::F64);
                              f.f64Const(2.5);
                              f.end();
                          });
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, BranchToBlockChecksResultTypes)
{
    // br 0 must provide the block's result type.
    Module good = funcModule(FuncType({}, {ValType::I32}),
                             [](FunctionBuilder &f) {
                                 f.block(ValType::I32);
                                 f.i32Const(1);
                                 f.br(0);
                                 f.end();
                             });
    EXPECT_EQ(validationError(good), std::nullopt);

    Module bad = funcModule(FuncType({}, {ValType::I32}),
                            [](FunctionBuilder &f) {
                                f.block(ValType::I32);
                                f.f64Const(1.0);
                                f.br(0);
                                f.end();
                            });
    EXPECT_NE(validationError(bad), std::nullopt);
}

TEST(Validator, LoopLabelHasStartTypes)
{
    // A branch to a loop jumps to its beginning and therefore needs
    // no result value even if the loop has one.
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.loop(ValType::I32);
                              f.i32Const(0);
                              f.brIf(0); // pops the i32 condition only
                              f.i32Const(7);
                              f.end();
                          });
    // The br_if condition consumes the const; then 7 is the result.
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, UnreachableCodeIsPolymorphic)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.unreachable();
                              // Stack-polymorphic: this drop and add
                              // consume "unknown" values.
                              f.drop();
                              f.op(Opcode::I32Add);
                          });
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, CodeAfterBrIsUnreachable)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.block();
                              f.br(0);
                              f.op(Opcode::F64Mul); // unreachable, ok
                              f.drop();
                              f.end();
                              f.i32Const(1);
                          });
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, IfRequiresCondition)
{
    Module m = funcModule(FuncType({}, {}), [](FunctionBuilder &f) {
        f.if_();
        f.end();
    });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, IfElseWithResult)
{
    Module m = funcModule(FuncType({ValType::I32}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.localGet(0);
                              f.if_(ValType::I32);
                              f.i32Const(1);
                              f.else_();
                              f.i32Const(2);
                              f.end();
                          });
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, IfWithResultWithoutElseRejected)
{
    Module m = funcModule(FuncType({ValType::I32}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.localGet(0);
                              f.if_(ValType::I32);
                              f.i32Const(1);
                              f.end();
                          });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, ElseWithoutIfRejected)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}), "f");
    fb.emit(Instr(Opcode::Else));
    fb.finish();
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, BrLabelOutOfRangeRejected)
{
    Module m = funcModule(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block();
        f.br(5);
        f.end();
    });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, BrTableInconsistentTypesRejected)
{
    Module m = funcModule(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block(ValType::I32); // label 1 expects i32
        f.block();             // label 0 expects nothing
        f.i32Const(0);
        f.brTable({0}, 1);
        f.end();
        f.i32Const(1);
        f.end();
        f.drop();
    });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, SelectRequiresMatchingTypes)
{
    Module bad = funcModule(FuncType({}, {}), [](FunctionBuilder &f) {
        f.i32Const(1);
        f.f64Const(2.0);
        f.i32Const(0);
        f.select();
        f.drop();
    });
    EXPECT_NE(validationError(bad), std::nullopt);

    Module good = funcModule(FuncType({}, {ValType::F64}),
                             [](FunctionBuilder &f) {
                                 f.f64Const(1.0);
                                 f.f64Const(2.0);
                                 f.i32Const(0);
                                 f.select();
                             });
    EXPECT_EQ(validationError(good), std::nullopt);
}

TEST(Validator, LocalIndexOutOfRangeRejected)
{
    Module m = funcModule(FuncType({}, {}), [](FunctionBuilder &f) {
        f.localGet(3);
        f.drop();
    });
    EXPECT_NE(validationError(m), std::nullopt);
}

TEST(Validator, LocalsOverTheDecoderCapRejected)
{
    // The decoder rejects a binary declaring more than kMaxLocals
    // locals; a module built in memory must fail validation there
    // too, or it would encode to a binary that no command can load.
    Module m = funcModule(FuncType({}, {}), [](FunctionBuilder &) {});
    m.functions[0].locals.assign(kMaxLocals, ValType::I32);
    EXPECT_EQ(validationError(m), std::nullopt);
    m.functions[0].locals.push_back(ValType::I64);
    std::optional<std::string> err = validationError(m);
    ASSERT_NE(err, std::nullopt);
    EXPECT_NE(err->find("too many locals"), std::string::npos) << *err;
    EXPECT_THROW(decodeModule(encodeModule(m)), DecodeError);
}

TEST(Validator, GlobalSetOfImmutableRejected)
{
    ModuleBuilder mb;
    mb.global(ValType::I32, false, Value::makeI32(0));
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.i32Const(1);
        f.globalSet(0);
    });
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, MemoryOpsRequireMemory)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.i32Const(0);
                              f.i32Load();
                          });
    EXPECT_NE(validationError(m), std::nullopt);

    Module with_mem = funcModule(FuncType({}, {ValType::I32}),
                                 [](FunctionBuilder &f) {
                                     f.i32Const(0);
                                     f.i32Load();
                                 },
                                 /*with_memory=*/true);
    EXPECT_EQ(validationError(with_mem), std::nullopt);
}

TEST(Validator, OverAlignedAccessRejected)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.i32Const(0);
                              f.load(Opcode::I32Load, 0, 3); // 2^3 > 4
                          },
                          true);
    EXPECT_NE(validationError(m), std::nullopt);

    Module narrow = funcModule(FuncType({}, {ValType::I32}),
                               [](FunctionBuilder &f) {
                                   f.i32Const(0);
                                   f.load(Opcode::I32Load8U, 0, 1);
                               },
                               true);
    EXPECT_NE(validationError(narrow), std::nullopt);
}

TEST(Validator, CallArgumentMismatchRejected)
{
    ModuleBuilder mb;
    uint32_t callee = mb.addFunction(FuncType({ValType::I64}, {}), "",
                                     [](FunctionBuilder &f) {
                                         f.localGet(0);
                                         f.drop();
                                     });
    mb.addFunction(FuncType({}, {}), "f", [&](FunctionBuilder &f) {
        f.i32Const(1); // wrong: callee wants i64
        f.call(callee);
    });
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, CallIndirectRequiresTable)
{
    ModuleBuilder mb;
    FuncType t({}, {});
    uint32_t ti = mb.type(t);
    mb.addFunction(t, "f", [&](FunctionBuilder &f) {
        f.i32Const(0);
        f.callIndirect(ti);
    });
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, StartFunctionMustBeNullary)
{
    ModuleBuilder mb;
    uint32_t f = mb.addFunction(FuncType({ValType::I32}, {}), "",
                                [](FunctionBuilder &) {});
    mb.start(f);
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, MultipleMemoriesRejected)
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.memory(1);
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, ElementSegmentFunctionOutOfRange)
{
    ModuleBuilder mb;
    mb.table(2);
    mb.elem(0, {42});
    EXPECT_NE(validationError(mb.build()), std::nullopt);
}

TEST(Validator, ReturnInsideBlock)
{
    Module m = funcModule(FuncType({}, {ValType::I32}),
                          [](FunctionBuilder &f) {
                              f.block();
                              f.i32Const(3);
                              f.ret();
                              f.end();
                              f.i32Const(4);
                          });
    EXPECT_EQ(validationError(m), std::nullopt);
}

TEST(Validator, TeeKeepsValueOnStack)
{
    ModuleBuilder mb;
    FunctionBuilder fb =
        mb.startFunction(FuncType({}, {ValType::I32}), "f");
    uint32_t l = fb.addLocal(ValType::I32);
    fb.i32Const(9);
    fb.localTee(l);
    fb.finish();
    EXPECT_EQ(validationError(mb.build()), std::nullopt);
}

} // namespace
} // namespace wasabi::wasm
