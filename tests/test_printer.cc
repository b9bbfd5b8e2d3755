/**
 * @file
 * Tests for the WAT-style printer.
 */

#include <gtest/gtest.h>

#include "wasm/builder.h"
#include "wasm/printer.h"

namespace wasabi::wasm {
namespace {

TEST(Printer, RendersInstructions)
{
    EXPECT_EQ(toString(Instr::i32Const(42)), "i32.const 42");
    EXPECT_EQ(toString(Instr::i32Const(static_cast<uint32_t>(-1))),
              "i32.const -1");
    EXPECT_EQ(toString(Instr::i64Const(1234567890123)),
              "i64.const 1234567890123");
    EXPECT_EQ(toString(Instr::f64Const(2.5)), "f64.const 2.5");
    EXPECT_EQ(toString(Instr::localGet(3)), "local.get 3");
    EXPECT_EQ(toString(Instr::call(7)), "call 7");
    EXPECT_EQ(toString(Instr::callIndirect(2)),
              "call_indirect (type 2)");
    EXPECT_EQ(toString(Instr::br(1)), "br 1");
    // A br_table prints the labels its slice of the pool holds.
    std::vector<uint32_t> pool = {9};
    const uint32_t targets[] = {0, 1};
    Instr table = Instr::brTable(pool, targets, 2);
    EXPECT_EQ(toString(table, pool), "br_table 0 1 2");
    EXPECT_EQ(toString(Instr(Opcode::I32Add)), "i32.add");
    EXPECT_EQ(toString(Instr::memOp(Opcode::I32Load, 2, 8)),
              "i32.load offset=8 align=4");
    EXPECT_EQ(toString(Instr::memOp(Opcode::I32Load, 0, 0)), "i32.load");
    EXPECT_EQ(toString(Instr::blockStart(Opcode::Block, ValType::I32)),
              "block (result i32)");
    EXPECT_EQ(toString(Instr::blockStart(Opcode::Loop, std::nullopt)),
              "loop");
}

TEST(Printer, RendersModuleStructure)
{
    ModuleBuilder mb;
    mb.memory(2, 4);
    mb.global(ValType::I32, true, Value::makeI32(0));
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "double",
                   [](FunctionBuilder &f) {
                       f.localGet(0).i32Const(2).op(Opcode::I32Mul);
                   });
    std::string text = toString(mb.build());
    EXPECT_NE(text.find("(module"), std::string::npos);
    EXPECT_NE(text.find("(memory 2 4)"), std::string::npos);
    EXPECT_NE(text.find("(export \"double\")"), std::string::npos);
    EXPECT_NE(text.find("i32.mul"), std::string::npos);
    EXPECT_NE(text.find("[i32] -> [i32]"), std::string::npos);
}

TEST(Printer, IndentsNestedBlocks)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.block();
        f.loop();
        f.nop();
        f.end();
        f.end();
    });
    std::string text = toString(mb.build(), 0);
    // The nop sits two block levels deep -> indented further than the
    // block itself.
    size_t block_pos = text.find("block");
    size_t nop_pos = text.find("nop");
    ASSERT_NE(block_pos, std::string::npos);
    ASSERT_NE(nop_pos, std::string::npos);
    size_t block_col = block_pos - text.rfind('\n', block_pos) - 1;
    size_t nop_col = nop_pos - text.rfind('\n', nop_pos) - 1;
    EXPECT_GT(nop_col, block_col);
}

TEST(Printer, MarksImportedFunctions)
{
    ModuleBuilder mb;
    mb.importFunction("env", "ext", FuncType({}, {}));
    std::string text = toString(mb.build());
    EXPECT_NE(text.find("(import \"env\" \"ext\")"), std::string::npos);
}

TEST(Printer, ShowsInstructionIndices)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.nop();
        f.nop();
    });
    std::string text = toString(mb.build(), 0);
    EXPECT_NE(text.find(";; @0"), std::string::npos);
    EXPECT_NE(text.find(";; @1"), std::string::npos);
}

} // namespace
} // namespace wasabi::wasm
