/**
 * @file
 * Tests for the WAT text-format parser: modules, functions with named
 * params/locals, flat and folded instruction forms, labels, imports,
 * exports, memories/tables/globals/segments, numbers, and errors.
 * Parsed modules must validate and execute correctly.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "interp/interpreter.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"

namespace wasabi::wasm {
namespace {

using interp::Instance;
using interp::Interpreter;
using interp::Linker;

Module
parseValid(const std::string &text)
{
    Module m = parseWat(text);
    EXPECT_EQ(validationError(m), std::nullopt) << text;
    return m;
}

Value
run1(const std::string &text, const std::string &entry,
     std::vector<Value> args = {})
{
    Module m = parseValid(text);
    auto inst = Instance::instantiate(std::move(m), Linker());
    Interpreter interp;
    auto results = interp.invokeExport(*inst, entry, args);
    EXPECT_EQ(results.size(), 1u);
    return results[0];
}

TEST(WatParser, EmptyModule)
{
    Module m = parseValid("(module)");
    EXPECT_TRUE(m.functions.empty());
}

TEST(WatParser, MinimalFunction)
{
    Value v = run1(R"((module
        (func (export "f") (result i32)
            i32.const 42)))",
                   "f");
    EXPECT_EQ(v.i32(), 42u);
}

TEST(WatParser, NamedParamsAndLocals)
{
    Value v = run1(R"((module
        (func $add (export "add") (param $a i32) (param $b i32)
                   (result i32)
            (local $tmp i32)
            local.get $a
            local.get $b
            i32.add
            local.set $tmp
            local.get $tmp)))",
                   "add",
                   {Value::makeI32(30), Value::makeI32(12)});
    EXPECT_EQ(v.i32(), 42u);
}

TEST(WatParser, FoldedExpressions)
{
    Value v = run1(R"((module
        (func (export "f") (result i32)
            (i32.mul (i32.add (i32.const 2) (i32.const 3))
                     (i32.const 8)))))",
                   "f");
    EXPECT_EQ(v.i32(), 40u);
}

TEST(WatParser, FlatBlocksAndLabels)
{
    Value v = run1(R"((module
        (func (export "count") (result i32)
            (local $i i32)
            block $exit
                loop $top
                    local.get $i
                    i32.const 1
                    i32.add
                    local.set $i
                    local.get $i
                    i32.const 10
                    i32.ge_s
                    br_if $exit
                    br $top
                end
            end
            local.get $i)))",
                   "count");
    EXPECT_EQ(v.i32(), 10u);
}

TEST(WatParser, FoldedIfThenElse)
{
    const char *text = R"((module
        (func (export "sign") (param i32) (result i32)
            (if (result i32) (i32.lt_s (local.get 0) (i32.const 0))
                (then (i32.const -1))
                (else (i32.const 1))))))";
    EXPECT_EQ(run1(text, "sign", {Value::makeI32(5)}).i32s(), 1);
    EXPECT_EQ(
        run1(text, "sign", {Value::makeI32(static_cast<uint32_t>(-5))})
            .i32s(),
        -1);
}

TEST(WatParser, FlatIfElse)
{
    const char *text = R"((module
        (func (export "pick") (param i32) (result i32)
            local.get 0
            if (result i32)
                i32.const 11
            else
                i32.const 22
            end)))";
    EXPECT_EQ(run1(text, "pick", {Value::makeI32(1)}).i32(), 11u);
    EXPECT_EQ(run1(text, "pick", {Value::makeI32(0)}).i32(), 22u);
}

TEST(WatParser, MemoryLoadsStoresWithOffsets)
{
    Value v = run1(R"((module
        (memory 1)
        (func (export "f") (result i32)
            i32.const 16
            i32.const 7
            i32.store offset=4
            i32.const 16
            i32.load offset=4 align=4)))",
                   "f");
    EXPECT_EQ(v.i32(), 7u);
}

TEST(WatParser, GlobalsWithMut)
{
    Value v = run1(R"((module
        (global $g (mut i64) (i64.const 5))
        (func (export "bump") (result i64)
            global.get $g
            i64.const 2
            i64.add
            global.set $g
            global.get $g)))",
                   "bump");
    EXPECT_EQ(v.i64(), 7u);
}

TEST(WatParser, CallsAndTypeDeclarations)
{
    Value v = run1(R"((module
        (type $unary (func (param i32) (result i32)))
        (func $inc (type $unary)
            local.get 0
            i32.const 1
            i32.add)
        (func (export "f") (result i32)
            (call $inc (i32.const 41)))))",
                   "f");
    EXPECT_EQ(v.i32(), 42u);
}

TEST(WatParser, TableAndCallIndirect)
{
    Value v = run1(R"((module
        (type $nullary (func (result i32)))
        (table 2 2 funcref)
        (func $ten (result i32) i32.const 10)
        (func $twenty (result i32) i32.const 20)
        (elem (i32.const 0) $ten $twenty)
        (func (export "f") (param i32) (result i32)
            local.get 0
            call_indirect (type $nullary))))",
                   "f", {Value::makeI32(1)});
    EXPECT_EQ(v.i32(), 20u);
}

TEST(WatParser, BrTableWithNamedLabels)
{
    const char *text = R"((module
        (func (export "f") (param i32) (result i32)
            block $b2
            block $b1
            block $b0
                local.get 0
                br_table $b0 $b1 $b2
            end
            i32.const 100
            return
            end
            i32.const 200
            return
            end
            i32.const 300)))";
    EXPECT_EQ(run1(text, "f", {Value::makeI32(0)}).i32(), 100u);
    EXPECT_EQ(run1(text, "f", {Value::makeI32(1)}).i32(), 200u);
    EXPECT_EQ(run1(text, "f", {Value::makeI32(2)}).i32(), 300u);
    EXPECT_EQ(run1(text, "f", {Value::makeI32(9)}).i32(), 300u);
}

TEST(WatParser, ImportsInlineAndStandalone)
{
    Module m = parseValid(R"((module
        (import "env" "log" (func $log (param i32)))
        (func $helper (import "env" "helper") (result i32))
        (func (export "f") (result i32)
            (call $log (i32.const 1))
            call $helper)))");
    ASSERT_EQ(m.numImportedFunctions(), 2u);
    EXPECT_EQ(m.functions[0].import->name, "log");
    EXPECT_EQ(m.functions[1].import->name, "helper");

    Linker linker;
    int logged = 0;
    linker.func("env", "log",
                [&](Instance &, std::span<const Value>,
                    std::vector<Value> &) { ++logged; });
    linker.func("env", "helper",
                [](Instance &, std::span<const Value>,
                   std::vector<Value> &out) {
                    out.push_back(Value::makeI32(5));
                });
    auto inst = Instance::instantiate(std::move(m), linker);
    Interpreter interp;
    EXPECT_EQ(interp.invokeExport(*inst, "f", {})[0].i32(), 5u);
    EXPECT_EQ(logged, 1);
}

TEST(WatParser, DataSegmentsAndStringEscapes)
{
    Module m = parseValid(R"((module
        (memory 1)
        (data (i32.const 8) "ab\n\00\ff")))");
    ASSERT_EQ(m.data.size(), 1u);
    EXPECT_EQ(m.data[0].bytes,
              (std::vector<uint8_t>{'a', 'b', '\n', 0x00, 0xFF}));
}

TEST(WatParser, StartSectionAndExportsForms)
{
    Module m = parseValid(R"((module
        (global $flag (mut i32) (i32.const 0))
        (func $init i32.const 1 global.set $flag)
        (start $init)
        (export "flag" (global $flag))))");
    ASSERT_TRUE(m.start.has_value());
    EXPECT_EQ(m.globals[0].exportNames,
              std::vector<std::string>{"flag"});
}

TEST(WatParser, NumberFormats)
{
    Module m = parseValid(R"((module
        (func (export "f") (result f64)
            i32.const 0xFF drop
            i32.const -0x10 drop
            i64.const 1_000_000 drop
            f32.const -2.5 drop
            f64.const inf drop
            f64.const -inf drop
            f64.const nan drop
            f64.const 6.25)))");
    const auto &body = m.functions[0].body;
    EXPECT_EQ(body[0].imm.i32v, 0xFFu);
    EXPECT_EQ(static_cast<int32_t>(body[2].imm.i32v), -16);
    EXPECT_EQ(body[4].imm.i64v, 1000000u);
    EXPECT_EQ(body[6].imm.f32v, -2.5f);
    EXPECT_TRUE(std::isinf(body[8].imm.f64v));
    EXPECT_TRUE(std::isnan(body[12].imm.f64v));
}

TEST(WatParser, LegacyMnemonicsAccepted)
{
    // The paper's listings use the pre-1.0 names (get_local etc.).
    Value v = run1(R"((module
        (func (export "f") (param i32) (result i32)
            get_local 0
            i32.const 2
            i32.mul)))",
                   "f", {Value::makeI32(21)});
    EXPECT_EQ(v.i32(), 42u);
}

TEST(WatParser, CommentsAreIgnored)
{
    Value v = run1(R"((module
        ;; line comment
        (func (export "f") (result i32)
            (; block
               comment ;)
            i32.const 3)))",
                   "f");
    EXPECT_EQ(v.i32(), 3u);
}

TEST(WatParser, ErrorsCarryPositions)
{
    try {
        parseWat("(module\n  (func (result i32)\n    i32.bogus))");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line, 3);
        EXPECT_NE(std::string(e.what()).find("i32.bogus"),
                  std::string::npos);
    }
}

TEST(WatParser, ElseOnlyInsideAnIf)
{
    // An `else` at the top of a flat `block` or `loop` body is a parse
    // error located at the `else`, not a module for the validator.
    for (const char *kind : {"block", "loop"}) {
        std::string text = std::string("(module\n  (func (export \"main\")\n"
                                       "    ") +
                           kind + "\n    else\n    end))";
        try {
            parseWat(text);
            FAIL() << "expected ParseError for " << kind << " ... else";
        } catch (const ParseError &e) {
            EXPECT_EQ(e.line, 4) << kind;
            EXPECT_EQ(e.col, 5) << kind;
            EXPECT_NE(std::string(e.what()).find("else outside an if"),
                      std::string::npos)
                << e.what();
        }
    }
    // Nested inside an `if`'s arm, a `block`'s `else` is still wrong.
    EXPECT_THROW(parseWat("(module (func i32.const 1 if block else end "
                          "end))"),
                 ParseError);
    // The `if` it belongs to makes the same `else` legal.
    const char *text = R"((module
        (func (export "main") (param i32) (result i32)
            local.get 0
            if (result i32)
                block
                end
                i32.const 1
            else
                i32.const 2
            end)))";
    EXPECT_EQ(run1(text, "main", {Value::makeI32(1)}).i32(), 1u);
    EXPECT_EQ(run1(text, "main", {Value::makeI32(0)}).i32(), 2u);
}

TEST(WatParser, RejectsMalformedInput)
{
    EXPECT_THROW(parseWat("(module"), ParseError);
    EXPECT_THROW(parseWat("(module))"), ParseError);
    EXPECT_THROW(parseWat("(func)"), ParseError);
    EXPECT_THROW(parseWat("(module (func (local $x)))"), ParseError);
    EXPECT_THROW(parseWat("(module (func br $nowhere))"), ParseError);
    EXPECT_THROW(parseWat("(module (func call $missing))"), ParseError);
    EXPECT_THROW(parseWat("(module (data (i32.const 0) notastring))"),
                 ParseError);
}

/** `(module ((((...))))`: @p n empty lists nested inside the module. */
std::string
nestedLists(size_t n)
{
    return "(module " + std::string(n, '(') + std::string(n, ')') + ")";
}

/** `(module (func (block (block ...))))` with @p n folded blocks. */
std::string
foldedBlocks(size_t n)
{
    std::string s = "(module (func";
    for (size_t i = 0; i < n; ++i)
        s += " (block";
    return s + std::string(n, ')') + "))";
}

/** `(module (func block block ... end end))` with @p n flat blocks. */
std::string
flatBlocks(size_t n)
{
    std::string s = "(module (func";
    for (size_t i = 0; i < n; ++i)
        s += " block";
    for (size_t i = 0; i < n; ++i)
        s += " end";
    return s + "))";
}

/** The nesting-limit message of @p text's ParseError ("" if none). */
std::string
nestingError(const std::string &text)
{
    try {
        parseWat(text);
    } catch (const ParseError &e) {
        return e.what();
    }
    return "";
}

TEST(WatParser, NestingPastTheLimitIsAParseError)
{
    // Both the list reader and the flat-block parser recurse; past the
    // limit each must fail cleanly, also far past it, where unbounded
    // recursion used to overflow the host stack.
    const size_t past = kMaxWatNesting + 1;
    for (size_t n : {past, size_t{200000}}) {
        // The module and func lists count towards the list depth.
        EXPECT_NE(nestingError(nestedLists(n)).find("lists nested"),
                  std::string::npos);
        EXPECT_NE(nestingError(foldedBlocks(n - 2)).find("lists nested"),
                  std::string::npos);
        EXPECT_NE(nestingError(flatBlocks(n)).find("blocks nested"),
                  std::string::npos);
    }
}

TEST(WatParser, NestingAtTheLimitParses)
{
    Module folded = parseValid(foldedBlocks(kMaxWatNesting - 2));
    EXPECT_EQ(folded.functions.at(0).body.size(),
              2 * (kMaxWatNesting - 2) + 1);
    Module flat = parseValid(flatBlocks(kMaxWatNesting));
    EXPECT_EQ(flat.functions.at(0).body.size(), 2 * kMaxWatNesting + 1);
    // At the limit the list reader itself still accepts the input.
    EXPECT_EQ(nestingError(nestedLists(kMaxWatNesting - 1))
                  .find("nested"),
              std::string::npos);
}

TEST(WatParser, UnreachableAndDropAndSelect)
{
    Value v = run1(R"((module
        (func (export "f") (param i32) (result i32)
            i32.const 7
            i32.const 8
            local.get 0
            select)))",
                   "f", {Value::makeI32(1)});
    EXPECT_EQ(v.i32(), 7u);
}

} // namespace
} // namespace wasabi::wasm
