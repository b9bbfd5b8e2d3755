/**
 * @file
 * Encoder/decoder tests: known byte sequences and structural
 * encode -> decode roundtrips for representative modules.
 */

#include <gtest/gtest.h>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::wasm {
namespace {

/** Structural equality of two modules, element by element. */
void
expectModulesEqual(const Module &a, const Module &b)
{
    ASSERT_EQ(a.types.size(), b.types.size());
    for (size_t i = 0; i < a.types.size(); ++i)
        EXPECT_EQ(a.types[i], b.types[i]);
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (size_t i = 0; i < a.functions.size(); ++i) {
        const Function &fa = a.functions[i];
        const Function &fb = b.functions[i];
        EXPECT_EQ(fa.typeIdx, fb.typeIdx);
        EXPECT_EQ(fa.import, fb.import);
        EXPECT_EQ(fa.locals, fb.locals);
        EXPECT_EQ(fa.exportNames, fb.exportNames);
        EXPECT_EQ(fa.labelPool, fb.labelPool) << "function " << i;
        ASSERT_EQ(fa.body.size(), fb.body.size()) << "function " << i;
        for (size_t j = 0; j < fa.body.size(); ++j) {
            EXPECT_TRUE(sameImm(fa.body[j], fb.body[j]))
                << "function " << i << " instr " << j;
        }
    }
    ASSERT_EQ(a.globals.size(), b.globals.size());
    ASSERT_EQ(a.tables.size(), b.tables.size());
    ASSERT_EQ(a.memories.size(), b.memories.size());
    for (size_t i = 0; i < a.memories.size(); ++i)
        EXPECT_EQ(a.memories[i].limits, b.memories[i].limits);
    ASSERT_EQ(a.elements.size(), b.elements.size());
    for (size_t i = 0; i < a.elements.size(); ++i)
        EXPECT_EQ(a.elements[i].funcIdxs, b.elements[i].funcIdxs);
    ASSERT_EQ(a.data.size(), b.data.size());
    for (size_t i = 0; i < a.data.size(); ++i)
        EXPECT_EQ(a.data[i].bytes, b.data[i].bytes);
    EXPECT_EQ(a.start, b.start);
}

void
expectRoundtrips(const Module &m)
{
    std::vector<uint8_t> bytes = encodeModule(m);
    Module decoded = decodeModule(bytes);
    expectModulesEqual(m, decoded);
    // Re-encoding the decoded module must be byte-identical (our
    // encoder is deterministic and uses canonical LEB128).
    EXPECT_EQ(encodeModule(decoded), bytes);
}

TEST(Roundtrip, EmptyModule)
{
    Module m;
    std::vector<uint8_t> bytes = encodeModule(m);
    // Just magic + version.
    EXPECT_EQ(bytes, (std::vector<uint8_t>{0x00, 0x61, 0x73, 0x6D, 0x01,
                                           0x00, 0x00, 0x00}));
    expectRoundtrips(m);
}

TEST(Roundtrip, MinimalFunction)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    expectRoundtrips(mb.build());
}

TEST(Roundtrip, KnownBinaryBytes)
{
    // (module (func (export "f") (result i32) i32.const 42))
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "f",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    std::vector<uint8_t> expected{
        0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00,
        // type section: 1 type, () -> (i32)
        0x01, 0x05, 0x01, 0x60, 0x00, 0x01, 0x7F,
        // function section
        0x03, 0x02, 0x01, 0x00,
        // export section: "f" func 0
        0x07, 0x05, 0x01, 0x01, 'f', 0x00, 0x00,
        // code section: 1 body, no locals, i32.const 42, end
        0x0A, 0x06, 0x01, 0x04, 0x00, 0x41, 0x2A, 0x0B,
    };
    EXPECT_EQ(encodeModule(mb.build()), expected);
}

TEST(Roundtrip, AllImmediateKinds)
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.table(4, 8);
    uint32_t imp =
        mb.importFunction("env", "host", FuncType({ValType::I32}, {}));
    mb.global(ValType::I64, true, Value::makeI64(-7));
    FuncType t({ValType::I32}, {ValType::I32});
    uint32_t callee = mb.addFunction(t, "", [](FunctionBuilder &f) {
        f.localGet(0);
    });
    FunctionBuilder fb = mb.startFunction(t, "main");
    uint32_t tmp = fb.addLocal(ValType::F64);
    fb.block(ValType::I32);
    fb.i32Const(-123456);
    fb.end();
    fb.drop();
    fb.i64Const(0x123456789ALL);
    fb.globalSet(0);
    fb.f32Const(1.5f);
    fb.drop();
    fb.f64Const(-2.25);
    fb.localSet(tmp);
    fb.loop();
    fb.i32Const(0);
    fb.brIf(0);
    fb.end();
    fb.i32Const(10);
    fb.call(imp);
    fb.i32Const(3);
    fb.i32Load(4);
    fb.i32Const(8);
    fb.i32Store(0);
    fb.op(Opcode::MemorySize);
    fb.op(Opcode::MemoryGrow);
    fb.drop();
    fb.i32Const(5);
    fb.i32Const(0);
    fb.callIndirect(mb.type(t));
    fb.block();
    fb.block();
    fb.i32Const(1);
    fb.brTable({0, 1}, 0);
    fb.end();
    fb.end();
    fb.finish();
    mb.elem(0, {callee, callee});
    mb.data(0, {0xDE, 0xAD});
    Module m = mb.build();
    ASSERT_EQ(validationError(m), std::nullopt);
    expectRoundtrips(m);
}

TEST(Roundtrip, NanFloatBitsPreserved)
{
    ModuleBuilder mb;
    // A NaN with a nonstandard payload must survive roundtripping.
    float nan_f = std::bit_cast<float>(0x7FC00123u);
    double nan_d = std::bit_cast<double>(0x7FF8000000000456ull);
    mb.addFunction(FuncType({}, {ValType::F64}), "f",
                   [&](FunctionBuilder &f) {
                       f.f32Const(nan_f);
                       f.drop();
                       f.f64Const(nan_d);
                   });
    Module m = mb.build();
    std::vector<uint8_t> bytes = encodeModule(m);
    Module d = decodeModule(bytes);
    EXPECT_EQ(std::bit_cast<uint32_t>(d.functions[0].body[0].imm.f32v),
              0x7FC00123u);
    EXPECT_EQ(std::bit_cast<uint64_t>(d.functions[0].body[2].imm.f64v),
              0x7FF8000000000456ull);
}

TEST(Roundtrip, ImportsOfAllKinds)
{
    Module m;
    Function f;
    f.typeIdx = 0;
    f.import = ImportRef{"a", "f"};
    m.types.push_back(FuncType({}, {}));
    m.functions.push_back(f);
    Table t;
    t.import = ImportRef{"a", "t"};
    t.limits = {1, 2};
    m.tables.push_back(t);
    Memory mem;
    mem.import = ImportRef{"a", "m"};
    mem.limits = {1, std::nullopt};
    m.memories.push_back(mem);
    Global g;
    g.import = ImportRef{"a", "g"};
    g.type = ValType::F32;
    g.mut = false;
    m.globals.push_back(g);
    expectRoundtrips(m);
}

TEST(Roundtrip, CustomSectionsPreserved)
{
    Module m;
    m.customs.push_back({"name", {1, 2, 3}});
    std::vector<uint8_t> bytes = encodeModule(m);
    Module d = decodeModule(bytes);
    ASSERT_EQ(d.customs.size(), 1u);
    EXPECT_EQ(d.customs[0].name, "name");
    EXPECT_EQ(d.customs[0].bytes, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Roundtrip, StartSection)
{
    ModuleBuilder mb;
    uint32_t f = mb.addFunction(FuncType({}, {}), "",
                                [](FunctionBuilder &) {});
    mb.start(f);
    expectRoundtrips(mb.build());
}

// ---------------------------------------------------------------------
// Corpus byte-identity audit: decode -> encode with zero edits must be
// byte-identical for every module the toolkit itself can produce. Any
// LEB128 or section-size drift here would silently defeat the opt
// checker's byte compare.

void
expectByteIdentity(const Module &m, const std::string &what)
{
    std::vector<uint8_t> bytes = encodeModule(m);
    EXPECT_EQ(encodeModule(decodeModule(bytes)), bytes) << what;
}

class RoundtripPolybench : public ::testing::TestWithParam<std::string> {
};

TEST_P(RoundtripPolybench, ByteIdentity)
{
    expectByteIdentity(workloads::polybench(GetParam(), 6).module,
                       GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, RoundtripPolybench,
                         ::testing::ValuesIn(workloads::polybenchNames()));

TEST(RoundtripCorpus, SyntheticApps)
{
    for (workloads::AppSize size :
         {workloads::AppSize::Small, workloads::AppSize::PdfkitLike}) {
        expectByteIdentity(workloads::syntheticApp(size).module,
                           "synthetic app");
    }
}

TEST(RoundtripCorpus, RandomPrograms)
{
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.indirectCallPct = 20;
        opts.constIndexIndirectPct = 40;
        expectByteIdentity(workloads::randomProgram(opts).module,
                           "random program seed " + std::to_string(seed));
    }
}

TEST(Decode, RejectsBadMagic)
{
    std::vector<uint8_t> bytes{0x00, 0x61, 0x73, 0x6E, 0x01, 0, 0, 0};
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

TEST(Decode, RejectsBadVersion)
{
    std::vector<uint8_t> bytes{0x00, 0x61, 0x73, 0x6D, 0x02, 0, 0, 0};
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

TEST(Decode, RejectsTruncatedSection)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &) {});
    std::vector<uint8_t> bytes = encodeModule(mb.build());
    bytes.resize(bytes.size() - 2);
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

TEST(Decode, RejectsOutOfOrderSections)
{
    // code section (10) before type section (1)
    std::vector<uint8_t> bytes{0x00, 0x61, 0x73, 0x6D, 0x01, 0, 0, 0,
                               0x0A, 0x01, 0x00, 0x01, 0x01, 0x00};
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

TEST(Decode, RejectsInvalidOpcode)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "f", [](FunctionBuilder &f) {
        f.nop();
    });
    std::vector<uint8_t> bytes = encodeModule(mb.build());
    // Patch the nop (0x01) in the code body to an invalid byte 0x1C.
    bool patched = false;
    for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
        if (bytes[i] == 0x01 && bytes[i + 1] == 0x0B) {
            bytes[i] = 0x1C;
            patched = true;
            break;
        }
    }
    ASSERT_TRUE(patched);
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

} // namespace
} // namespace wasabi::wasm
