/**
 * @file
 * Tests for the "name" custom section: decoding, re-encoding, and
 * correctness of the rebuilt section across instrumentation (function
 * indices shift when hook imports are inserted).
 */

#include <gtest/gtest.h>

#include "core/instrument.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/name_section.h"

namespace wasabi::wasm {
namespace {

TEST(NameSection, RoundtripsThroughBinary)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    Module m = mb.build();
    m.functions[0].debugName = "alpha";
    m.functions[1].debugName = "beta";
    buildNameSection(m);
    ASSERT_EQ(m.customs.size(), 1u);

    Module decoded = decodeModule(encodeModule(m));
    EXPECT_TRUE(decoded.functions[0].debugName.empty()); // not auto-applied
    EXPECT_EQ(applyNameSection(decoded), 2u);
    EXPECT_EQ(decoded.functions[0].debugName, "alpha");
    EXPECT_EQ(decoded.functions[1].debugName, "beta");
}

TEST(NameSection, BuildRemovesStaleSectionWhenNoNames)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    Module m = mb.build();
    m.customs.push_back({"name", {0x01, 0x01, 0x00}});
    buildNameSection(m); // no debug names -> section dropped
    EXPECT_TRUE(m.customs.empty());
}

TEST(NameSection, MalformedPayloadIsIgnored)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    Module m = mb.build();
    m.customs.push_back({"name", {0x01, 0xFF, 0xFF}}); // bogus size
    EXPECT_EQ(applyNameSection(m), 0u);
}

TEST(NameSection, UnknownSubsectionsAreSkipped)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    Module m = mb.build();
    // Subsection 0 (module name "m"), then subsection 1 naming func 0.
    std::vector<uint8_t> payload{
        0x00, 0x02, 0x01, 'm',             // module name
        0x01, 0x04, 0x01, 0x00, 0x01, 'g', // function names
    };
    m.customs.push_back({"name", payload});
    EXPECT_EQ(applyNameSection(m), 1u);
    EXPECT_EQ(m.functions[0].debugName, "g");
}

TEST(NameSection, FunctionNameFallbacks)
{
    ModuleBuilder mb;
    mb.importFunction("env", "imp", FuncType({}, {}));
    mb.addFunction(FuncType({}, {}), "exported",
                   [](FunctionBuilder &) {});
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    Module m = mb.build();
    m.functions[2].debugName = "internal_helper";
    EXPECT_EQ(functionName(m, 0), "env.imp");
    EXPECT_EQ(functionName(m, 1), "exported");
    EXPECT_EQ(functionName(m, 2), "internal_helper");
    EXPECT_EQ(functionName(m, 99), "f99");
}

TEST(NameSection, InstrumentationRebuildsNamesForShiftedIndices)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "compute",
                   [](FunctionBuilder &f) { f.i32Const(1); });
    Module m = mb.build();
    m.functions[0].debugName = "compute_impl";
    buildNameSection(m);

    core::InstrumentResult r =
        core::instrument(m, core::HookSet::only(core::HookKind::Const));
    // Decode the instrumented module fresh and check the name refers
    // to the *shifted* function index.
    Module decoded = decodeModule(encodeModule(r.module));
    applyNameSection(decoded);
    uint32_t shifted = *decoded.findFuncExport("compute");
    EXPECT_GT(shifted, 0u); // hooks were inserted before it
    EXPECT_EQ(decoded.functions[shifted].debugName, "compute_impl");
    // Hook imports are named after their mangled hook name.
    EXPECT_EQ(decoded.functions[0].debugName, "i32.const");
}

TEST(NameSection, InstrumentationRemapsManyNamesAndImports)
{
    // A module with a pre-existing import, several named defined
    // functions (some unnamed in between), and calls between them:
    // after hook-import injection every custom name must still point
    // at the function that carried it, across an encode/decode
    // roundtrip of the instrumented binary.
    ModuleBuilder mb;
    mb.importFunction("env", "host_log", FuncType({ValType::I32}, {}));
    mb.addFunction(FuncType({}, {ValType::I32}), "first",
                   [](FunctionBuilder &f) { f.i32Const(11); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(22); });
    mb.addFunction(FuncType({}, {ValType::I32}), "third",
                   [](FunctionBuilder &f) {
                       f.call(1);
                       f.drop();
                       f.i32Const(33);
                   });
    Module m = mb.build();
    m.functions[1].debugName = "named_first";
    // functions[2] deliberately unnamed.
    m.functions[3].debugName = "named_third";
    buildNameSection(m);

    core::InstrumentResult r = core::instrument(
        m, {core::HookKind::Const, core::HookKind::Call,
            core::HookKind::Drop});
    ASSERT_GE(r.info->hooks.size(), 3u);

    Module decoded = decodeModule(encodeModule(r.module));
    applyNameSection(decoded);

    // Original-module imports and defined functions shifted by the
    // number of injected hook imports; their names must have moved
    // with them (located via exports, which the encoder also remaps).
    uint32_t first = *decoded.findFuncExport("first");
    uint32_t third = *decoded.findFuncExport("third");
    EXPECT_EQ(decoded.functions[first].debugName, "named_first");
    EXPECT_EQ(decoded.functions[third].debugName, "named_third");
    // The non-hook import kept its import ref and gained no bogus name.
    bool found_host_import = false;
    for (const Function &f : decoded.functions) {
        if (f.imported() && f.import->module == "env") {
            EXPECT_EQ(f.import->name, "host_log");
            found_host_import = true;
        }
    }
    EXPECT_TRUE(found_host_import);
    // Every hook import is named after its mangled hook, so the name
    // count covers hooks + the two explicitly named functions.
    size_t named = 0;
    for (const Function &f : decoded.functions)
        named += !f.debugName.empty();
    EXPECT_EQ(named, r.info->hooks.size() + 2);
}

// ---------------------------------------------------------------------
// Structured NameSectionData: local/label subsections must survive
// parse -> set round trips and be remapped (not dropped) when function
// indices shift.

/** Two functions with module/function/local/label names on both. */
Module
moduleWithAllSubsections()
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "first",
                   [](FunctionBuilder &f) {
                       f.block();
                       f.end();
                       f.localGet(0);
                   });
    mb.addFunction(FuncType({}, {ValType::I32}), "second",
                   [](FunctionBuilder &f) {
                       uint32_t tmp = f.addLocal(ValType::I32);
                       f.i32Const(7);
                       f.localSet(tmp);
                       f.localGet(tmp);
                   });
    Module m = mb.build();
    NameSectionData data;
    data.moduleName = "demo";
    data.funcNames = {{0, "first_impl"}, {1, "second_impl"}};
    data.localNames = {{0, {{0, "arg"}}}, {1, {{0, "tmp"}}}};
    data.labelNames = {{0, {{0, "outer"}}}};
    setNameSection(m, data);
    return m;
}

TEST(NameSectionData, ParseSetRoundtripIsByteIdentical)
{
    Module m = moduleWithAllSubsections();
    ASSERT_EQ(m.customs.size(), 1u);
    std::vector<uint8_t> before = m.customs[0].bytes;

    NameSectionData data = parseNameSection(m);
    EXPECT_EQ(data.moduleName, "demo");
    ASSERT_EQ(data.funcNames.size(), 2u);
    ASSERT_EQ(data.localNames.size(), 2u);
    ASSERT_EQ(data.labelNames.size(), 1u);
    EXPECT_EQ(data.localNames[1].second,
              (NameMap{{0, "tmp"}}));

    setNameSection(m, data);
    ASSERT_EQ(m.customs.size(), 1u);
    EXPECT_EQ(m.customs[0].bytes, before);
    // And the whole module survives a binary roundtrip unchanged.
    EXPECT_EQ(encodeModule(decodeModule(encodeModule(m))),
              encodeModule(m));
}

TEST(NameSectionData, RemapDropsDeletedAndShiftsSurvivors)
{
    Module m = moduleWithAllSubsections();
    NameSectionData data = parseNameSection(m);
    // Delete function 0: its entries vanish from every subsection and
    // function 1's entries move to index 0.
    remapNameData(data, {kDeletedIndex, 0});
    EXPECT_EQ(data.moduleName, "demo");
    EXPECT_EQ(data.funcNames, (NameMap{{0, "second_impl"}}));
    ASSERT_EQ(data.localNames.size(), 1u);
    EXPECT_EQ(data.localNames[0].first, 0u);
    EXPECT_EQ(data.localNames[0].second, (NameMap{{0, "tmp"}}));
    EXPECT_TRUE(data.labelNames.empty()); // only func 0 had labels
}

TEST(NameSectionData, RemapReordersByNewIndex)
{
    NameSectionData data;
    data.funcNames = {{0, "a"}, {1, "b"}, {2, "c"}};
    data.localNames = {{0, {{0, "x"}}}, {2, {{1, "y"}}}};
    // Swap 0 and 2; entries must come back sorted by new index.
    remapNameData(data, {2, 1, 0});
    EXPECT_EQ(data.funcNames, (NameMap{{0, "c"}, {1, "b"}, {2, "a"}}));
    ASSERT_EQ(data.localNames.size(), 2u);
    EXPECT_EQ(data.localNames[0].first, 0u);
    EXPECT_EQ(data.localNames[0].second, (NameMap{{1, "y"}}));
    EXPECT_EQ(data.localNames[1].first, 2u);
    EXPECT_EQ(data.localNames[1].second, (NameMap{{0, "x"}}));
}

TEST(NameSectionData, InstrumentationPreservesLocalNames)
{
    // Regression: instrumentation used to rebuild the name section
    // from function debugNames alone, silently dropping the
    // local-name subsection. Locals keep their indices across
    // instrumentation (extra locals are appended), so local names must
    // survive, attached to the shifted function index.
    Module m = moduleWithAllSubsections();
    core::InstrumentResult r = core::instrument(
        m, core::HookSet::only(core::HookKind::Const));

    Module decoded = decodeModule(encodeModule(r.module));
    NameSectionData names = parseNameSection(decoded);
    EXPECT_EQ(names.moduleName, "demo");
    applyNameSection(decoded);
    uint32_t first = *decoded.findFuncExport("first");
    uint32_t second = *decoded.findFuncExport("second");
    EXPECT_GT(first, 0u); // hook imports shifted everything
    EXPECT_EQ(decoded.functions[first].debugName, "first_impl");
    EXPECT_EQ(decoded.functions[second].debugName, "second_impl");

    auto localsOf = [&](uint32_t f) -> const NameMap * {
        for (const auto &[idx, map] : names.localNames)
            if (idx == f)
                return &map;
        return nullptr;
    };
    const NameMap *first_locals = localsOf(first);
    const NameMap *second_locals = localsOf(second);
    ASSERT_NE(first_locals, nullptr);
    ASSERT_NE(second_locals, nullptr);
    EXPECT_EQ(*first_locals, (NameMap{{0, "arg"}}));
    EXPECT_EQ(*second_locals, (NameMap{{0, "tmp"}}));
    // Label names refer to body positions, which instrumentation
    // rewrites, so they are deliberately dropped.
    EXPECT_TRUE(names.labelNames.empty());
}

} // namespace
} // namespace wasabi::wasm
