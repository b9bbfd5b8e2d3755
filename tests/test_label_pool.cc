/**
 * @file
 * br_table labels live in a per-function pool (Function::labelPool),
 * not in the instruction. These tests take one module with br_tables
 * of several arities, a default-only one among them, through every
 * path that reads or writes labels: decode/encode, WAT print/parse,
 * instrumentation with and without the br_table hook, and `opt` with
 * manifest replay. Each must keep the bytes or the behaviour on both
 * engines.
 */

#include <gtest/gtest.h>

#include <set>

#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "static/rewrite/opt.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/printer.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"

namespace wasabi {
namespace {

using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Instr;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;

/** acc += k */
void
add(FunctionBuilder &f, uint32_t acc, int32_t k)
{
    f.localGet(acc).i32Const(k).op(Opcode::I32Add).localSet(acc);
}

/**
 * pick(x): a br_table that carries a value to one of two labels.
 * main(x): pick(x) plus three br_tables (default only; two targets;
 * four targets indexed by x/2), each label adding its own constant,
 * so every x in [0, 10) returns a different sum path.
 */
Module
tablesModule()
{
    ModuleBuilder mb;
    FuncType t({ValType::I32}, {ValType::I32});
    uint32_t pick = mb.addFunction(t, "", [](FunctionBuilder &f) {
        f.block(ValType::I32);
        f.block(ValType::I32);
        f.i32Const(7).localGet(0).brTable({0, 1}, 0);
        f.end();
        f.i32Const(3).op(Opcode::I32Add);
        f.end();
    });
    FunctionBuilder f = mb.startFunction(t, "main");
    uint32_t acc = f.addLocal(ValType::I32);
    f.localGet(0).call(pick).localSet(acc);

    f.block();
    f.localGet(0).brTable({}, 0);
    f.end();

    f.block().block().block();
    f.localGet(0).brTable({0, 1}, 2);
    f.end();
    add(f, acc, 10);
    f.end();
    add(f, acc, 100);
    f.end();

    f.block().block().block().block().block();
    f.localGet(0).i32Const(1).op(Opcode::I32ShrU).brTable({3, 2, 1, 0}, 4);
    f.end();
    add(f, acc, 1000);
    f.end();
    add(f, acc, 2000);
    f.end();
    add(f, acc, 4000);
    f.end();
    add(f, acc, 8000);
    f.end();
    f.localGet(acc);
    f.finish();
    return mb.build();
}

/** Every br_table's labels, function by function, in body order. */
std::vector<std::vector<uint32_t>>
allLabels(const Module &m)
{
    std::vector<std::vector<uint32_t>> out;
    for (const wasm::Function &f : m.functions) {
        for (const Instr &in : f.body) {
            if (in.op == Opcode::BrTable) {
                std::span<const uint32_t> labels = f.labels(in);
                out.emplace_back(labels.begin(), labels.end());
            }
        }
    }
    return out;
}

/** WAT text of @p m from the printer's rendering of each instruction
 * (functions and exports only: all tablesModule() has). */
std::string
printWat(const Module &m)
{
    std::string wat = "(module\n";
    for (uint32_t i = 0; i < m.numFunctions(); ++i) {
        const wasm::Function &f = m.functions[i];
        const FuncType &type = m.funcType(i);
        wat += "(func";
        for (const std::string &e : f.exportNames)
            wat += " (export \"" + e + "\")";
        for (ValType p : type.params)
            wat += std::string(" (param ") + name(p) + ")";
        for (ValType r : type.results)
            wat += std::string(" (result ") + name(r) + ")";
        for (ValType l : f.locals)
            wat += std::string(" (local ") + name(l) + ")";
        wat += "\n";
        // The body's final `end` closes the func form.
        for (size_t k = 0; k + 1 < f.body.size(); ++k)
            wat += "  " + wasm::toString(f.body[k], f.labelPool) + "\n";
        wat += ")\n";
    }
    return wat + ")\n";
}

struct Outcome {
    std::vector<Value> results;
    std::optional<interp::TrapKind> trap;

    bool operator==(const Outcome &other) const = default;
};

/** main(x) on @p engine; an instrumented module runs under a runtime
 * with an analysis attached, so every hook fires. */
Outcome
runMain(const Module &m, const std::shared_ptr<core::StaticInfo> &info,
        interp::EngineKind engine, uint32_t x)
{
    std::optional<runtime::WasabiRuntime> rt;
    analyses::InstructionMix mix;
    std::unique_ptr<interp::Instance> inst;
    if (info) {
        rt.emplace(info);
        rt->addAnalysis(&mix);
        inst = rt->instantiate(m);
    } else {
        inst = interp::Instance::instantiate(m, interp::Linker());
    }
    interp::Interpreter interp;
    interp.engine = engine;
    Outcome out;
    const std::vector<Value> args{Value::makeI32(x)};
    try {
        out.results = interp.invokeExport(*inst, "main", args);
    } catch (const interp::Trap &t) {
        out.trap = t.kind();
    }
    return out;
}

/** @p m (instrumented if @p info is set) behaves as the original
 * tablesModule() on both engines for x in [0, 10). */
void
expectSameBehaviour(const Module &m,
                    const std::shared_ptr<core::StaticInfo> &info,
                    const std::string &what)
{
    Module orig = tablesModule();
    std::set<uint32_t> sums;
    for (uint32_t x = 0; x < 10; ++x) {
        Outcome want = runMain(orig, nullptr, interp::EngineKind::Legacy, x);
        ASSERT_FALSE(want.trap);
        sums.insert(want.results.at(0).i32());
        for (interp::EngineKind e :
             {interp::EngineKind::Legacy, interp::EngineKind::Fast}) {
            EXPECT_TRUE(runMain(m, info, e, x) == want)
                << what << ", x = " << x;
        }
    }
    // Labels of every arity were taken: the sums all differ.
    EXPECT_EQ(sums.size(), 6u) << what;
}

TEST(LabelPool, DecodeEncodeIsByteIdentical)
{
    Module m = tablesModule();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);
    std::vector<uint8_t> bytes = wasm::encodeModule(m);
    Module decoded = wasm::decodeModule(bytes);
    EXPECT_EQ(decoded.functions[0].labelPool, m.functions[0].labelPool);
    EXPECT_EQ(decoded.functions[1].labelPool, m.functions[1].labelPool);
    EXPECT_EQ(allLabels(decoded),
              (std::vector<std::vector<uint32_t>>{
                  {0, 1, 0}, {0}, {0, 1, 2}, {3, 2, 1, 0, 4}}));
    EXPECT_EQ(wasm::encodeModule(decoded), bytes);
    expectSameBehaviour(decoded, nullptr, "decoded");
}

TEST(LabelPool, PrintParseIsByteIdentical)
{
    Module m = tablesModule();
    std::string wat = printWat(m);
    EXPECT_NE(wat.find("br_table 0\n"), std::string::npos) << wat;
    EXPECT_NE(wat.find("br_table 3 2 1 0 4\n"), std::string::npos) << wat;
    Module parsed = wasm::parseWat(wat);
    EXPECT_EQ(allLabels(parsed), allLabels(m));
    EXPECT_EQ(wasm::encodeModule(parsed), wasm::encodeModule(m)) << wat;
    expectSameBehaviour(parsed, nullptr, "parsed");
}

TEST(LabelPool, InstrumentationCopiesLabels)
{
    Module m = tablesModule();
    core::HookSet without = core::HookSet::all();
    without.remove(core::HookKind::BrTable);
    without.remove(core::HookKind::End);
    for (core::HookSet hooks : {core::HookSet::all(), without}) {
        const std::string what =
            hooks.has(core::HookKind::BrTable) ? "br_table hooked"
                                               : "br_table unhooked";
        core::InstrumentResult r = core::instrument(m, hooks);
        ASSERT_EQ(wasm::validationError(r.module), std::nullopt) << what;
        EXPECT_EQ(allLabels(r.module), allLabels(m)) << what;
        EXPECT_EQ(r.info->brTables.size(), 4u) << what;
        std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
        EXPECT_EQ(wasm::encodeModule(wasm::decodeModule(bytes)), bytes)
            << what;
        core::InstrumentOptions par;
        par.numThreads = 4;
        EXPECT_EQ(wasm::encodeModule(core::instrument(m, hooks, par).module),
                  bytes)
            << what;
        expectSameBehaviour(r.module, r.info, what);
    }
}

TEST(LabelPool, OptWithManifestReplay)
{
    using namespace static_analysis::rewrite;
    Module m = tablesModule();
    OptResult r = optimize(m, allOptPasses());
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt);
    EXPECT_EQ(allLabels(r.module), allLabels(m));
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(
        claimsFromManifest(claimsToManifest(r.claims), parsed, &error))
        << error;
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
    EXPECT_TRUE(checkOptimization(m, bytes, parsed).empty());
    EXPECT_EQ(wasm::encodeModule(wasm::decodeModule(bytes)), bytes);
    expectSameBehaviour(r.module, nullptr, "optimized");
}

} // namespace
} // namespace wasabi
