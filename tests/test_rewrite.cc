/**
 * @file
 * Tests for the rewriting toolkit: ModuleRewriter index fixup (delete /
 * add / replace with automatic remapping of calls, element segments,
 * exports, start, and name subsections), the applied optimization
 * passes, the claim-manifest round trip, the manifest checker's
 * accept/reject behavior, and the differential-execution guarantee of
 * `wasabi opt` (original and optimized modules are observationally
 * identical on both engines, instrumented and uninstrumented).
 */

#include <gtest/gtest.h>

#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "static/manifest.h"
#include "static/rewrite/opt.h"
#include "static/rewrite/rewrite.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/name_section.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::static_analysis::rewrite {
namespace {

using wasm::FuncType;
using wasm::Function;
using wasm::FunctionBuilder;
using wasm::Instr;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;

/** Three defined functions f0 -> f1 -> f2 (chained calls), f0
 * exported as "main", all carrying debug names. */
Module
chainModule()
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) { f.call(1); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.call(2); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    Module m = mb.build();
    m.functions[0].debugName = "entry";
    m.functions[1].debugName = "middle";
    m.functions[2].debugName = "leaf";
    wasm::buildNameSection(m);
    return m;
}

/** Invoke exported @p entry with no arguments on @p engine and return
 * (results, trap). */
std::pair<std::vector<Value>, std::optional<interp::TrapKind>>
run(const Module &m, const std::string &entry, interp::EngineKind engine)
{
    auto inst = interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    interp.engine = engine;
    std::pair<std::vector<Value>, std::optional<interp::TrapKind>> out;
    try {
        out.first = interp.invokeExport(*inst, entry, {});
    } catch (const interp::Trap &t) {
        out.second = t.kind();
    }
    return out;
}

// ---------------------------------------------------------------------
// ModuleRewriter: zero-edit byte identity.

TEST(Rewriter, ZeroEditsAreByteIdentical)
{
    Module m = chainModule();
    ModuleRewriter rw(m);
    EXPECT_FALSE(rw.hasEdits());
    RewriteResult r = rw.apply();
    EXPECT_TRUE(r.remap.identity());
    EXPECT_EQ(wasm::encodeModule(r.module), wasm::encodeModule(m));
}

TEST(Rewriter, ZeroEditsOnEmptyModule)
{
    Module m;
    RewriteResult r = ModuleRewriter(m).apply();
    EXPECT_EQ(wasm::encodeModule(r.module), wasm::encodeModule(m));
}

// ---------------------------------------------------------------------
// Deletion: calls, exports, names, start, and element fixup.

TEST(Rewriter, DeleteRemapsCallsExportsAndNames)
{
    // Rebuild f0 to call f2 directly so f1 becomes deletable.
    Module m = chainModule();
    ModuleRewriter rw(m);
    rw.replaceBody(0, {Instr::call(2), Instr(Opcode::End)});
    rw.deleteFunction(1);
    RewriteResult r = rw.apply();

    ASSERT_EQ(r.module.functions.size(), 2u);
    EXPECT_EQ(r.remap.func(0), 0u);
    EXPECT_EQ(r.remap.func(1), wasm::kDeletedIndex);
    EXPECT_EQ(r.remap.func(2), 1u);
    // The rebuilt call now targets the compacted index of f2.
    EXPECT_EQ(r.module.functions[0].body[0].imm.idx, 1u);
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);

    // Export survives at its new position and still runs; the name
    // subsections followed the surviving functions.
    Module decoded = wasm::decodeModule(wasm::encodeModule(r.module));
    ASSERT_TRUE(decoded.findFuncExport("main").has_value());
    wasm::applyNameSection(decoded);
    EXPECT_EQ(decoded.functions[0].debugName, "entry");
    EXPECT_EQ(decoded.functions[1].debugName, "leaf");
    auto [results, trap] =
        run(decoded, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].i32(), 42);
}

TEST(Rewriter, CallToDeletedFunctionIsStructuredError)
{
    Module m = chainModule();
    ModuleRewriter rw(m);
    rw.deleteFunction(2); // f1 still calls it
    try {
        rw.apply();
        FAIL() << "expected RemapError";
    } catch (const wasm::RemapError &e) {
        EXPECT_EQ(e.code(), "remap.call-deleted-function");
    }
}

TEST(Rewriter, DeleteExportedFunctionIsRefused)
{
    Module m = chainModule();
    ModuleRewriter rw(m);
    rw.deleteFunction(0);
    try {
        rw.apply();
        FAIL() << "expected RewriteError";
    } catch (const RewriteError &e) {
        EXPECT_EQ(e.code(), "rewrite.delete-exported");
    }
}

TEST(Rewriter, StartSectionIsRetargeted)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "keep",
                   [](FunctionBuilder &f) { f.i32Const(1); });
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    mb.start(2);
    Module m = mb.build();

    ModuleRewriter rw(m);
    rw.deleteFunction(1);
    RewriteResult r = rw.apply();
    EXPECT_EQ(r.module.start, std::optional<uint32_t>(1));
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);
}

TEST(Rewriter, DeletingTheStartFunctionIsStructuredError)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    mb.start(0);
    Module m = mb.build();
    ModuleRewriter rw(m);
    rw.deleteFunction(0);
    try {
        rw.apply();
        FAIL() << "expected RemapError";
    } catch (const wasm::RemapError &e) {
        EXPECT_EQ(e.code(), "remap.start-deleted-function");
    }
}

TEST(Rewriter, ElementReferencingDeletedFunctionIsStructuredError)
{
    ModuleBuilder mb;
    mb.table(2, 2);
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) { f.i32Const(0); });
    uint32_t victim = mb.addFunction(FuncType({}, {ValType::I32}), "",
                                     [](FunctionBuilder &f) {
                                         f.i32Const(9);
                                     });
    mb.elem(0, {victim});
    Module m = mb.build();

    ModuleRewriter rw(m);
    rw.deleteFunction(victim);
    try {
        rw.apply();
        FAIL() << "expected RemapError";
    } catch (const wasm::RemapError &e) {
        EXPECT_EQ(e.code(), "remap.element-deleted-function");
    }

    // Replacing the element list first makes the same deletion legal.
    ModuleRewriter rw2(m);
    rw2.setElementFuncs(0, {0});
    rw2.deleteFunction(victim);
    RewriteResult r = rw2.apply();
    EXPECT_EQ(r.module.elements[0].funcIdxs,
              (std::vector<uint32_t>{0}));
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);
}

// ---------------------------------------------------------------------
// Additions: handles in calls, elements, and start.

TEST(Rewriter, AddedFunctionsResolveHandles)
{
    ModuleBuilder mb;
    mb.table(2, 2);
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) { f.i32Const(0); });
    mb.elem(0, {0});
    Module m = mb.build();

    ModuleRewriter rw(m);
    Function neu;
    neu.typeIdx = rw.addType(FuncType({}, {ValType::I32}));
    neu.body = {Instr::i32Const(77), Instr(Opcode::End)};
    uint32_t handle = rw.addFunction(neu);
    EXPECT_GE(handle, kNewFuncHandle);
    // Reference the new function from a replaced body, the element
    // section, and the start-style index surface all at once.
    rw.replaceBody(0, {Instr::call(handle), Instr(Opcode::End)});
    rw.setElementFuncs(0, {0, handle});
    RewriteResult r = rw.apply();

    ASSERT_EQ(r.newFunctionIndices.size(), 1u);
    uint32_t idx = r.newFunctionIndices[0];
    EXPECT_EQ(idx, 1u);
    EXPECT_EQ(r.module.functions[0].body[0].imm.idx, idx);
    EXPECT_EQ(r.module.elements[0].funcIdxs,
              (std::vector<uint32_t>{0, idx}));
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);
    auto [results, trap] =
        run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 77);
}

TEST(Rewriter, UnknownHandleIsStructuredError)
{
    Module m = chainModule();
    ModuleRewriter rw(m);
    rw.replaceBody(0, {Instr::call(kNewFuncHandle + 5),
                       Instr(Opcode::End)});
    try {
        rw.apply();
        FAIL() << "expected RewriteError";
    } catch (const RewriteError &e) {
        EXPECT_EQ(e.code(), "rewrite.bad-handle");
    }
}

TEST(Rewriter, EmptyModuleGrowsFromNothing)
{
    Module m;
    ModuleRewriter rw(m);
    Function f;
    f.typeIdx = rw.addType(FuncType({}, {ValType::I32}));
    f.body = {Instr::i32Const(5), Instr(Opcode::End)};
    rw.addFunction(f);
    RewriteResult r = rw.apply();
    ASSERT_EQ(r.module.functions.size(), 1u);
    ASSERT_EQ(r.module.types.size(), 1u);
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);
}

TEST(Rewriter, GlobalEditsAndTypeDedup)
{
    ModuleBuilder mb;
    mb.global(ValType::I32, true, Value::makeI32(3));
    mb.addFunction(FuncType({}, {ValType::I32}),
                   "main", [](FunctionBuilder &f) { f.globalGet(0); });
    Module m = mb.build();

    ModuleRewriter rw(m);
    // addType of an existing signature reuses the existing index.
    EXPECT_EQ(rw.addType(FuncType({}, {ValType::I32})), 0u);
    wasm::Global g;
    g.type = ValType::I64;
    g.mut = false;
    g.init = {Instr::i64Const(8), Instr(Opcode::End)};
    EXPECT_EQ(rw.addGlobal(g), 1u);
    rw.setGlobalInit(0, {Instr::i32Const(11), Instr(Opcode::End)});
    RewriteResult r = rw.apply();
    ASSERT_EQ(r.module.globals.size(), 2u);
    EXPECT_EQ(r.module.globals[0].init[0].imm.i32v, 11);
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);
    auto [results, trap] =
        run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 11);
}

TEST(Rewriter, BadIndicesAreRefusedUpFront)
{
    Module m = chainModule();
    ModuleRewriter rw(m);
    EXPECT_THROW(rw.deleteFunction(99), RewriteError);
    EXPECT_THROW(rw.replaceBody(99, {Instr(Opcode::End)}), RewriteError);
    EXPECT_THROW(rw.setElementFuncs(0, {}), RewriteError);
    EXPECT_THROW(rw.setGlobalInit(0, {Instr(Opcode::End)}), RewriteError);
    Function imported;
    imported.typeIdx = 0;
    imported.import = wasm::ImportRef{"env", "f"};
    EXPECT_THROW(rw.addFunction(imported), RewriteError);
}

// ---------------------------------------------------------------------
// Optimization passes.

TEST(Opt, DeadFunctionStripping)
{
    Module m = chainModule(); // all three reachable: nothing to strip
    OptResult r0 = optimize(m, {"dead-functions"});
    EXPECT_TRUE(r0.claims.strippedFunctions.empty());

    // Orphan f1 by short-circuiting f0 past it.
    m.functions[0].body = {Instr::call(2), Instr(Opcode::End)};
    OptResult r = optimize(m, {"dead-functions"});
    EXPECT_EQ(r.claims.strippedFunctions,
              (std::vector<uint32_t>{1}));
    ASSERT_EQ(r.module.functions.size(), 2u);
    EXPECT_EQ(wasm::validationError(r.module), std::nullopt);
    auto [results, trap] = run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 42);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, CallIndirectWithConstantIndexBecomesDirectCall)
{
    ModuleBuilder mb;
    mb.table(1, 1);
    FuncType t({}, {ValType::I32});
    uint32_t callee = mb.addFunction(t, "", [](FunctionBuilder &f) {
        f.i32Const(31);
    });
    FunctionBuilder fb = mb.startFunction(t, "main");
    fb.i32Const(0); // constant table index
    fb.callIndirect(mb.type(t));
    fb.finish();
    mb.elem(0, {callee});
    Module m = mb.build();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    OptResult r = optimize(m, {"call-indirect"});
    ASSERT_EQ(r.claims.directCalls.size(), 1u);
    EXPECT_EQ(r.claims.directCalls[0].target, callee);
    // The site is now drop + direct call, and behaves identically.
    uint32_t site = r.claims.directCalls[0].instr;
    const std::vector<Instr> &body =
        r.module.functions[r.claims.directCalls[0].func].body;
    EXPECT_EQ(body[site].op, Opcode::Drop);
    EXPECT_EQ(body[site + 1].op, Opcode::Call);
    EXPECT_EQ(body[site + 1].imm.idx, callee);
    auto [o, ot] = run(m, "main", interp::EngineKind::Fast);
    auto [p, pt] = run(r.module, "main", interp::EngineKind::Fast);
    EXPECT_EQ(o, p);
    EXPECT_EQ(ot, pt);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, ConstFoldCollapsesAdjacentConstants)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(2);
                       f.i32Const(3);
                       f.op(Opcode::I32Add);
                       f.i32Const(10);
                       f.op(Opcode::I32Mul);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"const-fold"});
    // (2+3)*10 collapses all the way to one constant: the first fold's
    // result constant re-combines with the following multiply.
    ASSERT_GE(r.claims.constFolds.size(), 2u);
    ASSERT_EQ(r.module.functions[0].body.size(), 2u);
    EXPECT_EQ(r.module.functions[0].body[0].imm.i32v, 50);
    auto [results, trap] = run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 50);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, ConstFoldNeverFoldsTrappingDivision)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(1);
                       f.i32Const(0);
                       f.op(Opcode::I32DivU); // traps: must be kept
                   });
    Module m = mb.build();
    OptResult r = optimize(m, {"const-fold"});
    EXPECT_TRUE(r.claims.constFolds.empty());
    auto [o, ot] = run(m, "main", interp::EngineKind::Fast);
    auto [p, pt] = run(r.module, "main", interp::EngineKind::Fast);
    EXPECT_EQ(ot, pt);
    EXPECT_TRUE(pt.has_value()); // still traps
}

TEST(Opt, DeadStoresBecomeDrops)
{
    ModuleBuilder mb;
    FunctionBuilder fb =
        mb.startFunction(FuncType({}, {ValType::I32}), "main");
    uint32_t tmp = fb.addLocal(ValType::I32);
    fb.i32Const(5);
    fb.localSet(tmp); // never read again
    fb.i32Const(1);
    fb.finish();
    Module m = mb.build();

    OptResult r = optimize(m, {"dead-stores"});
    ASSERT_EQ(r.claims.deadStores.size(), 1u);
    EXPECT_EQ(
        r.module.functions[0].body[r.claims.deadStores[0].instr].op,
        Opcode::Drop);
    auto [results, trap] = run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 1);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, EmptyBlocksAreDeleted)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.block();
                       f.end();
                       f.loop();
                       f.end();
                       f.i32Const(4);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"empty-blocks"});
    EXPECT_EQ(r.claims.emptyBlocks.size(), 2u);
    ASSERT_EQ(r.module.functions[0].body.size(), 2u); // const + end
    auto [results, trap] = run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 4);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, UnknownPassIsRefused)
{
    Module m = chainModule();
    EXPECT_THROW(optimize(m, {"inline-everything"}), RewriteError);
    EXPECT_TRUE(isOptPass("dead-functions"));
    EXPECT_FALSE(isOptPass("inline-everything"));
    EXPECT_EQ(allOptPasses().size(), 5u);
}

// ---------------------------------------------------------------------
// Pass-spec parsing (the `--passes=` CLI contract).

TEST(Opt, ParsePassSpecAcceptsSubsetsAndRejectsUnknownNames)
{
    EXPECT_EQ(parsePassSpec("all"), allOptPasses());
    EXPECT_EQ(parsePassSpec(""), allOptPasses());
    EXPECT_EQ(parsePassSpec("const-fold,dead-stores"),
              (std::vector<std::string>{"const-fold", "dead-stores"}));

    // "ipo-const" was a pass once; it is as unknown as any typo now.
    for (const char *bad : {"inline-everything", "ipo-const"}) {
        try {
            parsePassSpec(std::string("dead-functions,") + bad);
            FAIL() << "expected RewriteError for " << bad;
        } catch (const RewriteError &e) {
            EXPECT_EQ(e.code(), "opt.unknown-pass");
            // The usage error names the offender and lists every valid
            // pass so the CLI message is self-describing.
            EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
            for (const std::string &p : allOptPasses())
                EXPECT_NE(std::string(e.what()).find(p),
                          std::string::npos)
                    << p;
        }
    }
    EXPECT_THROW(parsePassSpec("dead-functions,,const-fold"),
                 RewriteError);
}

// ---------------------------------------------------------------------
// Manifest round trip and checker accept/reject.

TEST(OptManifest, RoundTripsAllClaimKinds)
{
    OptClaims claims;
    claims.passes = allOptPasses();
    claims.strippedFunctions = {3, 7};
    claims.directCalls = {{1, 2, 3, 4}};
    claims.constFolds = {{0, 5, 3, 0xFFFFFFFFu}};
    claims.deadStores = {{2, 9, 1}};
    claims.emptyBlocks = {{4, 0}};

    std::string text = claimsToManifest(claims);
    std::optional<json::Value> doc = json::parse(text, nullptr);
    ASSERT_TRUE(doc.has_value());
    const json::Value *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, manifest::kOptSchema);
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(claimsFromManifest(text, parsed, &error)) << error;
    EXPECT_EQ(parsed.passes, claims.passes);
    EXPECT_EQ(parsed.strippedFunctions, claims.strippedFunctions);
    ASSERT_EQ(parsed.directCalls.size(), 1u);
    EXPECT_EQ(parsed.directCalls[0].target, 4u);
    ASSERT_EQ(parsed.constFolds.size(), 1u);
    EXPECT_EQ(parsed.constFolds[0].value, 0xFFFFFFFFu);
    ASSERT_EQ(parsed.deadStores.size(), 1u);
    EXPECT_EQ(parsed.deadStores[0].local, 1u);
    ASSERT_EQ(parsed.emptyBlocks.size(), 1u);
    EXPECT_EQ(parsed.totalClaims(), claims.totalClaims());
}

TEST(OptManifest, MalformedInputIsRejected)
{
    OptClaims claims;
    std::string error;
    EXPECT_FALSE(claimsFromManifest("not json", claims, &error));
    EXPECT_FALSE(claimsFromManifest(
        "{\"schema\": \"wasabi-opt-manifest\", \"version\": 2}", claims,
        &error));
    // Numbers must be integers in [0, 2^32-1], never rounded.
    for (const char *rows :
         {"\"strippedFunctions\": [-1]", "\"strippedFunctions\": [1.5]",
          "\"strippedFunctions\": [4294967296]",
          "\"directCalls\": [[0, 1, 2, -1]]",
          "\"constFolds\": [[0, 1, 1.5, 3]]",
          "\"emptyBlocks\": [[4294967296, 0]]",
          // A claim kind of the retired interprocedural passes is an
          // unknown field like any other, even when empty.
          "\"ipoConstArgs\": []"}) {
        std::string text =
            std::string("{\"schema\": \"wasabi-opt-manifest\", "
                        "\"version\": 1, ") +
            rows + "}";
        OptClaims parsed;
        error.clear();
        EXPECT_FALSE(claimsFromManifest(text, parsed, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }

    // A retired pass name is well-formed JSON, so the reader keeps it;
    // the checker refuses it like any unknown pass.
    OptClaims stale;
    ASSERT_TRUE(claimsFromManifest(
        "{\"schema\": \"wasabi-opt-manifest\", \"version\": 1, "
        "\"passes\": [\"dead-functions\", \"inline\"]}",
        stale, &error))
        << error;
    Module m = chainModule();
    Diagnostics ds = checkOptimization(m, wasm::encodeModule(m), stale);
    EXPECT_TRUE(ds.hasCode("check.opt.unknown-pass")) << toString(ds);
}

TEST(OptManifest, DuplicateKeyIsRejected)
{
    // Duplicated claim arrays used to merge silently; with a tree
    // reader the first would win. Either way the claim set would not
    // be the one the manifest's author saw, so it is rejected.
    OptClaims claims;
    claims.passes = allOptPasses();
    claims.directCalls = {{1, 2, 3, 4}};
    std::string text = claimsToManifest(claims);
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(claimsFromManifest(text, parsed, &error)) << error;
    for (const char *dup :
         {"\"directCalls\": [[5, 6, 7, 8]], ", "\"passes\": [], ",
          "\"version\": 1, ", "\"schema\": \"wasabi-opt-manifest\", "}) {
        std::string bad = text;
        bad.insert(bad.find('{') + 1, dup);
        OptClaims again;
        EXPECT_FALSE(claimsFromManifest(bad, again, &error)) << bad;
        EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    }
}

TEST(OptCheck, RejectsTamperedBinary)
{
    Module m = chainModule();
    m.functions[0].body = {Instr::call(2), Instr(Opcode::End)};
    OptResult r = optimize(m, allOptPasses());
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
    ASSERT_TRUE(checkOptimization(m, bytes, r.claims).empty());

    // Flip the constant in the surviving leaf body: the claims no
    // longer describe this binary.
    std::vector<uint8_t> tampered = bytes;
    bool flipped = false;
    for (size_t i = tampered.size(); i-- > 0;) {
        if (tampered[i] == 42) {
            tampered[i] = 43;
            flipped = true;
            break;
        }
    }
    ASSERT_TRUE(flipped);
    Diagnostics ds = checkOptimization(m, tampered, r.claims);
    ASSERT_FALSE(ds.empty());
    EXPECT_TRUE(ds.hasCode("check.opt.output-mismatch")) << toString(ds);
}

TEST(OptCheck, RejectsForgedClaims)
{
    Module m = chainModule();
    m.functions[0].body = {Instr::call(2), Instr(Opcode::End)};
    OptResult r = optimize(m, allOptPasses());
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);

    {
        // A dead-store claim the liveness pass does not prove.
        OptClaims forged = r.claims;
        forged.deadStores.push_back({0, 0, 0});
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.bad-dead-store"))
            << toString(ds);
    }
    {
        // Stripping a function reachability proves live.
        OptClaims forged = r.claims;
        forged.strippedFunctions.push_back(0);
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.bad-dead-function"))
            << toString(ds);
    }
    {
        // A claim for a pass the manifest does not list.
        OptClaims forged = r.claims;
        forged.passes = {"dead-functions"};
        forged.directCalls.push_back({0, 0, 0, 0});
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.orphan-claims"))
            << toString(ds);
    }
    {
        // An unknown pass name.
        OptClaims forged = r.claims;
        forged.passes.push_back("inline-everything");
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.unknown-pass"))
            << toString(ds);
    }
}

// ---------------------------------------------------------------------
// End-to-end over generated corpora: optimize with all passes, check
// the manifest, and differentially execute original vs optimized on
// both engines — uninstrumented and instrumented.

struct Outcome {
    std::vector<Value> results;
    std::optional<interp::TrapKind> trap;
    std::vector<uint8_t> memory;

    bool operator==(const Outcome &other) const = default;
};

Outcome
runWorkload(const Module &m, const workloads::Workload &w,
            interp::EngineKind engine)
{
    Outcome out;
    auto inst = interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    interp.engine = engine;
    try {
        out.results = interp.invokeExport(*inst, w.entry, w.args);
    } catch (const interp::Trap &t) {
        out.trap = t.kind();
    }
    out.memory = inst->memory().raw();
    return out;
}

/** Optimize with every pass, verify the claim manifest, and require
 * observational equivalence in all four engine/module combinations,
 * plus hook-stream agreement when instrumenting the optimized module. */
void
expectOptimizationFaithful(const workloads::Workload &w)
{
    ASSERT_EQ(wasm::validationError(w.module), std::nullopt) << w.name;
    OptResult r = optimize(w.module, allOptPasses());
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt) << w.name;

    // Manifest survives serialization and re-proves.
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(
        claimsFromManifest(claimsToManifest(r.claims), parsed, &error))
        << w.name << ": " << error;
    Diagnostics ds = checkOptimization(
        w.module, wasm::encodeModule(r.module), parsed);
    EXPECT_TRUE(ds.empty()) << w.name << "\n" << toString(ds);

    // 4-way differential: original/optimized x legacy/fast.
    Outcome ol = runWorkload(w.module, w, interp::EngineKind::Legacy);
    Outcome of = runWorkload(w.module, w, interp::EngineKind::Fast);
    Outcome pl = runWorkload(r.module, w, interp::EngineKind::Legacy);
    Outcome pf = runWorkload(r.module, w, interp::EngineKind::Fast);
    EXPECT_TRUE(ol == of) << w.name << ": engines disagree (original)";
    EXPECT_TRUE(ol == pl) << w.name << ": optimization changed behavior";
    EXPECT_TRUE(ol == pf) << w.name << ": optimization changed behavior";

    // Instrumenting *after* optimization must still agree between
    // engines, including the number of dispatched hooks.
    core::InstrumentResult ir =
        core::instrument(r.module, core::HookSet::all());
    uint64_t hooks[2];
    Outcome outs[2];
    for (int e = 0; e < 2; ++e) {
        runtime::WasabiRuntime rt(ir.info);
        analyses::InstructionMix mix;
        rt.addAnalysis(&mix);
        auto inst = rt.instantiate(ir.module);
        interp::Interpreter interp;
        interp.engine = e == 0 ? interp::EngineKind::Legacy
                               : interp::EngineKind::Fast;
        try {
            outs[e].results = interp.invokeExport(*inst, w.entry, w.args);
        } catch (const interp::Trap &t) {
            outs[e].trap = t.kind();
        }
        outs[e].memory = inst->memory().raw();
        hooks[e] = rt.hookInvocations();
    }
    EXPECT_TRUE(outs[0] == outs[1])
        << w.name << ": instrumented engines disagree";
    EXPECT_EQ(hooks[0], hooks[1]) << w.name;
    EXPECT_GT(hooks[0], 0u) << w.name;
}

TEST(OptDifferential, PolybenchKernels)
{
    for (const workloads::Workload &w : workloads::polybenchSuite(6))
        expectOptimizationFaithful(w);
}

TEST(OptDifferential, RandomProgramsWithIndirectCalls)
{
    for (uint64_t seed = 100; seed < 112; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 10;
        opts.stmtsPerFunction = 14;
        opts.indirectCallPct = 30;
        opts.constIndexIndirectPct = 60;
        expectOptimizationFaithful(workloads::randomProgram(opts));
    }
    // A second corpus: smaller functions, fewer indirect calls.
    for (uint64_t seed = 300; seed < 340; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 8;
        opts.stmtsPerFunction = 10;
        opts.indirectCallPct = 25;
        opts.constIndexIndirectPct = 50;
        expectOptimizationFaithful(workloads::randomProgram(opts));
    }
}

TEST(OptDifferential, SyntheticAppShrinks)
{
    workloads::Workload w =
        workloads::syntheticApp(workloads::AppSize::Small);
    OptResult r = optimize(w.module, allOptPasses());
    EXPECT_GT(r.claims.totalClaims(), 0u);
    EXPECT_LT(wasm::encodeModule(r.module).size(),
              wasm::encodeModule(w.module).size());
    Diagnostics ds = checkOptimization(
        w.module, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
    expectOptimizationFaithful(w);

    // The medium app is too slow to execute four ways here; optimizing
    // and re-proving every claim still covers the static side.
    workloads::Workload medium =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    OptResult rm = optimize(medium.module, allOptPasses());
    std::vector<uint8_t> optimized = wasm::encodeModule(rm.module);
    EXPECT_LT(optimized.size(), wasm::encodeModule(medium.module).size());
    ds = checkOptimization(medium.module, optimized, rm.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

} // namespace
} // namespace wasabi::static_analysis::rewrite
