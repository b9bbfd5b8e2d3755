/**
 * @file
 * Tests for the interprocedural optimization layer: the sparse
 * constant/range propagation solver (interproc/ipcp) — lattice facts,
 * pinning, purity/termination proofs, and thread-count invariance of
 * its JSON rendering — plus the three analysis-proven passes built on
 * it (`ipo-const`, `inline`, `table-compact`), their claim-manifest
 * round trip, the checker's per-kind tamper rejection, and the 4-way
 * engine-differential gate over the generated corpora.
 */

#include <gtest/gtest.h>

#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "static/interproc/ipcp.h"
#include "static/manifest.h"
#include "static/rewrite/opt.h"
#include "static/rewrite/rewrite.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::static_analysis::rewrite {
namespace {

using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Instr;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;

/** Invoke exported @p entry on @p engine: (results, trap). */
std::pair<std::vector<Value>, std::optional<interp::TrapKind>>
run(const Module &m, const std::string &entry,
    const std::vector<Value> &args = {},
    interp::EngineKind engine = interp::EngineKind::Fast)
{
    auto inst = interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    interp.engine = engine;
    std::pair<std::vector<Value>, std::optional<interp::TrapKind>> out;
    try {
        out.first = interp.invokeExport(*inst, entry, args);
    } catch (const interp::Trap &t) {
        out.second = t.kind();
    }
    return out;
}

int32_t
runI32(const Module &m, const std::string &entry,
       const std::vector<Value> &args = {})
{
    auto [results, trap] = run(m, entry, args);
    EXPECT_FALSE(trap.has_value());
    EXPECT_EQ(results.size(), 1u);
    return results.empty() ? 0 : results[0].i32();
}

// ---------------------------------------------------------------------
// The ipcp solver: argument lattices, pinning, return lattices.

TEST(Ipcp, ConstantArgumentsReachPrivateCallee)
{
    // main passes (7, 3) and (7, 4): param 0 is the constant 7, param
    // 1 is the non-constant hull [3, 4].
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(7).i32Const(3).call(1);
                       f.i32Const(7).i32Const(4).call(1);
                       f.op(Opcode::I32Add);
                   });
    mb.addFunction(FuncType({ValType::I32, ValType::I32},
                            {ValType::I32}),
                   "", [](FunctionBuilder &f) {
                       f.localGet(0).localGet(1).op(Opcode::I32Add);
                   });
    Module m = mb.build();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    interproc::ModuleIpcp ipcp = interproc::ipcpSolve(m);
    ASSERT_EQ(ipcp.functions.size(), 2u);
    EXPECT_TRUE(ipcp.functions[0].pinned); // exported root
    const interproc::FunctionIpcp &callee = ipcp.functions[1];
    EXPECT_FALSE(callee.pinned);
    ASSERT_EQ(callee.args.size(), 2u);
    EXPECT_TRUE(callee.args[0].isConst());
    EXPECT_EQ(callee.args[0].lo, 7u);
    EXPECT_FALSE(callee.args[1].isConst());
    EXPECT_EQ(callee.args[1].lo, 3u);
    EXPECT_EQ(callee.args[1].hi, 4u);
}

TEST(Ipcp, IndirectTargetsAndRecursiveFunctionsArePinned)
{
    ModuleBuilder mb;
    uint32_t t = mb.table(1);
    (void)t;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(9).call(1);
                       f.i32Const(5).i32Const(0).callIndirect(1);
                       f.op(Opcode::I32Add);
                       f.i32Const(2).call(2).op(Opcode::I32Add);
                   });
    // Element-segment target: pinned even though also called with a
    // constant argument.
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.localGet(0); });
    // Direct self recursion: pinned, not terminating.
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.localGet(0).if_(ValType::I32);
                       f.localGet(0).i32Const(1).op(Opcode::I32Sub);
                       f.call(2);
                       f.else_().i32Const(0).end();
                   });
    mb.elem(0, {1});
    Module m = mb.build();
    // Fix the call_indirect type immediate to f1's actual type.
    for (Instr &ins : m.functions[0].body) {
        if (ins.op == Opcode::CallIndirect)
            ins.imm.idx = m.functions[1].typeIdx;
    }
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    interproc::ModuleIpcp ipcp = interproc::ipcpSolve(m);
    EXPECT_TRUE(ipcp.functions[1].pinned) << "indirect target";
    ASSERT_EQ(ipcp.functions[1].args.size(), 1u);
    EXPECT_FALSE(ipcp.functions[1].args[0].isConst());
    EXPECT_TRUE(ipcp.functions[2].pinned) << "self recursion";
    EXPECT_FALSE(ipcp.functions[2].terminates);
}

TEST(Ipcp, PurityAndTerminationProofs)
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.call(1).call(2).op(Opcode::I32Add);
                       f.call(3).op(Opcode::I32Add);
                   });
    // Pure, loop-free, constant return.
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    // A store: not pure (still terminates).
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.i32Const(0).i32Const(1).i32Store();
                       f.i32Const(5);
                   });
    // A loop: termination not provable (still pure).
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       uint32_t i = f.addLocal(ValType::I32);
                       f.forLoop(i, 0, 3, [&] {});
                       f.i32Const(6);
                   });
    Module m = mb.build();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    interproc::ModuleIpcp ipcp = interproc::ipcpSolve(m);
    EXPECT_TRUE(ipcp.functions[1].pure);
    EXPECT_TRUE(ipcp.functions[1].terminates);
    ASSERT_TRUE(ipcp.functions[1].retKnown);
    EXPECT_TRUE(ipcp.functions[1].ret.isConst());
    EXPECT_EQ(ipcp.functions[1].ret.lo, 42u);

    EXPECT_FALSE(ipcp.functions[2].pure);
    EXPECT_TRUE(ipcp.functions[2].terminates);

    EXPECT_TRUE(ipcp.functions[3].pure);
    EXPECT_FALSE(ipcp.functions[3].terminates);
}

TEST(Ipcp, JsonIsByteIdenticalAcrossThreadCounts)
{
    std::vector<workloads::Workload> corpus;
    corpus.push_back(workloads::syntheticApp(workloads::AppSize::Small));
    for (const auto &w : workloads::polybenchSuite(4))
        corpus.push_back(w);
    for (uint64_t seed = 50; seed < 54; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 10;
        opts.indirectCallPct = 25;
        corpus.push_back(workloads::randomProgram(opts));
    }
    for (const auto &w : corpus) {
        std::string one = interproc::ipcpToJson(
            w.module, interproc::ipcpSolve(w.module, 1));
        for (unsigned threads : {2u, 8u}) {
            std::string other = interproc::ipcpToJson(
                w.module, interproc::ipcpSolve(w.module, threads));
            EXPECT_EQ(one, other)
                << w.name << " at " << threads << " threads";
        }
    }
}

// ---------------------------------------------------------------------
// ipo-const: constant arguments and constant returns.

TEST(IpoConst, PropagatesConstantArgumentIntoCallee)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(7).call(1);
                       f.i32Const(7).call(1).op(Opcode::I32Add);
                   });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.localGet(0).localGet(0).op(Opcode::I32Mul);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"ipo-const"});
    ASSERT_EQ(r.claims.ipoConstArgs.size(), 2u);
    EXPECT_EQ(r.claims.ipoConstArgs[0].func, 1u);
    EXPECT_EQ(r.claims.ipoConstArgs[0].value, 7u);
    // Both local.gets in the callee became the constant.
    EXPECT_EQ(r.module.functions[1].body[0].op, Opcode::I32Const);
    EXPECT_EQ(r.module.functions[1].body[1].op, Opcode::I32Const);
    EXPECT_EQ(runI32(r.module, "main"), 98);
    EXPECT_TRUE(checkOptimization(m, wasm::encodeModule(r.module),
                                  r.claims)
                    .empty());
}

TEST(IpoConst, FoldsCallToConstantReturningPureCallee)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(1).i32Const(9).call(1);
                       f.op(Opcode::I32Add);
                   });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.i32Const(41);
                   });
    Module m = mb.build();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    OptResult r = optimize(m, {"ipo-const"});
    ASSERT_EQ(r.claims.ipoConstReturns.size(), 1u);
    EXPECT_EQ(r.claims.ipoConstReturns[0].callee, 1u);
    EXPECT_EQ(r.claims.ipoConstReturns[0].value, 41u);
    // call (1 param) -> drop + i32.const 41.
    EXPECT_EQ(runI32(r.module, "main"), 42);
    EXPECT_TRUE(checkOptimization(m, wasm::encodeModule(r.module),
                                  r.claims)
                    .empty());
}

TEST(IpoConst, ImpureOrPossiblyNonTerminatingCalleesAreNotFolded)
{
    ModuleBuilder mb;
    mb.memory(1);
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.call(1).call(2).op(Opcode::I32Add);
                   });
    // Constant return but writes memory: folding would lose the write.
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.i32Const(0).i32Const(1).i32Store();
                       f.i32Const(10);
                   });
    // Constant return but loops: folding assumes termination.
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       uint32_t i = f.addLocal(ValType::I32);
                       f.forLoop(i, 0, 2, [&] {});
                       f.i32Const(20);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"ipo-const"});
    EXPECT_TRUE(r.claims.ipoConstReturns.empty());
    EXPECT_EQ(runI32(r.module, "main"), 30);
}

TEST(IpoConst, WrittenParameterIsNotPropagated)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) { f.i32Const(7).call(1); });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.localGet(0).i32Const(1).op(Opcode::I32Add);
                       f.localSet(0);
                       f.localGet(0);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"ipo-const"});
    EXPECT_TRUE(r.claims.ipoConstArgs.empty());
    EXPECT_EQ(runI32(r.module, "main"), 8);
}

// ---------------------------------------------------------------------
// inline: splicing, local re-zeroing, return rewriting, stripping.

TEST(Inline, SplicesCalleeAndStripsIt)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(20).i32Const(22).call(1);
                   });
    mb.addFunction(FuncType({ValType::I32, ValType::I32},
                            {ValType::I32}),
                   "", [](FunctionBuilder &f) {
                       f.localGet(0).localGet(1).op(Opcode::I32Add);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"inline"});
    ASSERT_EQ(r.claims.inlinedCalls.size(), 1u);
    EXPECT_EQ(r.claims.inlinedCalls[0].callee, 1u);
    ASSERT_EQ(r.claims.inlineStripped.size(), 1u);
    EXPECT_EQ(r.claims.inlineStripped[0], 1u);
    EXPECT_EQ(r.module.numFunctions(), 1u);
    EXPECT_EQ(runI32(r.module, "main"), 42);
    EXPECT_TRUE(checkOptimization(m, wasm::encodeModule(r.module),
                                  r.claims)
                    .empty());
}

TEST(Inline, CalleeLocalsAreReZeroedInCallerLoop)
{
    // The callee accumulates into a declared local: t += x; return t.
    // Through a call, t starts at zero on every invocation, so three
    // calls with x = 5 from a caller loop sum to 15. After inlining, t
    // lives in the caller — without the explicit re-zeroing the splice
    // emits, it would keep its value across iterations (5 + 10 + 15).
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       uint32_t sum = f.addLocal(ValType::I32);
                       uint32_t i = f.addLocal(ValType::I32);
                       f.forLoop(i, 0, 3, [&] {
                           f.localGet(sum).i32Const(5).call(1);
                           f.op(Opcode::I32Add).localSet(sum);
                       });
                       f.localGet(sum);
                   });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       uint32_t t = f.addLocal(ValType::I32);
                       f.localGet(t).localGet(0).op(Opcode::I32Add);
                       f.localTee(t);
                   });
    Module m = mb.build();
    ASSERT_EQ(runI32(m, "main"), 15);

    OptResult r = optimize(m, {"inline"});
    ASSERT_EQ(r.claims.inlinedCalls.size(), 1u);
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt);
    EXPECT_EQ(runI32(r.module, "main"), 15);
}

TEST(Inline, RewritesEarlyReturnToWrapperBranch)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(7).call(1);
                       f.i32Const(0).call(1).op(Opcode::I32Add);
                   });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.localGet(0).if_();
                       f.i32Const(1).ret();
                       f.end();
                       f.i32Const(2);
                   });
    Module m = mb.build();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);
    ASSERT_EQ(runI32(m, "main"), 3);

    OptResult r = optimize(m, {"inline"});
    ASSERT_EQ(r.claims.inlinedCalls.size(), 2u);
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt);
    EXPECT_EQ(runI32(r.module, "main"), 3);
}

TEST(Inline, RecursiveCalleeKeepsItsRecursion)
{
    // fact(5) through an inlined top call: the spliced body still
    // *contains* `call fact`, so the callee survives and recursion is
    // preserved, not unrolled.
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) { f.i32Const(5).call(1); });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) {
                       f.localGet(0).i32Const(1).op(Opcode::I32LtU);
                       f.if_(ValType::I32);
                       f.i32Const(1);
                       f.else_();
                       f.localGet(0);
                       f.localGet(0).i32Const(1).op(Opcode::I32Sub);
                       f.call(1).op(Opcode::I32Mul);
                       f.end();
                   });
    Module m = mb.build();
    ASSERT_EQ(runI32(m, "main"), 120);

    OptResult r = optimize(m, {"inline"});
    ASSERT_EQ(r.claims.inlinedCalls.size(), 1u);
    EXPECT_EQ(r.claims.inlinedCalls[0].func, 0u);
    EXPECT_TRUE(r.claims.inlineStripped.empty());
    EXPECT_EQ(r.module.numFunctions(), 2u);
    EXPECT_EQ(runI32(r.module, "main"), 120);
    EXPECT_TRUE(checkOptimization(m, wasm::encodeModule(r.module),
                                  r.claims)
                    .empty());
}

// ---------------------------------------------------------------------
// table-compact: slot compaction, index patching, trap preservation.

/** Table [a, b, c, <empty>]; main uses only constant index 2. */
Module
tableModule(int32_t index)
{
    ModuleBuilder mb;
    mb.table(4);
    uint32_t ty = mb.type(FuncType({}, {ValType::I32}));
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [&](FunctionBuilder &f) {
                       f.i32Const(index).callIndirect(ty);
                   });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(10); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(20); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(30); });
    mb.elem(0, {1, 2, 3});
    Module m = mb.build();
    return m;
}

TEST(TableCompact, CompactsToReferencedSlotsAndStripsTheRest)
{
    Module m = tableModule(2);
    ASSERT_EQ(wasm::validationError(m), std::nullopt);
    ASSERT_EQ(runI32(m, "main"), 30);

    OptResult r = optimize(m, {"table-compact"});
    ASSERT_EQ(r.claims.tableSlots.size(), 1u);
    EXPECT_EQ(r.claims.tableSlots[0].oldSlot, 2u);
    EXPECT_EQ(r.claims.tableSlots[0].funcIdx, 3u);
    ASSERT_EQ(r.claims.tableIndexRewrites.size(), 1u);
    EXPECT_EQ(r.claims.tableIndexRewrites[0].oldIndex, 2u);
    EXPECT_EQ(r.claims.tableIndexRewrites[0].newIndex, 0u);
    // The two never-referenced former element targets are stripped.
    EXPECT_EQ(r.claims.tableStripped.size(), 2u);
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt);
    EXPECT_EQ(r.module.tables[0].limits.min, 1u);
    EXPECT_EQ(runI32(r.module, "main"), 30);
    EXPECT_TRUE(checkOptimization(m, wasm::encodeModule(r.module),
                                  r.claims)
                    .empty());
}

TEST(TableCompact, DynamicIndexVetoesTheWholePass)
{
    Module m = tableModule(2);
    // Turn the constant index into a dynamic one: 1 + 1.
    m.functions[0].body.insert(
        m.functions[0].body.begin(),
        {Instr::i32Const(1), Instr::i32Const(1)});
    m.functions[0].body[2] = Instr(Opcode::I32Add);
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    OptResult r = optimize(m, {"table-compact"});
    EXPECT_TRUE(r.claims.tableSlots.empty());
    EXPECT_TRUE(r.claims.tableIndexRewrites.empty());
    EXPECT_TRUE(r.claims.tableStripped.empty());
    EXPECT_EQ(r.module.tables[0].limits.min, 4u);
    EXPECT_EQ(runI32(r.module, "main"), 30);
}

TEST(TableCompact, EmptySlotHitVetoesAndPreservesTheTrap)
{
    // Index 3 is declared but never initialized: the call traps, and
    // the pass must leave the module alone so it still traps.
    Module m = tableModule(3);
    ASSERT_EQ(wasm::validationError(m), std::nullopt);
    OptResult r = optimize(m, {"table-compact"});
    EXPECT_EQ(r.claims.totalClaims(), 0u);
    auto [results, trap] = run(r.module, "main");
    EXPECT_TRUE(trap.has_value());
}

// ---------------------------------------------------------------------
// Pass-spec parsing (the `--passes=` CLI contract).

TEST(Opt, ParsePassSpecAcceptsSubsetsAndRejectsUnknownNames)
{
    EXPECT_EQ(parsePassSpec("all"), allOptPasses());
    EXPECT_EQ(parsePassSpec(""), allOptPasses());
    EXPECT_EQ(parsePassSpec("inline,table-compact"),
              (std::vector<std::string>{"inline", "table-compact"}));
    EXPECT_EQ(allOptPasses().size(), 8u);

    try {
        parsePassSpec("dead-functions,inline-everything");
        FAIL() << "expected RewriteError";
    } catch (const RewriteError &e) {
        EXPECT_EQ(e.code(), "opt.unknown-pass");
        // The usage error names the offender and lists every valid
        // pass so the CLI message is self-describing.
        EXPECT_NE(std::string(e.what()).find("inline-everything"),
                  std::string::npos);
        for (const std::string &p : allOptPasses())
            EXPECT_NE(std::string(e.what()).find(p),
                      std::string::npos)
                << p;
    }
    EXPECT_THROW(parsePassSpec("dead-functions,,inline"), RewriteError);
}

// ---------------------------------------------------------------------
// Manifest round trip and per-kind tamper rejection.

TEST(OptManifest, RoundTripsIpoClaimKinds)
{
    OptClaims claims;
    claims.passes = allOptPasses();
    claims.ipoConstArgs = {{1, 2, 0, 7}};
    claims.ipoConstReturns = {{0, 4, 3, 42}};
    claims.inlinedCalls = {{0, 9, 5}};
    claims.inlineStripped = {5};
    claims.tableSlots = {{2, 3}, {5, 1}};
    claims.tableIndexRewrites = {{0, 1, 2, 0}};
    claims.tableStripped = {4, 6};

    std::string text = claimsToManifest(claims);
    std::optional<json::Value> doc = json::parse(text, nullptr);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(manifestKind(*doc, nullptr), ManifestKind::Opt);
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(claimsFromManifest(text, parsed, &error)) << error;
    EXPECT_EQ(parsed.ipoConstArgs, claims.ipoConstArgs);
    EXPECT_EQ(parsed.ipoConstReturns, claims.ipoConstReturns);
    EXPECT_EQ(parsed.inlinedCalls, claims.inlinedCalls);
    EXPECT_EQ(parsed.inlineStripped, claims.inlineStripped);
    EXPECT_EQ(parsed.tableSlots, claims.tableSlots);
    EXPECT_EQ(parsed.tableIndexRewrites, claims.tableIndexRewrites);
    EXPECT_EQ(parsed.tableStripped, claims.tableStripped);
    EXPECT_EQ(parsed.totalClaims(), claims.totalClaims());
}

TEST(OptCheck, RejectsForgedIpoConstClaims)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(7).call(1);
                       f.call(2).op(Opcode::I32Add);
                   });
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.localGet(0); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(5); });
    Module m = mb.build();
    OptResult r = optimize(m, {"ipo-const"});
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
    ASSERT_TRUE(checkOptimization(m, bytes, r.claims).empty());

    {
        // Wrong constant for a provable site.
        OptClaims forged = r.claims;
        ASSERT_FALSE(forged.ipoConstArgs.empty());
        forged.ipoConstArgs[0].value ^= 1;
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-ipo-const-arg"))
            << toString(ds);
    }
    {
        // A fold claim for a non-constant callee return.
        OptClaims forged = r.claims;
        ASSERT_FALSE(forged.ipoConstReturns.empty());
        forged.ipoConstReturns[0].value += 1;
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-ipo-const-return"))
            << toString(ds);
    }
    {
        // Claims for a pass the manifest does not list.
        OptClaims forged = r.claims;
        forged.passes = {"dead-functions"};
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.orphan-claims"))
            << toString(ds);
    }
}

TEST(OptCheck, RejectsForgedInlineClaims)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(1).i32Const(2).call(1);
                   });
    mb.addFunction(FuncType({ValType::I32, ValType::I32},
                            {ValType::I32}),
                   "", [](FunctionBuilder &f) {
                       f.localGet(0).localGet(1).op(Opcode::I32Add);
                   });
    Module m = mb.build();
    OptResult r = optimize(m, {"inline"});
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
    ASSERT_TRUE(checkOptimization(m, bytes, r.claims).empty());

    {
        // An inline claim for an instruction that is not a call.
        OptClaims forged = r.claims;
        forged.inlinedCalls.push_back({0, 0, 1});
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-ipo-inline"))
            << toString(ds);
    }
    {
        // Stripping the exported entry.
        OptClaims forged = r.claims;
        forged.inlineStripped.insert(forged.inlineStripped.begin(), 0);
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-ipo-inline"))
            << toString(ds);
    }
    {
        OptClaims forged = r.claims;
        forged.passes = {"dead-functions"};
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.orphan-claims"))
            << toString(ds);
    }
}

TEST(OptCheck, RejectsTamperedTableCompactClaims)
{
    Module m = tableModule(2);
    OptResult r = optimize(m, {"table-compact"});
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
    ASSERT_TRUE(checkOptimization(m, bytes, r.claims).empty());

    {
        // A different function in the surviving slot.
        OptClaims forged = r.claims;
        ASSERT_FALSE(forged.tableSlots.empty());
        forged.tableSlots[0].funcIdx = 1;
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-table-compact"))
            << toString(ds);
    }
    {
        // A redirected index rewrite.
        OptClaims forged = r.claims;
        ASSERT_FALSE(forged.tableIndexRewrites.empty());
        forged.tableIndexRewrites[0].newIndex = 7;
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-table-compact"))
            << toString(ds);
    }
    {
        // Dropping a stripped function from the claim list.
        OptClaims forged = r.claims;
        ASSERT_FALSE(forged.tableStripped.empty());
        forged.tableStripped.pop_back();
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.bad-table-compact"))
            << toString(ds);
    }
    {
        OptClaims forged = r.claims;
        forged.passes = {"dead-functions"};
        Diagnostics ds = checkOptimization(m, bytes, forged);
        EXPECT_TRUE(ds.hasCode("check.opt.orphan-claims"))
            << toString(ds);
    }
}

// ---------------------------------------------------------------------
// 4-way engine differential + instrumented hook parity over the
// generated corpora, full pass list.

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

void
expectOptimizationFaithful(const workloads::Workload &w)
{
    ASSERT_EQ(wasm::validationError(w.module), std::nullopt) << w.name;
    OptResult r = optimize(w.module, allOptPasses());
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt) << w.name;

    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(
        claimsFromManifest(claimsToManifest(r.claims), parsed, &error))
        << w.name << ": " << error;
    Diagnostics ds = checkOptimization(
        w.module, wasm::encodeModule(r.module), parsed);
    EXPECT_TRUE(ds.empty()) << w.name << "\n" << toString(ds);

    Outcome ol = runWorkload(w.module, w, interp::EngineKind::Legacy);
    Outcome of = runWorkload(w.module, w, interp::EngineKind::Fast);
    Outcome pl = runWorkload(r.module, w, interp::EngineKind::Legacy);
    Outcome pf = runWorkload(r.module, w, interp::EngineKind::Fast);
    EXPECT_TRUE(ol == of) << w.name << ": engines disagree (original)";
    EXPECT_TRUE(ol == pl) << w.name << ": optimization changed behavior";
    EXPECT_TRUE(ol == pf) << w.name << ": optimization changed behavior";

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

TEST(IpoDifferential, AllPolybenchKernels)
{
    for (const workloads::Workload &w : workloads::polybenchSuite(6))
        expectOptimizationFaithful(w);
}

TEST(IpoDifferential, SyntheticApps)
{
    expectOptimizationFaithful(
        workloads::syntheticApp(workloads::AppSize::Small));
    // The larger applications are too slow to execute four ways here;
    // optimizing and re-proving every claim still covers the static
    // side (the CI smoke job runs them through the CLI gate).
    workloads::Workload w =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    OptResult r = optimize(w.module, allOptPasses());
    EXPECT_LT(wasm::encodeModule(r.module).size(),
              wasm::encodeModule(w.module).size());
    EXPECT_TRUE(checkOptimization(w.module,
                                  wasm::encodeModule(r.module),
                                  r.claims)
                    .empty());
}

TEST(IpoDifferential, FortySeedRandomCorpus)
{
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

// The full pass list must never lose to the PR-6 subset on the
// synthetic application (the new passes only add provable shrink).
TEST(IpoDifferential, FullPassListShrinksAtLeastAsMuchAsOldList)
{
    workloads::Workload w =
        workloads::syntheticApp(workloads::AppSize::Small);
    OptResult old_r = optimize(
        w.module, {"dead-functions", "call-indirect", "const-fold",
                   "dead-stores", "empty-blocks"});
    OptResult new_r = optimize(w.module, allOptPasses());
    EXPECT_LE(wasm::encodeModule(new_r.module).size(),
              wasm::encodeModule(old_r.module).size());
}

} // namespace
} // namespace wasabi::static_analysis::rewrite
