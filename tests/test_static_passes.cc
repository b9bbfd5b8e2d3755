/**
 * @file
 * Unit tests of the static pass suite behind `wasabi lint`: constant
 * propagation over locals + operand stack, reachability (unreachable
 * ranges and dead functions), dead-store detection, branch-target
 * refinement, empty-block detection, the lint driver's stable codes,
 * the backward dataflow solver on looping CFGs, and DOT label
 * escaping.
 */

#include <gtest/gtest.h>

#include "core/static_info.h"
#include "static/analyze.h"
#include "static/cfg.h"
#include "static/dataflow.h"
#include "static/dot_util.h"
#include "static/interproc/call_graph.h"
#include "static/passes/branch_refine.h"
#include "static/passes/constprop.h"
#include "static/passes/deadstore.h"
#include "static/passes/pipeline.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace wasabi::static_analysis::passes {
namespace {

using core::packLoc;
using interproc::CallGraph;
using interproc::Precision;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;

Module
singleFunction(const FuncType &type,
               const std::function<void(FunctionBuilder &)> &fill)
{
    ModuleBuilder mb;
    mb.addFunction(type, "f", fill);
    Module m = mb.build();
    validateModule(m);
    return m;
}

// ----- constant propagation ------------------------------------------

TEST(ConstProp, FoldsArithmeticIntoBrIfCondition)
{
    // 0 block / 1 const 2 / 2 const 3 / 3 mul / 4 const 6 / 5 eq /
    // 6 br_if 0 / 7 nop / 8 end / 9 end
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block();
        f.i32Const(2).i32Const(3).op(Opcode::I32Mul);
        f.i32Const(6).op(Opcode::I32Eq);
        f.brIf(0);
        f.nop();
        f.end();
    });
    ConstFacts facts = constantFacts(m, 0);
    ASSERT_EQ(facts.brIfCond.size(), 1u);
    EXPECT_EQ(facts.brIfCond.at(packLoc({0, 6})), 1u);
    EXPECT_TRUE(facts.ifCond.empty());
    EXPECT_TRUE(facts.brTableIndex.empty());
}

TEST(ConstProp, ZeroInitializedLocalIsConstant)
{
    // Non-param locals are zero-initialized by wasm semantics, so an
    // unwritten local read as an `if` condition is the constant 0.
    // 0 local.get / 1 if / 2 nop / 3 end / 4 end
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        uint32_t l = f.addLocal(ValType::I32);
        f.localGet(l).if_();
        f.nop();
        f.end();
    });
    ConstFacts facts = constantFacts(m, 0);
    ASSERT_EQ(facts.ifCond.size(), 1u);
    EXPECT_EQ(facts.ifCond.at(packLoc({0, 1})), 0u);
}

TEST(ConstProp, ParameterIsNotConstant)
{
    Module m = singleFunction(FuncType({ValType::I32}, {}),
                              [](FunctionBuilder &f) {
                                  f.localGet(0).if_();
                                  f.nop();
                                  f.end();
                              });
    EXPECT_TRUE(constantFacts(m, 0).empty());
}

TEST(ConstProp, LocalSetPropagatesAcrossBlocks)
{
    // The constant flows through a local.set into a later block:
    // 0 const 7 / 1 local.set / 2 block / 3 local.get / 4 br_if 0 /
    // 5 end / 6 end
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        uint32_t l = f.addLocal(ValType::I32);
        f.i32Const(7).localSet(l);
        f.block();
        f.localGet(l).brIf(0);
        f.end();
    });
    ConstFacts facts = constantFacts(m, 0);
    ASSERT_EQ(facts.brIfCond.size(), 1u);
    EXPECT_EQ(facts.brIfCond.at(packLoc({0, 4})), 7u);
}

TEST(ConstProp, MergePointLosesDisagreeingConstants)
{
    // The local is 1 on one path and 2 on the other: at the merge the
    // value is no longer constant.
    Module m = singleFunction(
        FuncType({ValType::I32}, {}), [](FunctionBuilder &f) {
            uint32_t l = f.addLocal(ValType::I32);
            f.localGet(0).if_();
            f.i32Const(1).localSet(l);
            f.else_();
            f.i32Const(2).localSet(l);
            f.end();
            f.localGet(l).if_();
            f.nop();
            f.end();
        });
    EXPECT_TRUE(constantFacts(m, 0).ifCond.empty());
}

// ----- reachability ---------------------------------------------------

TEST(Reachability, ReportsUnreachableRangeAndDeadFunction)
{
    ModuleBuilder mb;
    // f0 "main" (a root): block / br 0 / nop / nop / end / end — the
    // nops and the inner end can never execute.
    mb.addFunction(FuncType({}, {}), "main", [](FunctionBuilder &f) {
        f.block();
        f.br(0);
        f.nop().nop();
        f.end();
    });
    // f1: never called, not exported -> call-graph dead.
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &f) {
        f.nop();
    });
    Module m = mb.build();
    validateModule(m);

    EXPECT_EQ(CallGraph(m, Precision::Seed).deadFunctions(),
              (std::vector<uint32_t>{1}));
    std::vector<std::pair<uint32_t, uint32_t>> ranges =
        unreachableRanges(m, 0);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].first, 2u);
    EXPECT_EQ(ranges[0].second, 4u);
    EXPECT_TRUE(unreachableRanges(m, 1).empty());
}

TEST(Reachability, CleanFunctionHasNoFindings)
{
    Module m = singleFunction(FuncType({}, {ValType::I32}),
                              [](FunctionBuilder &f) { f.i32Const(1); });
    EXPECT_TRUE(unreachableRanges(m, 0).empty());
    EXPECT_TRUE(CallGraph(m, Precision::Seed).deadFunctions().empty());
}

// ----- dead stores ----------------------------------------------------

TEST(DeadStore, OverwrittenStoreIsDead)
{
    // 0 const 1 / 1 local.set (dead) / 2 const 2 / 3 local.set /
    // 4 local.get / 5 end
    Module m = singleFunction(
        FuncType({}, {ValType::I32}), [](FunctionBuilder &f) {
            uint32_t l = f.addLocal(ValType::I32);
            f.i32Const(1).localSet(l);
            f.i32Const(2).localSet(l);
            f.localGet(l);
        });
    std::vector<DeadStore> stores = deadStores(m, 0);
    ASSERT_EQ(stores.size(), 1u);
    EXPECT_EQ(stores[0].instr, 1u);
    EXPECT_EQ(stores[0].local, 0u);
}

TEST(DeadStore, LoopCarriedStoreIsLive)
{
    // The store feeds the next iteration's read through the back
    // edge; backward liveness must propagate around the loop.
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        uint32_t i = f.addLocal(ValType::I32);
        f.block().loop();
        f.localGet(i).i32Const(1).op(Opcode::I32Add).localSet(i);
        f.localGet(i).i32Const(10).op(Opcode::I32LtS).brIf(0);
        f.end().end();
    });
    EXPECT_TRUE(deadStores(m, 0).empty());
}

TEST(DeadStore, FinalStoreWithNoReaderIsDead)
{
    Module m = singleFunction(FuncType({ValType::I32}, {}),
                              [](FunctionBuilder &f) {
                                  uint32_t l = f.addLocal(ValType::I32);
                                  f.localGet(0).localSet(l);
                              });
    std::vector<DeadStore> stores = deadStores(m, 0);
    ASSERT_EQ(stores.size(), 1u);
    EXPECT_EQ(stores[0].instr, 1u);
}

// ----- dataflow solvers on looping CFGs (fixpoint + dominators) ------

/** Doubly nested loop with two back edges:
 *  0 block / 1 loop / 2 block / 3 loop / 4 get / 5 br_if 0 (inner) /
 *  6 end / 7 end / 8 get / 9 br_if 0 (outer) / 10 end / 11 end /
 *  12 end */
Module
nestedLoops()
{
    ModuleBuilder mb;
    FunctionBuilder f =
        mb.startFunction(FuncType({ValType::I32}, {}), "f");
    f.block().loop().block().loop();
    f.localGet(0).brIf(0);
    f.end().end();
    f.localGet(0).brIf(0);
    f.end().end();
    f.finish();
    Module m = mb.build();
    validateModule(m);
    return m;
}

TEST(Dataflow, NestedLoopsHaveTwoBackEdgesAndNestedDominators)
{
    Module m = nestedLoops();
    Cfg cfg(m, 0);
    std::vector<std::pair<uint32_t, uint32_t>> back = backEdges(cfg);
    ASSERT_EQ(back.size(), 2u);

    // Both loop headers dominate their back-edge tails, and the inner
    // header is dominated by the outer header.
    std::vector<BitSet> doms = dominatorSets(cfg);
    uint32_t inner_header = cfg.blockOf(4); // first instr inside inner
    uint32_t outer_header = cfg.blockOf(2); // first instr inside outer
    for (auto [tail, head] : back)
        EXPECT_TRUE(doms[tail].test(head));
    EXPECT_TRUE(doms[inner_header].test(outer_header));
    EXPECT_FALSE(doms[outer_header].test(inner_header));

    std::vector<uint32_t> idom = immediateDominators(cfg);
    EXPECT_EQ(idom[cfg.entry()], kNoIdom);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (b != cfg.entry()) {
            EXPECT_NE(idom[b], b) << "self-idom at block " << b;
        }
    }

    // The backward solver reaches its fixpoint on the same CFG (the
    // liveness instance inside deadStores exercises solveBackward
    // across both back edges).
    EXPECT_TRUE(deadStores(m, 0).empty());
}

TEST(Dataflow, IrregularBrTableLoopTerminates)
{
    // A loop whose body also dispatches through a br_table targeting
    // the loop header, the enclosing block, and the function frame —
    // many edges into the same headers must still converge.
    Module m = singleFunction(
        FuncType({ValType::I32}, {}), [](FunctionBuilder &f) {
            f.block().loop();
            f.localGet(0).brTable({0, 1, 2}, 0);
            f.end().end();
        });
    Cfg cfg(m, 0);
    std::vector<bool> reach = reachableBlocks(cfg);
    EXPECT_TRUE(reach[cfg.entry()]);
    EXPECT_TRUE(reach[cfg.exit()]);
    EXPECT_FALSE(backEdges(cfg).empty());
    EXPECT_TRUE(CallGraph(m, Precision::Seed).deadFunctions().empty());
}

// ----- branch refinement ---------------------------------------------

TEST(BranchRefine, ConstantBrTableCollapsesToOneLabel)
{
    // 0 block / 1 block / 2 block / 3 const 1 / 4 br_table 0 1 d2 /
    // 5 end / 6 end / 7 end / 8 end. Index 1 selects label 1, which
    // resolves past the middle block's end to instruction 7.
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block().block().block();
        f.i32Const(1).brTable({0, 1}, 2);
        f.end().end().end();
    });
    ConstFacts facts = constantFacts(m, 0);
    ASSERT_EQ(facts.brTableIndex.size(), 1u);
    EXPECT_EQ(facts.brTableIndex.at(packLoc({0, 4})), 1u);

    BranchRefinements r = refineBranches(m, 0, facts);
    ASSERT_EQ(r.constBrTables.size(), 1u);
    EXPECT_EQ(r.constBrTables[0].instr, 4u);
    EXPECT_EQ(r.constBrTables[0].index, 1u);
    EXPECT_EQ(r.constBrTables[0].label, 1u);
    EXPECT_EQ(r.constBrTables[0].target, 7u);
    EXPECT_FALSE(r.constBrTables[0].isDefault);
}

TEST(BranchRefine, OutOfRangeIndexSelectsDefault)
{
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block();
        f.i32Const(99).brTable({0}, 0);
        f.end();
    });
    ConstFacts facts = constantFacts(m, 0);
    BranchRefinements r = refineBranches(m, 0, facts);
    ASSERT_EQ(r.constBrTables.size(), 1u);
    EXPECT_TRUE(r.constBrTables[0].isDefault);
    EXPECT_EQ(r.constBrTables[0].index, 99u);
}

TEST(BranchRefine, ConstantConditionsAreClassified)
{
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        f.i32Const(0).if_();
        f.nop();
        f.end();
        f.block();
        f.i32Const(1).brIf(0);
        f.end();
    });
    ConstFacts facts = constantFacts(m, 0);
    BranchRefinements r = refineBranches(m, 0, facts);
    ASSERT_EQ(r.constConditions.size(), 2u);
    EXPECT_TRUE(r.constConditions[0].isIf);
    EXPECT_EQ(r.constConditions[0].cond, 0u);
    EXPECT_FALSE(r.constConditions[1].isIf);
    EXPECT_EQ(r.constConditions[1].cond, 1u);
}

// ----- lint driver ----------------------------------------------------

TEST(Lint, ReportsEveryFindingKindWithStableCodes)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "main", [](FunctionBuilder &f) {
        uint32_t l = f.addLocal(ValType::I32);
        f.block().end();               // empty block
        f.i32Const(5).localSet(l);     // dead store
        f.block();
        f.i32Const(1).brIf(0);         // constant condition
        f.nop();
        f.end();
        f.block();
        f.i32Const(0).brTable({0}, 0); // constant index
        f.nop();                       // unreachable
        f.end();
    });
    mb.addFunction(FuncType({}, {}), "",
                   [](FunctionBuilder &f) { f.nop(); }); // dead
    Module m = mb.build();
    validateModule(m);

    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintEmptyBlock)) << toString(d);
    EXPECT_TRUE(d.hasCode(kLintDeadStore)) << toString(d);
    EXPECT_TRUE(d.hasCode(kLintConstCondition)) << toString(d);
    EXPECT_TRUE(d.hasCode(kLintConstIndex)) << toString(d);
    EXPECT_TRUE(d.hasCode(kLintUnreachableCode)) << toString(d);
    EXPECT_TRUE(d.hasCode(kLintDeadFunction)) << toString(d);
}

TEST(Lint, CleanModuleHasNoFindings)
{
    Module m = singleFunction(
        FuncType({ValType::I32}, {ValType::I32}),
        [](FunctionBuilder &f) {
            f.localGet(0).i32Const(1).op(Opcode::I32Add);
        });
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.empty()) << toString(d);
}

TEST(Lint, EmptyBlockPairsAreReported)
{
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block().end(); // 0,1
        f.loop().end();  // 2,3
        f.nop();
    });
    EXPECT_EQ(emptyBlockPairs(m, 0),
              (std::vector<std::pair<uint32_t, uint32_t>>{{0, 1},
                                                          {2, 3}}));
    Diagnostics d = lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintEmptyBlock)) << toString(d);
}

// ----- DOT label escaping --------------------------------------------

TEST(DotEscape, QuotesBackslashesAndBytesAreEscaped)
{
    EXPECT_EQ(escapeDotLabel("plain_name"), "plain_name");
    EXPECT_EQ(escapeDotLabel("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeDotLabel("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeDotLabel("a\nb"), "a\\nb");
    EXPECT_EQ(escapeDotLabel("\x01"), "\\\\x01");
    EXPECT_EQ(escapeDotLabel("\xC3\xA9"), "\\\\xC3\\\\xA9");
}

TEST(DotEscape, HostileDebugNamesCannotBreakCallGraphDot)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {}), "main",
                   [](FunctionBuilder &f) { f.nop(); });
    Module m = mb.build();
    validateModule(m);
    m.functions[0].debugName = "evil\"]; bad [label=\"\\";

    std::string dot = callGraphDot(m);
    // The raw quote must not survive unescaped: every quote in the
    // label is preceded by a backslash.
    EXPECT_EQ(dot.find("evil\""), std::string::npos);
    EXPECT_NE(dot.find("evil\\\""), std::string::npos);
    // Structural quotes (preceded by an even number of backslashes)
    // must pair up; otherwise the injected name broke out of its
    // label attribute.
    size_t structural = 0;
    for (size_t i = 0; i < dot.size(); ++i) {
        if (dot[i] != '"')
            continue;
        size_t backslashes = 0;
        while (backslashes < i && dot[i - 1 - backslashes] == '\\')
            ++backslashes;
        if (backslashes % 2 == 0)
            ++structural;
    }
    EXPECT_EQ(structural % 2, 0u);
}

} // namespace
} // namespace wasabi::static_analysis::passes
