/**
 * @file
 * Unit tests of the static-analysis subsystem's graph layer: CFG
 * construction from the structured instruction stream (label
 * resolution per paper §2.4.4), the forward dataflow framework
 * (reachability, dominators, back edges) and the static call graph
 * with dead-function detection.
 */

#include <gtest/gtest.h>

#include "static/analyze.h"
#include "static/cfg.h"
#include "static/dataflow.h"
#include "static/interproc/call_graph.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace wasabi::static_analysis {
namespace {

using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;

/** A CFG edge span as a vector, for EXPECT_EQ. */
std::vector<uint32_t>
edges(std::span<const uint32_t> span)
{
    return {span.begin(), span.end()};
}

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

TEST(Cfg, StraightLineIsOneBlockPlusExit)
{
    Module m = singleFunction(FuncType({}, {ValType::I32}),
                              [](FunctionBuilder &f) { f.i32Const(1); });
    // Body: [i32.const, end].
    Cfg cfg(m, 0);
    ASSERT_EQ(cfg.numBlocks(), 2u); // one real block + synthetic exit
    EXPECT_EQ(cfg.blocks()[0].first, 0u);
    EXPECT_EQ(cfg.blocks()[0].last, 1u);
    EXPECT_EQ(edges(cfg.succs(0)), std::vector<uint32_t>{cfg.exit()});
    EXPECT_TRUE(cfg.blocks()[cfg.exit()].empty());
    EXPECT_EQ(cfg.numEdges(), 1u);
    EXPECT_EQ(cfg.blockOf(0), 0u);
    EXPECT_EQ(cfg.blockOf(1), 0u);
}

/** Build the classic diamond:
 *   0 local.get 0 / 1 if / 2 const / 3 set / 4 else / 5 const /
 *   6 set / 7 end / 8 get / 9 end */
Module
diamond()
{
    ModuleBuilder mb;
    FunctionBuilder f =
        mb.startFunction(FuncType({ValType::I32}, {ValType::I32}), "f");
    uint32_t r = f.addLocal(ValType::I32);
    f.localGet(0).if_();
    f.i32Const(1).localSet(r);
    f.else_();
    f.i32Const(2).localSet(r);
    f.end();
    f.localGet(r);
    f.finish();
    Module m = mb.build();
    validateModule(m);
    return m;
}

TEST(Cfg, IfElseDiamondShape)
{
    Module m = diamond();
    Cfg cfg(m, 0);
    // B0=[0,1] B1=[2,4] B2=[5,6] B3=[7,9] B4=exit.
    ASSERT_EQ(cfg.numBlocks(), 5u);
    EXPECT_EQ(edges(cfg.succs(0)), (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(edges(cfg.succs(1)), (std::vector<uint32_t>{3}));
    EXPECT_EQ(edges(cfg.succs(2)), (std::vector<uint32_t>{3}));
    EXPECT_EQ(edges(cfg.succs(3)),
              (std::vector<uint32_t>{cfg.exit()}));
    EXPECT_EQ(cfg.numEdges(), 5u);

    // Entry dominates everything; the merge block's idom is the fork,
    // not either branch.
    std::vector<uint32_t> idom = immediateDominators(cfg);
    EXPECT_EQ(idom[0], kNoIdom);
    EXPECT_EQ(idom[1], 0u);
    EXPECT_EQ(idom[2], 0u);
    EXPECT_EQ(idom[3], 0u);
    EXPECT_EQ(idom[cfg.exit()], 3u);
    EXPECT_TRUE(backEdges(cfg).empty());

    const std::vector<uint32_t> &rpo = cfg.reversePostOrder();
    ASSERT_EQ(rpo.size(), 5u);
    EXPECT_EQ(rpo.front(), cfg.entry());
    EXPECT_EQ(rpo.back(), cfg.exit());
}

/** while-style loop:
 *   0 block / 1 loop / 2 get / 3 const / 4 add / 5 tee / 6 const /
 *   7 lt / 8 br_if 0 (loop) / 9 end / 10 end / 11 end */
Module
countedLoop()
{
    ModuleBuilder mb;
    FunctionBuilder f = mb.startFunction(FuncType({}, {}), "f");
    uint32_t i = f.addLocal(ValType::I32);
    f.block().loop();
    f.localGet(i).i32Const(1).op(Opcode::I32Add).localTee(i);
    f.i32Const(10).op(Opcode::I32LtS).brIf(0);
    f.end().end();
    f.finish();
    Module m = mb.build();
    validateModule(m);
    return m;
}

TEST(Cfg, LoopProducesOneBackEdge)
{
    Module m = countedLoop();
    Cfg cfg(m, 0);
    // B0=[0,1] B1=[2,8] (loop body) B2=[9,11] B3=exit.
    ASSERT_EQ(cfg.numBlocks(), 4u);
    // The br_if targets the loop header, i.e. block B1 itself.
    EXPECT_EQ(edges(cfg.succs(1)), (std::vector<uint32_t>{1, 2}));

    std::vector<std::pair<uint32_t, uint32_t>> back = backEdges(cfg);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0], (std::pair<uint32_t, uint32_t>{1, 1}));

    std::vector<uint32_t> idom = immediateDominators(cfg);
    EXPECT_EQ(idom[1], 0u);
    EXPECT_EQ(idom[2], 1u);

    std::vector<BitSet> doms = dominatorSets(cfg);
    EXPECT_TRUE(doms[2].test(0));
    EXPECT_TRUE(doms[2].test(1));
    EXPECT_TRUE(doms[2].test(2));
    EXPECT_FALSE(doms[1].test(2));
}

/** Three nested blocks dispatched by br_table:
 *   0 block / 1 block / 2 block / 3 get / 4 br_table 0 1, default 2 /
 *   5 end / 6 end / 7 end / 8 end */
Module
brTableNest()
{
    ModuleBuilder mb;
    FunctionBuilder f =
        mb.startFunction(FuncType({ValType::I32}, {}), "f");
    f.block().block().block();
    f.localGet(0).brTable({0, 1}, 2);
    f.end().end().end();
    f.finish();
    Module m = mb.build();
    validateModule(m);
    return m;
}

TEST(Cfg, BrTableEdgesResolvePerLabel)
{
    Module m = brTableNest();
    Cfg cfg(m, 0);
    // B0=[0,4] B1=[5,5] B2=[6,6] B3=[7,7] B4=[8,8] B5=exit.
    ASSERT_EQ(cfg.numBlocks(), 6u);
    // label 0 -> after inner end (6), label 1 -> 7, default -> 8.
    EXPECT_EQ(edges(cfg.succs(0)), (std::vector<uint32_t>{2, 3, 4}));
    // The inner `end` itself is only reachable by fallthrough, which
    // the br_table cuts off.
    std::vector<bool> reach = reachableBlocks(cfg);
    EXPECT_FALSE(reach[1]);
    EXPECT_TRUE(reach[2]);
    EXPECT_TRUE(reach[3]);
    EXPECT_TRUE(reach[4]);
    EXPECT_TRUE(reach[cfg.exit()]);
}

TEST(Cfg, CodeAfterUnconditionalBrIsUnreachable)
{
    Module m = singleFunction(FuncType({}, {}), [](FunctionBuilder &f) {
        f.block();
        f.br(0);
        f.nop();
        f.end();
    });
    Cfg cfg(m, 0);
    std::vector<bool> reach = reachableBlocks(cfg);
    // The nop after the br is in an unreachable block.
    uint32_t nop_block = cfg.blockOf(2);
    EXPECT_FALSE(reach[nop_block]);
    EXPECT_TRUE(reach[cfg.entry()]);
    EXPECT_TRUE(reach[cfg.exit()]);
}

TEST(Cfg, ReturnAndUnreachableEdges)
{
    Module m = singleFunction(FuncType({ValType::I32}, {}),
                              [](FunctionBuilder &f) {
                                  f.localGet(0).if_();
                                  f.ret();
                                  f.end();
                                  f.unreachable();
                              });
    // 0 get / 1 if / 2 return / 3 end / 4 unreachable / 5 end.
    Cfg cfg(m, 0);
    uint32_t ret_block = cfg.blockOf(2);
    EXPECT_EQ(edges(cfg.succs(ret_block)),
              (std::vector<uint32_t>{cfg.exit()}));
    // `unreachable` traps: no successors at all.
    uint32_t trap_block = cfg.blockOf(4);
    EXPECT_TRUE(cfg.succs(trap_block).empty());
}

TEST(CallGraph, DirectIndirectEdgesAndDeadFunctions)
{
    ModuleBuilder mb;
    uint32_t sig = mb.type(FuncType({}, {}));
    mb.table(2);
    // f0 "main": calls f1 directly and [] -> [] through the table.
    mb.addFunction(FuncType({}, {}), "main", [&](FunctionBuilder &f) {
        f.call(1);
        f.i32Const(0).callIndirect(sig);
    });
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    mb.addFunction(FuncType({}, {}), "", [](FunctionBuilder &) {});
    // f3: wrong signature for the indirect call, never referenced.
    mb.addFunction(FuncType({ValType::I32}, {}), "",
                   [](FunctionBuilder &) {});
    mb.elem(0, {2});
    Module m = mb.build();
    validateModule(m);

    interproc::CallGraph cg(m, interproc::Precision::Seed);
    EXPECT_EQ(cg.callees(0), (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(cg.callers(2), (std::vector<uint32_t>{0}));
    EXPECT_EQ(cg.numEdges(), 2u);
    EXPECT_TRUE(cg.reachable(0));
    EXPECT_TRUE(cg.reachable(1));
    EXPECT_TRUE(cg.reachable(2));
    EXPECT_FALSE(cg.reachable(3));
    EXPECT_EQ(cg.deadFunctions(), (std::vector<uint32_t>{3}));
    EXPECT_EQ(cg.roots(), (std::vector<uint32_t>{0}));
}

TEST(Analyze, ModuleReportCountsAreConsistent)
{
    Module m = countedLoop();
    ModuleReport r = analyzeModule(m);
    ASSERT_EQ(r.functions.size(), 1u);
    const FunctionStats &s = r.functions[0];
    EXPECT_EQ(s.funcIdx, 0u);
    EXPECT_EQ(s.numInstrs, m.functions[0].body.size());
    EXPECT_EQ(s.numBlocks, 4u);
    EXPECT_EQ(s.numBackEdges, 1u);
    EXPECT_EQ(s.numUnreachable, 0u);
    EXPECT_FALSE(s.dead);
    EXPECT_TRUE(r.deadFunctions.empty());

    // Both renderings mention the function.
    EXPECT_NE(toString(r).find("functions"), std::string::npos);
    EXPECT_NE(toJson(r).find("\"backEdges\":1"), std::string::npos);

    // Dot outputs are well-formed digraphs.
    EXPECT_EQ(cfgDot(m, 0).rfind("digraph", 0), 0u);
    EXPECT_EQ(callGraphDot(m).rfind("digraph", 0), 0u);
}

TEST(Dataflow, BitSetOperations)
{
    BitSet a(100), b(100, true);
    a.set(3);
    a.set(77);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(b.count(), 100u);
    BitSet c = b;
    EXPECT_TRUE(c.intersectWith(a));
    EXPECT_EQ(c, a);
    EXPECT_FALSE(c.intersectWith(a)); // already equal: no change
    EXPECT_TRUE(b.test(99));
    BitSet d(100);
    EXPECT_TRUE(d.unionWith(a));
    EXPECT_EQ(d, a);
}

} // namespace
} // namespace wasabi::static_analysis
