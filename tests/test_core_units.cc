/**
 * @file
 * Unit tests for the core building blocks: HookSet, HookSpec mangling
 * and low-level types, the thread-safe on-demand monomorphization map
 * (including a concurrency stress test), block matching, and the
 * abstract control/type stack.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/control_stack.h"
#include "core/hook_map.h"
#include "core/static_info.h"
#include "wasm/builder.h"

namespace wasabi::core {
namespace {

using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;

// ---------------------------------------------------------------------
// HookSet.

TEST(HookSetTest, BasicSetOperations)
{
    HookSet s;
    EXPECT_TRUE(s.empty());
    s.add(HookKind::Binary);
    s.add(HookKind::Load);
    EXPECT_TRUE(s.has(HookKind::Binary));
    EXPECT_FALSE(s.has(HookKind::Store));
    EXPECT_EQ(s.count(), 2);
    s.remove(HookKind::Binary);
    EXPECT_FALSE(s.has(HookKind::Binary));
    EXPECT_EQ(HookSet::all().count(), kNumHookKinds);
    EXPECT_EQ((HookSet::only(HookKind::Br) | HookSet::only(HookKind::BrIf))
                  .count(),
              2);
}

TEST(HookSetTest, ToStringUsesFigureNames)
{
    HookSet s{HookKind::MemorySize, HookKind::BrTable};
    EXPECT_EQ(s.toString(), "memory_size,br_table");
}

TEST(HookSetTest, FigureOrderHas21Kinds)
{
    EXPECT_EQ(figureOrderHookKinds().size(), 21u);
    EXPECT_EQ(figureOrderHookKinds().front(), HookKind::Nop);
    EXPECT_EQ(figureOrderHookKinds().back(), HookKind::BrTable);
}

TEST(HookSetTest, ParseHookSetAcceptsListsAndRejectsBadSegments)
{
    std::string error;
    EXPECT_EQ(parseHookSet("", &error), HookSet::all());
    EXPECT_EQ(parseHookSet("all", &error), HookSet::all());
    EXPECT_EQ(parseHookSet("load,store", &error),
              (HookSet{HookKind::Load, HookKind::Store}));
    EXPECT_EQ(parseHookSet("br_table", &error),
              HookSet::only(HookKind::BrTable));
    for (const char *bad : {"load,", ",load", "load,,store", ","}) {
        error.clear();
        EXPECT_EQ(parseHookSet(bad, &error), std::nullopt) << bad;
        EXPECT_NE(error.find("empty hook kind"), std::string::npos)
            << bad << ": " << error;
    }
    for (const char *bad : {"bogus", "load,bogus", "all,load", "Load"}) {
        error.clear();
        EXPECT_EQ(parseHookSet(bad, &error), std::nullopt) << bad;
        EXPECT_NE(error.find("unknown hook kind"), std::string::npos)
            << bad << ": " << error;
    }
    EXPECT_EQ(parseHookSet("bogus", nullptr), std::nullopt);
}

// ---------------------------------------------------------------------
// HookSpec mangling and low-level types.

TEST(HookSpecTest, MangledNamesAreDescriptive)
{
    EXPECT_EQ(mangledName({.kind = HookKind::Const, .op = Opcode::I32Const}),
              "i32.const");
    EXPECT_EQ(mangledName({.kind = HookKind::Drop,
                           .types = {ValType::F64}}),
              "drop_f64");
    EXPECT_EQ(mangledName({.kind = HookKind::Call,
                           .types = {ValType::I32, ValType::F64}}),
              "call_pre_i32_f64");
    EXPECT_EQ(mangledName({.kind = HookKind::Call,
                           .types = {ValType::I32, ValType::F64},
                           .indirect = true}),
              "call_pre_indirect_i32_f64");
    EXPECT_EQ(mangledName({.kind = HookKind::Call,
                           .types = {ValType::I64},
                           .post = true}),
              "call_post_i64");
    EXPECT_EQ(mangledName({.kind = HookKind::Local,
                           .op = Opcode::LocalGet,
                           .types = {ValType::F32}}),
              "local.get_f32");
    EXPECT_EQ(mangledName({.kind = HookKind::Begin,
                           .block = BlockKind::Loop}),
              "begin_loop");
    EXPECT_EQ(mangledName({.kind = HookKind::End,
                           .block = BlockKind::Else}),
              "end_else");
}

TEST(HookSpecTest, LowLevelTypesStartWithLocation)
{
    FuncType t = lowLevelType({.kind = HookKind::Nop}, true);
    ASSERT_EQ(t.params.size(), 2u);
    EXPECT_EQ(t.params[0], ValType::I32);
    EXPECT_EQ(t.params[1], ValType::I32);
    EXPECT_TRUE(t.results.empty());
}

TEST(HookSpecTest, I64SplitDoublesParameters)
{
    HookSpec spec{.kind = HookKind::Binary, .op = Opcode::I64Add};
    FuncType split = lowLevelType(spec, true);
    // loc(2) + 3 i64 values as (lo, hi) pairs.
    EXPECT_EQ(split.params.size(), 2u + 3u * 2u);
    for (ValType p : split.params)
        EXPECT_EQ(p, ValType::I32);
    FuncType native = lowLevelType(spec, false);
    EXPECT_EQ(native.params.size(), 2u + 3u);
    EXPECT_EQ(native.params[2], ValType::I64);
}

TEST(HookSpecTest, EndHookCarriesBeginParameter)
{
    FuncType t = lowLevelType(
        {.kind = HookKind::End, .block = BlockKind::Block}, true);
    EXPECT_EQ(t.params.size(), 3u); // loc + begin index
}

TEST(HookSpecTest, SelectAndStoreTypes)
{
    FuncType sel = lowLevelType(
        {.kind = HookKind::Select, .types = {ValType::F32}}, true);
    ASSERT_EQ(sel.params.size(), 5u);
    EXPECT_EQ(sel.params[2], ValType::I32); // condition
    EXPECT_EQ(sel.params[3], ValType::F32);
    EXPECT_EQ(sel.params[4], ValType::F32);

    FuncType st = lowLevelType(
        {.kind = HookKind::Store, .op = Opcode::F64Store}, true);
    ASSERT_EQ(st.params.size(), 4u);
    EXPECT_EQ(st.params[2], ValType::I32); // address
    EXPECT_EQ(st.params[3], ValType::F64); // value
}

// ---------------------------------------------------------------------
// HookMap.

TEST(HookMapTest, DeduplicatesByMangledName)
{
    HookMap map;
    uint32_t a = map.getOrAdd({.kind = HookKind::Drop,
                               .types = {ValType::I32}});
    uint32_t b = map.getOrAdd({.kind = HookKind::Drop,
                               .types = {ValType::F64}});
    uint32_t c = map.getOrAdd({.kind = HookKind::Drop,
                               .types = {ValType::I32}});
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    EXPECT_EQ(map.size(), 2u);
}

TEST(HookMapTest, ConcurrentGetOrAddIsConsistent)
{
    HookMap map;
    constexpr int kThreads = 8;
    constexpr int kSpecs = 64;
    std::vector<std::vector<uint32_t>> ids(kThreads,
                                           std::vector<uint32_t>(kSpecs));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&map, &ids, t]() {
            for (int s = 0; s < kSpecs; ++s) {
                HookSpec spec{.kind = HookKind::Call,
                              .types = std::vector<ValType>(
                                  s % 5, static_cast<ValType>(s % 4)),
                              .post = (s % 2) == 0};
                ids[t][s] = map.getOrAdd(spec);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Every thread must have observed the same id for the same spec.
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t], ids[0]);
    // And ids are dense.
    EXPECT_LE(map.size(), static_cast<uint32_t>(kSpecs));
    for (uint32_t id : ids[0])
        EXPECT_LT(id, map.size());
}

// ---------------------------------------------------------------------
// Block matching and the abstract state.

TEST(MatchBlocksTest, FindsEndsAndElses)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({ValType::I32}, {}));
    fb.block();        // @0
    fb.localGet(0);    // @1
    fb.if_();          // @2
    fb.nop();          // @3
    fb.else_();        // @4
    fb.nop();          // @5
    fb.end();          // @6 (if)
    fb.end();          // @7 (block)
    fb.finish();       // @8 (function end)
    const auto &body = mb.module().functions[0].body;
    auto matches = matchBlocks(body);
    EXPECT_EQ(matches[0].endIdx, 7u);
    EXPECT_FALSE(matches[0].elseIdx.has_value());
    EXPECT_EQ(matches[2].endIdx, 6u);
    ASSERT_TRUE(matches[2].elseIdx.has_value());
    EXPECT_EQ(*matches[2].elseIdx, 4u);
}

TEST(AbstractStateTest, TracksTypesThroughInstructions)
{
    ModuleBuilder mb2;
    FunctionBuilder fb2 = mb2.startFunction(FuncType({}, {ValType::I32}));
    fb2.f64Const(1.0); // @0
    fb2.drop();        // @1
    fb2.i32Const(3);   // @2
    fb2.finish();
    wasm::Module m = mb2.build();
    AbstractState state(m, 0);
    const auto &body = m.functions[0].body;
    state.apply(body[0], 0);
    EXPECT_EQ(state.top(0), ValType::F64);
    state.apply(body[1], 1);
    state.apply(body[2], 2);
    EXPECT_EQ(state.top(0), ValType::I32);
}

TEST(AbstractStateTest, ResolvesLabelsForBlocksAndLoops)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}));
    fb.block(); // @0, end @4
    fb.loop();  // @1, end @3
    fb.nop();   // @2
    fb.end();   // @3
    fb.end();   // @4
    fb.finish(); // @5
    wasm::Module m = mb.build();
    AbstractState state(m, 0);
    const auto &body = m.functions[0].body;
    state.apply(body[0], 0);
    state.apply(body[1], 1);
    // Now inside the loop (frames: function, block, loop).
    EXPECT_EQ(state.frames().size(), 3u);
    EXPECT_EQ(state.resolveLabel(0), 2u); // loop -> first body instr
    EXPECT_EQ(state.resolveLabel(1), 5u); // block -> after its end
    EXPECT_EQ(state.resolveLabel(2), 6u); // function -> after final end
    auto traversed = state.traversedFrames(1);
    ASSERT_EQ(traversed.size(), 2u);
    EXPECT_EQ(traversed[0].kind, BlockKind::Loop);
    EXPECT_EQ(traversed[1].kind, BlockKind::Block);
}

TEST(AbstractStateTest, UnreachableCodeReportsUnknownTypes)
{
    ModuleBuilder mb;
    FunctionBuilder fb = mb.startFunction(FuncType({}, {}));
    fb.ret();   // @0
    fb.drop();  // @1 dead
    fb.finish();
    wasm::Module m = mb.build();
    AbstractState state(m, 0);
    state.apply(m.functions[0].body[0], 0);
    EXPECT_FALSE(state.reachable());
    EXPECT_EQ(state.top(0), std::nullopt);
}

// ---------------------------------------------------------------------
// StaticInfo helpers.

TEST(StaticInfoTest, LocationPackingAndUnmap)
{
    Location loc{3, 17};
    EXPECT_EQ(packLoc(loc), (uint64_t(3) << 32) | 17);

    StaticInfo info;
    info.numOrigImports = 2;
    info.hooks.resize(5); // 5 hook imports
    EXPECT_EQ(info.hookFuncIdx(0), 2u);
    EXPECT_EQ(info.hookFuncIdx(4), 6u);
    EXPECT_EQ(info.unmapFuncIdx(1), 1u);  // original import
    EXPECT_EQ(info.unmapFuncIdx(7), 2u);  // first defined function
    EXPECT_EQ(info.unmapFuncIdx(10), 5u);
}

} // namespace
} // namespace wasabi::core
