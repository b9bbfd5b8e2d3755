/**
 * @file
 * Tests of the interprocedural engine: Tarjan SCC condensation,
 * element-segment layout resolution with structured diagnostics,
 * the call graph at its two precisions, per-site call_indirect
 * refinement (constant-index narrowing, typed
 * target sets, host-visibility soundness gates), the lint.interproc.*
 * codes, the checker's rejection of `wasabi opt` call_indirect -> call
 * claims the refined graph does not prove, and the runtime's callee
 * reporting at a constant-index call_indirect site.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/instrument.h"
#include "runtime/runtime.h"
#include "static/analyze.h"
#include "static/check.h"
#include "static/interproc/call_graph.h"
#include "static/interproc/scc.h"
#include "static/interproc/table_layout.h"
#include "static/passes/pipeline.h"
#include "static/rewrite/opt.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"

namespace wasabi::static_analysis::interproc {
namespace {

using core::HookKind;
using core::HookSet;
using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Instr;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;

const FuncType kTableType({ValType::I32}, {ValType::I32});

/** [i32]->[i32] function computing `arg + delta`. */
uint32_t
addConst(ModuleBuilder &mb, int32_t delta)
{
    return mb.addFunction(kTableType, "", [&](FunctionBuilder &f) {
        f.localGet(0).i32Const(delta).op(Opcode::I32Add);
    });
}

/**
 * The strict-superset fixture: two table functions, a non-exported
 * table, and an exported main whose only call is `call_indirect` with
 * the constant index 1. The whole-table seed graph keeps both table
 * functions alive; the refined graph proves slot 0 is never called.
 */
Module
constIndexFixture(bool export_table = false)
{
    ModuleBuilder mb;
    uint32_t f0 = addConst(mb, 10);
    uint32_t f1 = addConst(mb, 20);
    uint32_t type_idx = mb.type(kTableType);
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [&](FunctionBuilder &f) {
                       f.i32Const(7);
                       f.i32Const(1);
                       f.callIndirect(type_idx);
                   });
    mb.table(2, 2);
    mb.elem(0, {f0, f1});
    Module m = mb.build();
    if (export_table)
        m.tables[0].exportNames.push_back("table");
    wasm::validateModule(m);
    return m;
}

// ----- SCC condensation ----------------------------------------------

SccGraph
condenseAdjacency(const std::vector<std::vector<uint32_t>> &g)
{
    return condense(static_cast<uint32_t>(g.size()),
                    [&](uint32_t n) -> const std::vector<uint32_t> & {
                        return g[n];
                    });
}

TEST(Scc, MutualRecursionCollapsesIntoOneScc)
{
    // 0 <-> 1, both -> 2, 3 isolated.
    SccGraph s = condenseAdjacency({{1, 2}, {0, 2}, {}, {}});
    EXPECT_EQ(s.sccOf[0], s.sccOf[1]);
    EXPECT_NE(s.sccOf[0], s.sccOf[2]);
    ASSERT_EQ(s.numSccs(), 3u);
    EXPECT_EQ(s.members[s.sccOf[0]], (std::vector<uint32_t>{0, 1}));
    // Condensation edges exclude the intra-SCC 0<->1 pair.
    EXPECT_EQ(s.succs[s.sccOf[0]],
              (std::vector<uint32_t>{s.sccOf[2]}));
    EXPECT_EQ(s.preds[s.sccOf[2]],
              (std::vector<uint32_t>{s.sccOf[0]}));
}

TEST(Scc, AscendingIdsAreBottomUp)
{
    // A diamond plus a 3-cycle: every condensation edge must go from
    // a higher SCC id to a lower one, so ascending order is bottom-up.
    SccGraph s =
        condenseAdjacency({{1, 2}, {3}, {3}, {4}, {5}, {3}, {0}});
    for (uint32_t scc = 0; scc < s.numSccs(); ++scc) {
        for (uint32_t callee : s.succs[scc])
            EXPECT_LT(callee, scc);
    }
    // 3 -> 4 -> 5 -> 3 is one SCC.
    EXPECT_EQ(s.sccOf[3], s.sccOf[4]);
    EXPECT_EQ(s.sccOf[4], s.sccOf[5]);
}

TEST(Scc, SelfLoopIsItsOwnSccWithoutSelfEdge)
{
    SccGraph s = condenseAdjacency({{0, 1}, {}});
    ASSERT_EQ(s.numSccs(), 2u);
    EXPECT_EQ(s.members[s.sccOf[0]], (std::vector<uint32_t>{0}));
    // succs never contain the SCC itself, even for self-loops.
    EXPECT_EQ(s.succs[s.sccOf[0]],
              (std::vector<uint32_t>{s.sccOf[1]}));
}

TEST(Scc, EmptyGraph)
{
    SccGraph s = condenseAdjacency({});
    EXPECT_EQ(s.numSccs(), 0u);
}

// ----- table layout --------------------------------------------------

TEST(TableLayout, ExactLayoutOfWellFormedSegments)
{
    Module m = constIndexFixture();
    TableLayout t = computeTableLayout(m);
    EXPECT_TRUE(t.hasTable);
    EXPECT_FALSE(t.hostVisible);
    EXPECT_TRUE(t.exact);
    ASSERT_EQ(t.slots.size(), 2u);
    EXPECT_EQ(t.slots[0], std::optional<uint32_t>(0));
    EXPECT_EQ(t.slots[1], std::optional<uint32_t>(1));
    EXPECT_EQ(t.segmentFuncs, (std::vector<uint32_t>{0, 1}));
    EXPECT_TRUE(t.diags.empty());
}

TEST(TableLayout, OutOfRangeFunctionIndexIsDiagnosedAndDropped)
{
    // Regression: the seed call graph once silently folded any
    // segment content into the target set, including indices past the
    // function space (a hostile or truncated module).
    Module m = constIndexFixture();
    m.elements[0].funcIdxs.push_back(99);
    TableLayout t = computeTableLayout(m);
    EXPECT_TRUE(t.diags.hasCode(kLintTableFuncOutOfRange));
    EXPECT_EQ(t.segmentFuncs, (std::vector<uint32_t>{0, 1}));
    // The invalid entry also must not survive into the seed graph.
    CallGraph cg(m, Precision::Seed);
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        for (uint32_t c : cg.callees(f))
            EXPECT_LT(c, m.numFunctions());
    }
}

TEST(TableLayout, OverlappingSegmentsDiagnosedLaterWins)
{
    ModuleBuilder mb;
    uint32_t f0 = addConst(mb, 1);
    uint32_t f1 = addConst(mb, 2);
    mb.table(2, 2);
    mb.elem(0, {f0, f0});
    mb.elem(1, {f1}); // overwrites slot 1
    Module m = mb.build();
    TableLayout t = computeTableLayout(m);
    EXPECT_TRUE(t.diags.hasCode(kLintTableOverlap));
    // Later segments win at instantiation; the layout stays exact.
    EXPECT_TRUE(t.exact);
    ASSERT_EQ(t.slots.size(), 2u);
    EXPECT_EQ(t.slots[0], std::optional<uint32_t>(f0));
    EXPECT_EQ(t.slots[1], std::optional<uint32_t>(f1));
}

TEST(TableLayout, NonConstantOffsetDegradesToInexact)
{
    Module m = constIndexFixture();
    m.elements[0].offset = {Instr::globalGet(0),
                            Instr(Opcode::End)};
    TableLayout t = computeTableLayout(m);
    EXPECT_TRUE(t.diags.hasCode(kLintTableNonConstOffset));
    EXPECT_FALSE(t.exact);
    // The conservative union still includes the segment's functions.
    EXPECT_EQ(t.segmentFuncs, (std::vector<uint32_t>{0, 1}));
}

TEST(TableLayout, SegmentPastTableMinimumDiagnosed)
{
    Module m = constIndexFixture();
    m.elements[0].offset = {Instr::i32Const(1), Instr(Opcode::End)};
    TableLayout t = computeTableLayout(m); // offset 1 + 2 funcs > min 2
    EXPECT_TRUE(t.diags.hasCode(kLintTableSegmentOutOfRange));
    EXPECT_FALSE(t.exact);
}

TEST(TableLayout, ImportedTableIsHostVisibleAndInexact)
{
    Module m = constIndexFixture();
    m.tables[0].import = wasm::ImportRef{"env", "table"};
    TableLayout t = computeTableLayout(m);
    EXPECT_TRUE(t.hostVisible);
    EXPECT_FALSE(t.exact);
}

// ----- refined call graph --------------------------------------------

TEST(RefinedCallGraph, ConstantIndexResolvesToUniqueTarget)
{
    Module m = constIndexFixture();
    CallGraph rcg(m, Precision::Refined);
    // main: 0 i32.const 7 / 1 i32.const 1 / 2 call_indirect
    const CallSite *site = rcg.siteAt(2, 2);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->kind, SiteKind::IndirectConst);
    EXPECT_EQ(site->constIndex, std::optional<uint32_t>(1));
    EXPECT_EQ(site->targets, (std::vector<uint32_t>{1}));
}

TEST(RefinedCallGraph, DeadFunctionsAreStrictSupersetOfSeed)
{
    // The acceptance fixture: seed whole-table reachability keeps both
    // table functions alive; refinement proves slot 0 dead.
    Module m = constIndexFixture();
    std::vector<uint32_t> seed_dead =
        CallGraph(m, Precision::Seed).deadFunctions();
    std::vector<uint32_t> refined_dead =
        CallGraph(m, Precision::Refined).deadFunctions();
    EXPECT_TRUE(seed_dead.empty());
    EXPECT_EQ(refined_dead, (std::vector<uint32_t>{0}));
    EXPECT_TRUE(std::includes(refined_dead.begin(), refined_dead.end(),
                              seed_dead.begin(), seed_dead.end()));
}

TEST(RefinedCallGraph, HostVisibleTableBlocksNarrowing)
{
    // Exporting the table lets the host rewrite any slot; the same
    // constant-index site must degrade to an open target set.
    Module m = constIndexFixture(/*export_table=*/true);
    CallGraph rcg(m, Precision::Refined);
    const CallSite *site = rcg.siteAt(2, 2);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->kind, SiteKind::IndirectUnknown);
    // ... and every table function is reachable again (table = root).
    EXPECT_TRUE(rcg.deadFunctions().empty());
}

TEST(RefinedCallGraph, DynamicIndexYieldsTypedTargetSet)
{
    ModuleBuilder mb;
    uint32_t f0 = addConst(mb, 1);
    uint32_t f1 = addConst(mb, 2);
    uint32_t other = mb.addFunction(
        FuncType({}, {ValType::I32}), "",
        [&](FunctionBuilder &f) { f.i32Const(3); });
    uint32_t type_idx = mb.type(kTableType);
    mb.addFunction(FuncType({ValType::I32}, {ValType::I32}), "main",
                   [&](FunctionBuilder &f) {
                       f.i32Const(7);
                       f.localGet(0);
                       f.callIndirect(type_idx);
                   });
    mb.table(3, 3);
    mb.elem(0, {f0, f1, other});
    Module m = mb.build();
    wasm::validateModule(m);

    CallGraph rcg(m, Precision::Refined);
    const CallSite *site = rcg.siteAt(3, 2);
    ASSERT_NE(site, nullptr);
    // Only the signature-matching slot occupants, not `other`.
    EXPECT_EQ(site->kind, SiteKind::IndirectTyped);
    EXPECT_EQ(site->targets, (std::vector<uint32_t>{f0, f1}));
}

TEST(RefinedCallGraph, SignatureMismatchAtConstantIndexHasNoTargets)
{
    ModuleBuilder mb;
    uint32_t f0 = addConst(mb, 1);
    uint32_t wrong = mb.type(FuncType({}, {ValType::F64}));
    mb.addFunction(FuncType({}, {}), "main", [&](FunctionBuilder &f) {
        f.i32Const(0);
        f.callIndirect(wrong);
        f.drop();
    });
    mb.table(1, 1);
    mb.elem(0, {f0});
    Module m = mb.build();

    CallGraph rcg(m, Precision::Refined);
    // main: 0 i32.const 0 / 1 call_indirect / 2 drop
    const CallSite *site = rcg.siteAt(1, 1);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->kind, SiteKind::IndirectNone);
    EXPECT_TRUE(site->targets.empty());
}

TEST(RefinedCallGraph, RefinedDotRendersPerSiteEdges)
{
    Module m = constIndexFixture();
    std::string dot = refinedCallGraphDot(m);
    // The proven-unique edge is bold and labeled with site + index;
    // the dead slot-0 function renders dashed.
    EXPECT_NE(dot.find("f2 -> f1"), std::string::npos) << dot;
    EXPECT_NE(dot.find("style=bold"), std::string::npos) << dot;
    EXPECT_NE(dot.find("[1]"), std::string::npos) << dot;
    EXPECT_NE(dot.find("f0 [label=\"f0\", style=dashed]"),
              std::string::npos)
        << dot;
}

// ----- lint integration ----------------------------------------------

TEST(InterprocLint, RefinedOnlyDeadFunctionReported)
{
    // Function 0 is dead only under refinement; an appended function
    // that nothing references is dead under both graphs.
    Module m = constIndexFixture();
    m.functions.push_back(m.functions[0]);
    m.functions.back().debugName.clear();
    wasm::validateModule(m);
    const uint32_t seed_dead = m.numFunctions() - 1;
    Diagnostics d = passes::lintModule(m);
    EXPECT_TRUE(d.hasCode(passes::kLintInterprocDeadFunction))
        << toString(d);
    EXPECT_TRUE(d.hasCode(passes::kLintDeadFunction)) << toString(d);

    // The two codes partition the dead functions: the Seed graph's
    // under lint.deadcode.function, the rest of the Refined graph's
    // under lint.interproc.dead-function, none under both.
    auto reportedUnder = [&](uint32_t f, const std::string &code) {
        return std::count_if(d.all().begin(), d.all().end(),
                             [&](const Diagnostic &x) {
                                 return x.code == code && x.func == f;
                             });
    };
    std::vector<uint32_t> dead =
        CallGraph(m, Precision::Refined).deadFunctions();
    EXPECT_EQ(dead, (std::vector<uint32_t>{0, seed_dead}));
    for (uint32_t f : dead) {
        EXPECT_EQ(reportedUnder(f, passes::kLintDeadFunction) +
                      reportedUnder(f, passes::kLintInterprocDeadFunction),
                  1)
            << "function " << f << "\n" << toString(d);
    }
    EXPECT_EQ(reportedUnder(0, passes::kLintInterprocDeadFunction), 1);
    EXPECT_EQ(reportedUnder(seed_dead, passes::kLintDeadFunction), 1);
}

TEST(InterprocLint, NoTargetSiteReported)
{
    ModuleBuilder mb;
    uint32_t f0 = addConst(mb, 1);
    uint32_t wrong = mb.type(FuncType({}, {ValType::F64}));
    mb.addFunction(FuncType({}, {}), "main", [&](FunctionBuilder &f) {
        f.i32Const(0);
        f.callIndirect(wrong);
        f.drop();
    });
    mb.table(1, 1);
    mb.elem(0, {f0});
    Module m = mb.build();
    Diagnostics d = passes::lintModule(m);
    EXPECT_TRUE(d.hasCode(passes::kLintInterprocNoTargets))
        << toString(d);
}

TEST(InterprocLint, UnresolvableSiteOnHostVisibleTableReported)
{
    Module m = constIndexFixture(/*export_table=*/true);
    Diagnostics d = passes::lintModule(m);
    EXPECT_TRUE(d.hasCode(passes::kLintInterprocUnresolvable))
        << toString(d);
}

TEST(InterprocLint, DeadParameterReported)
{
    ModuleBuilder mb;
    uint32_t callee = mb.addFunction(
        FuncType({ValType::I32, ValType::I32}, {ValType::I32}), "",
        [](FunctionBuilder &f) {
            // Parameter 1 is never read.
            f.localGet(0).i32Const(1).op(Opcode::I32Add);
        });
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [&](FunctionBuilder &f) {
                       f.i32Const(3).i32Const(4).call(callee);
                   });
    Module m = mb.build();
    wasm::validateModule(m);
    Diagnostics d = passes::lintModule(m);
    EXPECT_TRUE(d.hasCode(passes::kLintInterprocDeadParam))
        << toString(d);
}

TEST(InterprocLint, TableDiagnosticsSurfaceInLint)
{
    Module m = constIndexFixture();
    m.elements[0].funcIdxs.push_back(99);
    Diagnostics d = passes::lintModule(m);
    EXPECT_TRUE(d.hasCode(kLintTableFuncOutOfRange)) << toString(d);
}

// ----- `opt` call_indirect claims: checker re-proof -------------------

/** The `opt` passes the refined call graph licenses. */
const std::vector<std::string> kRefinedPasses = {"call-indirect"};

TEST(InterprocOpt, HostVisibleTableYieldsNoCallClaims)
{
    // The host can rewrite any slot of an exported table, so the
    // constant index proves nothing.
    Module m = constIndexFixture(/*export_table=*/true);
    rewrite::OptResult r = rewrite::optimize(m, kRefinedPasses);
    EXPECT_TRUE(r.claims.directCalls.empty());
}

/** Re-prove @p claims for the fixture against @p optimized. */
Diagnostics
recheck(const Module &m, const Module &optimized,
        const rewrite::OptClaims &claims)
{
    return rewrite::checkOptimization(m, wasm::encodeModule(optimized),
                                      claims);
}

TEST(InterprocOpt, CheckerRejectsTamperedCallTarget)
{
    // An attacker (or a stale manifest) claiming the wrong callee must
    // be caught by the checker's re-proof, not trusted.
    Module m = constIndexFixture();
    rewrite::OptResult r = rewrite::optimize(m, kRefinedPasses);
    rewrite::OptClaims tampered = r.claims;
    ASSERT_EQ(tampered.directCalls.size(), 1u);
    tampered.directCalls[0].target = 0;
    Diagnostics d = recheck(m, r.module, tampered);
    EXPECT_TRUE(d.hasCode("check.opt.bad-call-target")) << toString(d);
}

TEST(InterprocOpt, CheckerRejectsCallClaimOnNonCallSite)
{
    Module m = constIndexFixture();
    rewrite::OptResult r = rewrite::optimize(m, kRefinedPasses);
    rewrite::OptClaims tampered = r.claims;
    ASSERT_EQ(tampered.directCalls.size(), 1u);
    tampered.directCalls[0].instr = 0; // the i32.const 7
    Diagnostics d = recheck(m, r.module, tampered);
    EXPECT_TRUE(d.hasCode("check.opt.bad-call-target")) << toString(d);
}

TEST(InterprocOpt, CheckerRejectsUnprovableClaimOnHostVisibleTable)
{
    // Claim the rewrite on the host-visible variant anyway: the
    // refined graph cannot prove it.
    Module m = constIndexFixture(/*export_table=*/true);
    Module proven = constIndexFixture();
    rewrite::OptResult r = rewrite::optimize(proven, kRefinedPasses);
    rewrite::OptClaims tampered = r.claims;
    ASSERT_EQ(tampered.directCalls.size(), 1u);
    Diagnostics d = recheck(m, r.module, tampered);
    EXPECT_TRUE(d.hasCode("check.opt.bad-call-target")) << toString(d);
}

// ----- runtime behavior at constant-index sites ----------------------

/** Records every onCallPre as (callee, table index or -1). */
class CallRecorder final : public runtime::Analysis {
  public:
    core::HookSet hooks() const override
    {
        return {HookKind::Call};
    }

    std::vector<std::pair<uint32_t, int64_t>> calls;

    void
    onCallPre(runtime::Location, uint32_t func,
              std::span<const wasm::Value>,
              std::optional<uint32_t> table_index) override
    {
        calls.emplace_back(func,
                           table_index ? static_cast<int64_t>(*table_index)
                                       : -1);
    }
};

TEST(InterprocRuntime, NarrowedSiteReportsStaticTargetAndIndex)
{
    // The call_indirect the refined call graph narrows to one target
    // keeps its indirect call_pre hook: the runtime resolves the
    // table-index argument to the callee the refinement proves, in
    // the original index space.
    Module m = constIndexFixture();
    CallGraph rcg(m, Precision::Refined);
    ASSERT_TRUE(std::any_of(rcg.sites().begin(), rcg.sites().end(),
                            [](const CallSite &s) {
                                return s.kind == SiteKind::IndirectConst;
                            }));
    core::InstrumentResult r = core::instrument(m, HookSet::all());

    CallRecorder rec;
    runtime::WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    auto inst = rt.instantiate(r.module);
    interp::Interpreter interp;
    std::vector<wasm::Value> out =
        interp.invokeExport(*inst, "main", {});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].i32(), 27u); // 7 + 20 through slot 1

    ASSERT_EQ(rec.calls.size(), 1u);
    EXPECT_EQ(rec.calls[0].first, 1u);  // original-space callee
    EXPECT_EQ(rec.calls[0].second, 1);  // the constant table index
}

} // namespace
} // namespace wasabi::static_analysis::interproc
