/**
 * @file
 * Oracle for the static kernels' worklist solvers and flat CFG. A
 * reference round-robin solver (re-run every block in reverse
 * post-order until nothing changes, copying every merge) solves the
 * same dataflow problems as solveForward / solveBackward; every fact
 * derived from the two solutions must be equal, on every function of
 * the 30 PolyBench kernels, random:1..40 and app:small. The CFG's
 * flat storage is checked against its definition on the same corpus:
 * preds is the transpose of succs, every edge span is sorted and
 * unique, the cached reverse post-order is a fresh DFS's, and blockOf
 * agrees with the block ranges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "static/cfg.h"
#include "static/dataflow.h"
#include "static/passes/constprop.h"
#include "static/passes/deadstore.h"
#include "static/passes/problems.h"
#include "wasm/builder.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::static_analysis {
namespace {

using passes::AbsConst;
using passes::ConstFacts;
using passes::DeadStore;
using passes::LocalsValue;
using wasm::Module;

// ----- reference -----------------------------------------------------

/** Reverse post-order by a recursive DFS over succs, unreachable
 * blocks appended in index order; @p reached gets the visited set. */
std::vector<uint32_t>
freshReversePostOrder(const Cfg &cfg, std::vector<bool> &reached)
{
    std::vector<uint32_t> post;
    reached.assign(cfg.numBlocks(), false);
    auto dfs = [&](auto &self, uint32_t b) -> void {
        reached[b] = true;
        for (uint32_t s : cfg.succs(b)) {
            if (!reached[s])
                self(self, s);
        }
        post.push_back(b);
    };
    dfs(dfs, cfg.entry());
    std::vector<uint32_t> order(post.rbegin(), post.rend());
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!reached[b])
            order.push_back(b);
    }
    return order;
}

/** Round-robin forward solver: every block, in reverse post-order,
 * every pass, until a pass changes nothing. */
template <typename Problem>
std::vector<typename Problem::Value>
roundRobinForward(const Cfg &cfg, Problem &problem)
{
    using Value = typename Problem::Value;
    std::vector<bool> reached;
    const std::vector<uint32_t> order = freshReversePostOrder(cfg, reached);
    std::vector<Value> in(cfg.numBlocks(), problem.initial());
    in[cfg.entry()] = problem.boundary();
    for (bool changed = true; changed;) {
        changed = false;
        for (uint32_t b : order) {
            Value out = problem.initial();
            problem.transfer(cfg, b, in[b], out);
            for (uint32_t s : cfg.succs(b)) {
                Value merged = in[s];
                if (problem.merge(merged, out)) {
                    in[s] = std::move(merged);
                    changed = true;
                }
            }
        }
    }
    return in;
}

/** Round-robin backward solver, in post order. */
template <typename Problem>
std::vector<typename Problem::Value>
roundRobinBackward(const Cfg &cfg, Problem &problem)
{
    using Value = typename Problem::Value;
    std::vector<bool> reached;
    std::vector<uint32_t> order = freshReversePostOrder(cfg, reached);
    std::reverse(order.begin(), order.end());
    std::vector<Value> out(cfg.numBlocks(), problem.initial());
    out[cfg.exit()] = problem.boundary();
    for (bool changed = true; changed;) {
        changed = false;
        for (uint32_t b : order) {
            Value in = problem.initial();
            problem.transfer(cfg, b, out[b], in);
            for (uint32_t p : cfg.preds(b)) {
                Value merged = out[p];
                if (problem.merge(merged, in)) {
                    out[p] = std::move(merged);
                    changed = true;
                }
            }
        }
    }
    return out;
}

/** Reachability as a dataflow instance (1 = can execute). */
struct ReachabilityProblem {
    using Value = uint8_t;
    Value boundary() const { return 1; }
    Value initial() const { return 0; }
    void
    transfer(const Cfg &, uint32_t, const Value &in, Value &out) const
    {
        out = in;
    }
    bool
    merge(Value &into, const Value &from) const
    {
        if (into || !from)
            return false;
        into = 1;
        return true;
    }
};

struct DominatorProblem {
    uint32_t numBlocks;
    using Value = BitSet;
    Value boundary() const { return BitSet(numBlocks, false); }
    Value initial() const { return BitSet(numBlocks, true); }
    void
    transfer(const Cfg &, uint32_t b, const Value &in, Value &out) const
    {
        out = in;
        out.set(b);
    }
    bool
    merge(Value &into, const Value &from) const
    {
        return into.intersectWith(from);
    }
};

std::vector<bool>
referenceReachable(const Cfg &cfg)
{
    ReachabilityProblem p;
    std::vector<uint8_t> in = roundRobinForward(cfg, p);
    return {in.begin(), in.end()};
}

std::vector<BitSet>
referenceDominators(const Cfg &cfg)
{
    DominatorProblem p{cfg.numBlocks()};
    std::vector<BitSet> doms = roundRobinForward(cfg, p);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b)
        doms[b].set(b);
    return doms;
}

std::vector<uint32_t>
referenceIdoms(const Cfg &cfg)
{
    std::vector<BitSet> doms = referenceDominators(cfg);
    std::vector<bool> reach = referenceReachable(cfg);
    std::vector<uint32_t> idom(cfg.numBlocks(), kNoIdom);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!reach[b] || b == cfg.entry())
            continue;
        uint32_t best = kNoIdom;
        uint32_t best_count = 0;
        for (uint32_t d = 0; d < cfg.numBlocks(); ++d) {
            if (d == b || !doms[b].test(d))
                continue;
            if (best == kNoIdom || doms[d].count() > best_count) {
                best = d;
                best_count = doms[d].count();
            }
        }
        idom[b] = best;
    }
    return idom;
}

std::vector<std::pair<uint32_t, uint32_t>>
referenceBackEdges(const Cfg &cfg)
{
    std::vector<BitSet> doms = referenceDominators(cfg);
    std::vector<bool> reach = referenceReachable(cfg);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!reach[b])
            continue;
        for (uint32_t s : cfg.succs(b)) {
            if (doms[b].test(s))
                edges.push_back({b, s});
        }
    }
    return edges;
}

/** Constant facts the way a sink pass finds them: solve, then
 * re-simulate every reached block on its fixpoint in-value. */
ConstFacts
referenceConstantFacts(const Module &m, uint32_t f)
{
    Cfg cfg(m, f);
    passes::ConstPropProblem problem(m, f);
    std::vector<LocalsValue> in = roundRobinForward(cfg, problem);
    std::vector<AbsConst> locals;
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!in[b].reached)
            continue;
        locals = in[b].locals;
        problem.simulate(cfg.blocks()[b], locals);
    }
    return passes::constFactsOf(m, cfg, problem.controls(), in);
}

std::vector<DeadStore>
referenceDeadStores(const Module &m, uint32_t f)
{
    const wasm::Function &func = m.functions[f];
    const uint32_t num_locals = static_cast<uint32_t>(
        m.funcType(f).params.size() + func.locals.size());
    Cfg cfg(m, f);
    passes::LivenessProblem problem(func.body, num_locals);
    return passes::deadStoresOf(m, cfg, roundRobinBackward(cfg, problem));
}

// ----- checks --------------------------------------------------------

bool
sortedUnique(std::span<const uint32_t> s)
{
    return std::adjacent_find(s.begin(), s.end(),
                              [](uint32_t a, uint32_t b) {
                                  return a >= b;
                              }) == s.end();
}

void
checkCfgInvariants(const Module &m, uint32_t f, const std::string &where)
{
    SCOPED_TRACE(where);
    Cfg cfg(m, f);
    const uint32_t nb = cfg.numBlocks();
    ASSERT_GE(nb, 2u);
    ASSERT_TRUE(cfg.blocks()[cfg.exit()].empty());

    size_t edges = 0;
    std::vector<std::vector<uint32_t>> transpose(nb);
    for (uint32_t b = 0; b < nb; ++b) {
        ASSERT_TRUE(sortedUnique(cfg.succs(b))) << "succs of B" << b;
        ASSERT_TRUE(sortedUnique(cfg.preds(b))) << "preds of B" << b;
        for (uint32_t s : cfg.succs(b)) {
            ASSERT_LT(s, nb);
            transpose[s].push_back(b);
        }
        edges += cfg.succs(b).size();
    }
    EXPECT_EQ(cfg.numEdges(), edges);
    for (uint32_t b = 0; b < nb; ++b) {
        std::span<const uint32_t> p = cfg.preds(b);
        EXPECT_EQ(std::vector<uint32_t>(p.begin(), p.end()), transpose[b])
            << "preds of B" << b << " are not the transpose of succs";
    }

    std::vector<bool> reached;
    std::vector<uint32_t> fresh = freshReversePostOrder(cfg, reached);
    EXPECT_EQ(cfg.reversePostOrder(), fresh);
    uint32_t num_reached = 0;
    for (uint32_t b = 0; b < nb; ++b) {
        EXPECT_TRUE(cfg.rpoIndex(b) < nb &&
                    cfg.reversePostOrder()[cfg.rpoIndex(b)] == b)
            << "rpoIndex of B" << b;
        EXPECT_EQ(cfg.reachable(b), reached[b]) << "B" << b;
        num_reached += reached[b];
    }
    EXPECT_EQ(cfg.numReachable(), num_reached);

    // Blocks tile the body in order; blockOf maps into them.
    uint32_t next = 0;
    for (uint32_t b = 0; b + 1 < nb; ++b) {
        const BasicBlock &blk = cfg.blocks()[b];
        ASSERT_EQ(blk.first, next) << "B" << b;
        ASSERT_LE(blk.first, blk.last) << "B" << b;
        for (uint32_t i = blk.first; i <= blk.last; ++i)
            ASSERT_EQ(cfg.blockOf(i), b) << "instruction " << i;
        next = blk.last + 1;
    }
    EXPECT_EQ(next, m.functions[f].body.size());
}

bool
sameDeadStores(const std::vector<DeadStore> &a,
               const std::vector<DeadStore> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const DeadStore &x, const DeadStore &y) {
                          return x.func == y.func && x.instr == y.instr &&
                                 x.local == y.local;
                      });
}

void
checkFunction(const Module &m, uint32_t f, const std::string &where)
{
    SCOPED_TRACE(where);
    Cfg cfg(m, f);

    ConstFacts got = passes::constantFacts(m, f);
    ConstFacts want = referenceConstantFacts(m, f);
    EXPECT_EQ(got.brIfCond, want.brIfCond);
    EXPECT_EQ(got.ifCond, want.ifCond);
    EXPECT_EQ(got.brTableIndex, want.brTableIndex);
    EXPECT_EQ(got.callIndirectIndex, want.callIndirectIndex);

    EXPECT_TRUE(sameDeadStores(passes::deadStores(m, f),
                               referenceDeadStores(m, f)))
        << "dead stores differ";
    EXPECT_EQ(dominatorSets(cfg), referenceDominators(cfg));
    EXPECT_EQ(immediateDominators(cfg), referenceIdoms(cfg));
    EXPECT_EQ(backEdges(cfg), referenceBackEdges(cfg));
    EXPECT_EQ(reachableBlocks(cfg), referenceReachable(cfg));
}

void
checkModule(const Module &m, const std::string &name)
{
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        if (m.functions[f].imported() || m.functions[f].body.empty())
            continue;
        const std::string where = name + " f" + std::to_string(f);
        checkCfgInvariants(m, f, where);
        checkFunction(m, f, where);
    }
}

Module
randomModule(uint64_t seed)
{
    workloads::RandomProgramOptions opts;
    opts.seed = seed;
    return workloads::randomProgram(opts).module;
}

TEST(SolverOracle, SelfLoopIsRevisited)
{
    // 0 loop / 1 get x / 2 const 1 / 3 set x / 4 br_if 0 / 5 end /
    // 6 end: one block that loops to itself. The first visit sees
    // x = 0 and a constant condition; only the revisit after the back
    // edge widens x to unknown drops that fact.
    wasm::ModuleBuilder mb;
    wasm::FunctionBuilder f =
        mb.startFunction(wasm::FuncType({}, {}), "f");
    uint32_t x = f.addLocal(wasm::ValType::I32);
    f.loop();
    f.localGet(x).i32Const(1).localSet(x).brIf(0);
    f.end();
    f.finish();
    Module m = mb.build();
    Cfg cfg(m, 0);
    const uint32_t body = cfg.blockOf(1);
    ASSERT_EQ(cfg.blockOf(4), body);
    ASSERT_FALSE(cfg.succs(body).empty());
    ASSERT_EQ(cfg.succs(body).front(), body);
    EXPECT_TRUE(passes::constantFacts(m, 0).brIfCond.empty());
    checkModule(m, "self-loop");
}

TEST(SolverOracle, PolybenchKernels)
{
    std::vector<workloads::Workload> suite = workloads::polybenchSuite(8);
    ASSERT_EQ(suite.size(), 30u);
    for (const workloads::Workload &w : suite)
        checkModule(w.module, w.name);
}

TEST(SolverOracle, RandomPrograms)
{
    for (uint64_t seed = 1; seed <= 40; ++seed)
        checkModule(randomModule(seed), "random:" + std::to_string(seed));
}

TEST(SolverOracle, AppSmall)
{
    checkModule(
        workloads::syntheticApp(workloads::AppSize::Small).module,
        "app:small");
}

} // namespace
} // namespace wasabi::static_analysis
