#include "static/passes/pipeline.h"

#include <set>

#include "core/control_stack.h"
#include "core/static_info.h"
#include "static/cfg.h"
#include "static/interproc/call_graph.h"
#include "static/passes/branch_refine.h"
#include "static/passes/constprop.h"
#include "static/passes/deadstore.h"
#include "static/passes/range.h"
#include "support/parallel.h"

namespace wasabi::static_analysis::passes {

using wasm::Instr;
using wasm::Module;
using wasm::OpClass;

std::vector<std::pair<uint32_t, uint32_t>>
emptyBlockPairs(const Module &m, uint32_t func_idx)
{
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    const wasm::Function &func = m.functions.at(func_idx);
    if (func.imported() || func.body.empty())
        return pairs;
    std::vector<core::BlockMatch> matches =
        core::matchBlocks(func.body);
    for (uint32_t i = 0; i < func.body.size(); ++i) {
        OpClass cls = wasm::opInfo(func.body[i].op).cls;
        if ((cls == OpClass::Block || cls == OpClass::Loop) &&
            matches[i].endIdx == i + 1)
            pairs.emplace_back(i, i + 1);
    }
    return pairs;
}

std::vector<std::pair<uint32_t, uint32_t>>
unreachableRanges(const Module &m, uint32_t func_idx)
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    const wasm::Function &func = m.functions.at(func_idx);
    if (func.imported() || func.body.empty())
        return ranges;
    Cfg cfg(m, func_idx);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock &blk = cfg.blocks()[b];
        if (cfg.reachable(b) || blk.empty())
            continue;
        if (!ranges.empty() && ranges.back().second + 1 == blk.first)
            ranges.back().second = blk.last;
        else
            ranges.emplace_back(blk.first, blk.last);
    }
    return ranges;
}

namespace {

/** The lint.interproc.* findings: refined-graph-only dead functions,
 * always-trapping or unresolvable indirect call sites, and never-read
 * parameters. */
void
lintInterproc(const Module &m, const interproc::CallGraph &seed,
              const interproc::CallGraph &rcg, Diagnostics &diags)
{
    diags.merge(rcg.table().diags);

    for (uint32_t f : rcg.deadFunctions()) {
        if (!seed.reachable(f) || m.functions[f].imported())
            continue; // already reported as lint.deadcode.function
        diags.warning(kLintInterprocDeadFunction,
                      "function is only reachable through indirect "
                      "call sites the refinement proves it cannot "
                      "take: dead under the refined call graph",
                      f);
    }

    for (const interproc::CallSite &s : rcg.sites()) {
        if (s.kind == interproc::SiteKind::IndirectNone) {
            std::string why =
                s.constIndex
                    ? "its constant table index " +
                          std::to_string(*s.constIndex) +
                          " resolves to no callable function of the "
                          "expected signature"
                    : "no table entry matches the expected signature";
            diags.warning(kLintInterprocNoTargets,
                          "call_indirect has zero possible targets (" +
                              why + "); it always traps",
                          s.func, s.instr);
        } else if (s.kind == interproc::SiteKind::IndirectUnknown) {
            diags.add(Severity::Note, kLintInterprocUnresolvable,
                      "call_indirect cannot be refined: the table is "
                      "host-visible or its element layout is not "
                      "statically known",
                      s.func, s.instr);
        }
    }

    // Parameters no instruction ever reads: callers still compute and
    // pass the argument for nothing. Dead functions are skipped (the
    // whole function was already reported above).
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        const wasm::Function &func = m.functions[f];
        if (func.imported() || func.body.empty() || !rcg.reachable(f))
            continue;
        const size_t n_params = m.funcType(f).params.size();
        std::vector<char> read(n_params, 0);
        for (const Instr &ins : func.body) {
            if (wasm::opInfo(ins.op).cls == OpClass::LocalGet &&
                ins.imm.idx < n_params)
                read[ins.imm.idx] = 1;
        }
        for (uint32_t p = 0; p < n_params; ++p) {
            if (!read[p])
                diags.add(Severity::Note, kLintInterprocDeadParam,
                          "parameter " + std::to_string(p) +
                              " is never read: every caller computes "
                              "and passes a value the function "
                              "ignores",
                          f);
        }
    }
}

/** The lint.range.* findings: accesses the interval domain proves out
 * of bounds, divisions by a provably zero divisor, and guard branches
 * whose condition is a range-derived constant. Guards the constant
 * pass already reported (lint.branch.const-condition) are skipped. */
void
lintRanges(const Module &m, const interproc::CallGraph &rcg,
           const std::set<uint64_t> &const_cond_locs, Diagnostics &diags)
{
    ModuleRanges mr = moduleRanges(m, rcg);
    const uint64_t minBytes = static_cast<uint64_t>(mr.minPages) *
                              65536;
    std::optional<uint64_t> maxBytes;
    if (mr.hasMemory && m.memories[0].limits.max)
        maxBytes = static_cast<uint64_t>(*m.memories[0].limits.max) *
                   65536;

    for (uint32_t f = 0; f < mr.functions.size(); ++f) {
        const FunctionRanges &fr = mr.functions[f];
        if (!fr.analyzed)
            continue;
        for (const MemAccess &a : fr.accesses) {
            uint64_t first = static_cast<uint64_t>(a.addr.lo) +
                             a.offset;
            const char *what = a.isStore ? "store" : "load";
            if (maxBytes && first + a.width > *maxBytes) {
                diags.warning(
                    kLintRangeOob,
                    std::string(what) + " of " +
                        std::to_string(a.width) + " bytes at address" +
                        " >= " + std::to_string(first) +
                        " always traps: memory can never exceed " +
                        std::to_string(*maxBytes) + " bytes",
                    f, a.instr);
            } else if (mr.hasMemory && first + a.width > minBytes) {
                diags.add(Severity::Note, kLintRangeGrowDependent,
                          std::string(what) + " of " +
                              std::to_string(a.width) +
                              " bytes at address >= " +
                              std::to_string(first) +
                              " traps unless memory is grown beyond "
                              "its declared minimum of " +
                              std::to_string(minBytes) + " bytes",
                          f, a.instr);
            }
        }
        for (uint32_t instr : fr.divByZero) {
            diags.warning(kLintRangeDivByZero,
                          "divisor is always zero: this instruction "
                          "always traps",
                          f, instr);
        }
        for (const DeadGuard &g : fr.deadGuards) {
            if (const_cond_locs.count(core::packLoc({f, g.instr})))
                continue;
            OpClass cls =
                wasm::opInfo(m.functions[f].body[g.instr].op).cls;
            diags.warning(
                kLintRangeDeadGuard,
                std::string(cls == OpClass::If ? "if" : "br_if") +
                    " condition is always " + std::to_string(g.value) +
                    " by value-range analysis",
                f, g.instr);
        }
    }
}

} // namespace

Diagnostics
lintModule(const Module &m)
{
    const uint32_t n = m.numFunctions();
    const interproc::CallGraph seed(m, interproc::Precision::Seed,
                                    support::kAllCpus);

    // Each function's findings are found on their own and joined in
    // function order.
    struct FuncFindings {
        Diagnostics diags;
        std::vector<uint64_t> constCondLocs;
    };
    std::vector<FuncFindings> per_func(n);
    const unsigned workers = support::workerCount(support::kAllCpus, n);
    support::parallelFor(n, workers, [&](size_t fi, unsigned) {
        const uint32_t f = static_cast<uint32_t>(fi);
        const wasm::Function &func = m.functions[f];
        if (func.imported())
            return;
        Diagnostics &diags = per_func[f].diags;

        if (!seed.reachable(f)) {
            diags.warning(kLintDeadFunction,
                          "function is never called: unreachable from "
                          "any export, the start function, or a "
                          "host-visible table",
                          f);
        }

        for (auto [first, last] : unreachableRanges(m, f)) {
            diags.warning(kLintUnreachableCode,
                          "instructions " + std::to_string(first) +
                              ".." + std::to_string(last) +
                              " can never execute",
                          f, first);
        }

        ConstFacts facts = constantFacts(m, f);
        BranchRefinements refs = refineBranches(m, f, facts);
        for (const ConstCondition &c : refs.constConditions) {
            per_func[f].constCondLocs.push_back(
                core::packLoc({c.func, c.instr}));
            std::string what = c.isIf ? "if" : "br_if";
            std::string effect =
                c.isIf ? (c.cond ? "the then-branch is always taken"
                                 : "the else-branch is always taken")
                       : (c.cond ? "the branch is always taken"
                                 : "the branch is never taken");
            diags.warning(kLintConstCondition,
                          what + " condition is always " +
                              std::to_string(c.cond) + ": " + effect,
                          c.func, c.instr);
        }
        for (const ConstBrTable &t : refs.constBrTables) {
            std::string which =
                t.isDefault ? "the default case"
                            : "case " + std::to_string(t.index);
            diags.warning(kLintConstIndex,
                          "br_table index is always " +
                              std::to_string(t.index) +
                              ": always takes " + which + " (label " +
                              std::to_string(t.label) + " -> instr " +
                              std::to_string(t.target) + ")",
                          t.func, t.instr);
        }

        for (const DeadStore &s : deadStores(m, f)) {
            diags.warning(kLintDeadStore,
                          "value stored to local " +
                              std::to_string(s.local) +
                              " is never read",
                          s.func, s.instr);
        }

        for (auto [begin, end] : emptyBlockPairs(m, f)) {
            OpClass cls = wasm::opInfo(func.body[begin].op).cls;
            diags.add(Severity::Note, kLintEmptyBlock,
                      std::string(cls == OpClass::Loop ? "loop"
                                                       : "block") +
                          " is empty (end at instr " +
                          std::to_string(end) + ")",
                      f, begin);
        }
    });

    Diagnostics diags;
    std::set<uint64_t> constCondLocs;
    for (const FuncFindings &ff : per_func) {
        diags.merge(ff.diags);
        constCondLocs.insert(ff.constCondLocs.begin(),
                             ff.constCondLocs.end());
    }
    const interproc::CallGraph refined(m, interproc::Precision::Refined,
                                       support::kAllCpus);
    lintInterproc(m, seed, refined, diags);
    lintRanges(m, refined, constCondLocs, diags);
    return diags;
}

} // namespace wasabi::static_analysis::passes
