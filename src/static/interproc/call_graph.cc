#include "static/interproc/call_graph.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/static_info.h"
#include "static/dot_util.h"
#include "static/passes/constprop.h"
#include "support/parallel.h"
#include "wasm/opcode.h"

namespace wasabi::static_analysis::interproc {

using wasm::Module;
using wasm::OpClass;

const char *
name(SiteKind k)
{
    switch (k) {
      case SiteKind::Direct: return "direct";
      case SiteKind::IndirectConst: return "indirect-const";
      case SiteKind::IndirectTyped: return "indirect-typed";
      case SiteKind::IndirectUnknown: return "indirect-unknown";
      case SiteKind::IndirectNone: return "indirect-none";
    }
    return "?";
}

namespace {

std::vector<uint32_t>
typeMatched(const Module &m, const std::vector<uint32_t> &funcs,
            const wasm::FuncType &sig)
{
    std::vector<uint32_t> out;
    for (uint32_t t : funcs) {
        if (m.funcType(t) == sig)
            out.push_back(t);
    }
    return out;
}

} // namespace

CallGraph::CallGraph(const Module &m, Precision precision, unsigned workers)
    : table_(computeTableLayout(m))
{
    const uint32_t n = m.numFunctions();
    callees_.resize(n);
    callers_.resize(n);

    // A Seed graph, a host-visible table (the host can mutate or
    // pre-populate it) and an inexact layout all leave nothing
    // stronger than the type-matched segment union.
    const bool unknown_layout = precision == Precision::Seed ||
                                table_.hostVisible || !table_.exact;

    // Functions actually placed in a slot (exact layouts only),
    // sorted — strictly tighter than the whole segment union.
    std::vector<uint32_t> slot_funcs;
    if (!unknown_layout) {
        for (const std::optional<uint32_t> &s : table_.slots) {
            if (s)
                slot_funcs.push_back(*s);
        }
        std::sort(slot_funcs.begin(), slot_funcs.end());
        slot_funcs.erase(
            std::unique(slot_funcs.begin(), slot_funcs.end()),
            slot_funcs.end());
    }

    // Each function's sites and callees are found on their own, then
    // joined in function order.
    std::vector<std::vector<CallSite>> func_sites(n);
    support::parallelFor(n, support::workerCount(workers, n), [&](size_t fi,
                                                                  unsigned) {
        const uint32_t f = static_cast<uint32_t>(fi);
        const wasm::Function &func = m.functions[f];
        if (func.imported())
            return;
        std::vector<CallSite> &sites = func_sites[f];
        std::vector<uint32_t> &callees = callees_[f];
        // Constant table indices from the constprop lattice are
        // only needed when some call_indirect could use them.
        std::optional<passes::ConstFacts> facts;
        for (uint32_t i = 0; i < func.body.size(); ++i) {
            const wasm::Instr &instr = func.body[i];
            OpClass cls = wasm::opInfo(instr.op).cls;
            if (cls != OpClass::Call && cls != OpClass::CallIndirect)
                continue;

            CallSite site;
            site.func = f;
            site.instr = i;
            if (cls == OpClass::Call) {
                site.kind = SiteKind::Direct;
                if (instr.imm.idx < n)
                    site.targets.push_back(instr.imm.idx);
            } else if (unknown_layout) {
                site.kind = SiteKind::IndirectUnknown;
                site.targets = typeMatched(m, table_.segmentFuncs,
                                           m.types.at(instr.imm.idx));
            } else {
                const wasm::FuncType &sig = m.types.at(instr.imm.idx);
                if (!facts)
                    facts = passes::constantFacts(m, f);
                auto it = facts->callIndirectIndex.find(
                    core::packLoc({f, i}));
                if (it != facts->callIndirectIndex.end()) {
                    const uint32_t cidx = it->second;
                    site.constIndex = cidx;
                    std::optional<uint32_t> target;
                    if (cidx < table_.slots.size())
                        target = table_.slots[cidx];
                    if (target && m.funcType(*target) == sig) {
                        site.kind = SiteKind::IndirectConst;
                        site.targets.push_back(*target);
                    } else {
                        // Out of range, null slot, or signature
                        // mismatch: the call always traps.
                        site.kind = SiteKind::IndirectNone;
                    }
                } else {
                    site.targets = typeMatched(m, slot_funcs, sig);
                    site.kind = site.targets.empty()
                                    ? SiteKind::IndirectNone
                                    : SiteKind::IndirectTyped;
                }
            }
            callees.insert(callees.end(), site.targets.begin(),
                           site.targets.end());
            sites.push_back(std::move(site));
        }
        std::sort(callees.begin(), callees.end());
        callees.erase(std::unique(callees.begin(), callees.end()),
                      callees.end());
    });
    size_t num_sites = 0;
    for (const std::vector<CallSite> &sites : func_sites)
        num_sites += sites.size();
    sites_.reserve(num_sites);
    for (uint32_t f = 0; f < n; ++f) {
        std::move(func_sites[f].begin(), func_sites[f].end(),
                  std::back_inserter(sites_));
        for (uint32_t c : callees_[f])
            callers_[c].push_back(f);
    }
    for (uint32_t f = 0; f < n; ++f) {
        std::sort(callers_[f].begin(), callers_[f].end());
        callers_[f].erase(
            std::unique(callers_[f].begin(), callers_[f].end()),
            callers_[f].end());
    }

    // Roots are the same at both precisions, so refined reachability
    // is comparable with (and provably a subset of) the seed's.
    for (uint32_t f = 0; f < n; ++f) {
        if (!m.functions[f].exportNames.empty())
            roots_.push_back(f);
    }
    if (m.start)
        roots_.push_back(*m.start);
    if (table_.hasTable && table_.hostVisible) {
        roots_.insert(roots_.end(), table_.segmentFuncs.begin(),
                      table_.segmentFuncs.end());
    }
    std::sort(roots_.begin(), roots_.end());
    roots_.erase(std::unique(roots_.begin(), roots_.end()),
                 roots_.end());

    reachable_.assign(n, false);
    std::vector<uint32_t> worklist = roots_;
    for (uint32_t r : roots_)
        reachable_[r] = true;
    while (!worklist.empty()) {
        uint32_t f = worklist.back();
        worklist.pop_back();
        for (uint32_t c : callees_[f]) {
            if (!reachable_[c]) {
                reachable_[c] = true;
                worklist.push_back(c);
            }
        }
    }
}

const CallSite *
CallGraph::siteAt(uint32_t func, uint32_t instr) const
{
    auto it = std::lower_bound(
        sites_.begin(), sites_.end(), std::make_pair(func, instr),
        [](const CallSite &s, const std::pair<uint32_t, uint32_t> &at) {
            return std::make_pair(s.func, s.instr) < at;
        });
    return it != sites_.end() && it->func == func && it->instr == instr
               ? &*it
               : nullptr;
}

std::vector<uint32_t>
CallGraph::deadFunctions() const
{
    std::vector<uint32_t> dead;
    for (uint32_t f = 0; f < reachable_.size(); ++f) {
        if (!reachable_[f])
            dead.push_back(f);
    }
    return dead;
}

size_t
CallGraph::numEdges() const
{
    size_t edges = 0;
    for (const std::vector<uint32_t> &c : callees_)
        edges += c.size();
    return edges;
}

std::string
CallGraph::toDot(const Module &m) const
{
    std::vector<DotNode> nodes;
    std::vector<DotEdge> edges;
    for (uint32_t f = 0; f < callees_.size(); ++f)
        nodes.push_back(funcDotNode(m, f, !reachable_[f]));
    for (const CallSite &s : sites_) {
        for (uint32_t t : s.targets) {
            DotEdge e;
            e.from = "f" + std::to_string(s.func);
            e.to = "f" + std::to_string(t);
            e.label = "i" + std::to_string(s.instr);
            if (s.kind == SiteKind::IndirectConst) {
                e.bold = true;
                e.label += " [" + std::to_string(*s.constIndex) + "]";
            } else if (s.kind == SiteKind::IndirectUnknown) {
                e.dashed = true;
            }
            edges.push_back(std::move(e));
        }
    }
    return renderDigraph("refined_callgraph", nodes, edges);
}

} // namespace wasabi::static_analysis::interproc
