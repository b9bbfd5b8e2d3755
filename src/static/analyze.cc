#include "static/analyze.h"

#include <cstdio>

#include "static/cfg.h"
#include "static/dataflow.h"
#include "static/dot_util.h"
#include "static/interproc/call_graph.h"
#include "static/passes/range.h"
#include "support/parallel.h"

namespace wasabi::static_analysis {

using wasm::Module;

ModuleReport
analyzeModule(const Module &m)
{
    ModuleReport r;
    r.numFunctions = m.numFunctions();
    r.numImportedFunctions = m.numImportedFunctions();
    r.numInstructions = static_cast<uint32_t>(m.numInstructions());

    interproc::CallGraph cg(m, interproc::Precision::Seed,
                            support::kAllCpus);
    r.numCallEdges = cg.numEdges();
    r.deadFunctions = cg.deadFunctions();

    // One slot per function, joined in function order.
    const uint32_t n = m.numFunctions();
    std::vector<FunctionStats> stats(n);
    const unsigned workers = support::workerCount(support::kAllCpus, n);
    support::parallelFor(n, workers, [&](size_t f, unsigned) {
        if (m.functions[f].imported())
            return;
        const uint32_t fi = static_cast<uint32_t>(f);
        Cfg cfg(m, fi);
        FunctionStats &s = stats[f];
        s.funcIdx = fi;
        s.numInstrs = static_cast<uint32_t>(m.functions[f].body.size());
        s.numBlocks = cfg.numBlocks();
        s.numEdges = cfg.numEdges();
        s.numBackEdges = static_cast<uint32_t>(backEdges(cfg).size());
        s.numUnreachable = cfg.numBlocks() - cfg.numReachable();
        s.dead = !cg.reachable(fi);
    });
    for (uint32_t f = 0; f < n; ++f) {
        if (!m.functions[f].imported())
            r.functions.push_back(stats[f]);
    }
    return r;
}

std::string
toString(const ModuleReport &r)
{
    std::string out;
    out += "module: " + std::to_string(r.numFunctions) + " functions (" +
           std::to_string(r.numImportedFunctions) + " imported), " +
           std::to_string(r.numInstructions) + " instructions, " +
           std::to_string(r.numCallEdges) + " call edges\n";
    out += "func  instrs  blocks  edges  loops  unreachable\n";
    for (const FunctionStats &s : r.functions) {
        char line[128];
        std::snprintf(line, sizeof line, "%4u  %6u  %6u  %5u  %5u  %11u%s\n",
                      s.funcIdx, s.numInstrs, s.numBlocks, s.numEdges,
                      s.numBackEdges, s.numUnreachable,
                      s.dead ? "  [dead]" : "");
        out += line;
    }
    if (!r.deadFunctions.empty()) {
        out += "dead functions:";
        for (uint32_t f : r.deadFunctions)
            out += " " + std::to_string(f);
        out += "\n";
    }
    return out;
}

std::string
toJson(const ModuleReport &r)
{
    std::string out = "{";
    out += "\"functions\":" + std::to_string(r.numFunctions);
    out += ",\"imported\":" + std::to_string(r.numImportedFunctions);
    out += ",\"instructions\":" + std::to_string(r.numInstructions);
    out += ",\"callEdges\":" + std::to_string(r.numCallEdges);
    out += ",\"deadFunctions\":[";
    for (size_t i = 0; i < r.deadFunctions.size(); ++i) {
        if (i)
            out += ",";
        out += std::to_string(r.deadFunctions[i]);
    }
    out += "],\"perFunction\":[";
    for (size_t i = 0; i < r.functions.size(); ++i) {
        const FunctionStats &s = r.functions[i];
        if (i)
            out += ",";
        out += "{\"func\":" + std::to_string(s.funcIdx);
        out += ",\"instrs\":" + std::to_string(s.numInstrs);
        out += ",\"blocks\":" + std::to_string(s.numBlocks);
        out += ",\"edges\":" + std::to_string(s.numEdges);
        out += ",\"backEdges\":" + std::to_string(s.numBackEdges);
        out += ",\"unreachableBlocks\":" +
               std::to_string(s.numUnreachable);
        out += std::string(",\"dead\":") + (s.dead ? "true" : "false");
        out += "}";
    }
    out += "]}";
    return out;
}

std::string
cfgDot(const Module &m, uint32_t func_idx)
{
    return Cfg(m, func_idx).toDot(m);
}

std::string
callGraphDot(const Module &m)
{
    interproc::CallGraph cg(m, interproc::Precision::Seed,
                            support::kAllCpus);
    std::vector<DotNode> nodes;
    std::vector<DotEdge> edges;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        nodes.push_back(funcDotNode(m, f, !cg.reachable(f)));
        for (uint32_t c : cg.callees(f))
            edges.push_back({nodes.back().id, "f" + std::to_string(c), ""});
    }
    return renderDigraph("callgraph", nodes, edges);
}

std::string
refinedCallGraphDot(const Module &m)
{
    return interproc::CallGraph(m, interproc::Precision::Refined,
                                support::kAllCpus)
        .toDot(m);
}

std::string
rangesJson(const Module &m, unsigned num_threads)
{
    return passes::rangesToJson(m,
                                passes::moduleRanges(m, num_threads));
}

std::string
rangesDot(const Module &m, uint32_t func_idx)
{
    return passes::rangesDot(m, passes::moduleRanges(m), func_idx);
}

} // namespace wasabi::static_analysis
