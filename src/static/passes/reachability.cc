#include "static/passes/reachability.h"

#include "static/call_graph.h"
#include "static/cfg.h"

namespace wasabi::static_analysis::passes {

ReachabilityFacts
reachabilityFacts(const wasm::Module &m)
{
    ReachabilityFacts facts;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        const wasm::Function &func = m.functions[f];
        if (func.imported() || func.body.empty())
            continue;
        Cfg cfg(m, f);
        for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
            const BasicBlock &blk = cfg.blocks()[b];
            if (cfg.reachable(b) || blk.empty())
                continue;
            // Merge adjacent unreachable blocks into maximal ranges.
            if (!facts.unreachableBlocks.empty()) {
                UnreachableRange &prev = facts.unreachableBlocks.back();
                if (prev.func == f && prev.last + 1 == blk.first) {
                    prev.last = blk.last;
                    continue;
                }
            }
            facts.unreachableBlocks.push_back(
                UnreachableRange{f, blk.first, blk.last});
        }
    }

    StaticCallGraph cg(m);
    for (uint32_t f : cg.deadFunctions()) {
        if (!m.functions[f].imported())
            facts.deadFunctions.push_back(f);
    }
    return facts;
}

} // namespace wasabi::static_analysis::passes
