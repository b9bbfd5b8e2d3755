#include "static/dataflow.h"

#include <bit>

namespace wasabi::static_analysis {

BitSet::BitSet(uint32_t size, bool all_ones)
    : size_(size), words_((size + 63) / 64, all_ones ? ~0ull : 0ull)
{
    // Clear the unused high bits so operator== stays exact.
    if (all_ones && (size & 63) != 0)
        words_.back() = (1ull << (size & 63)) - 1;
}

bool
BitSet::intersectWith(const BitSet &other)
{
    bool changed = false;
    for (size_t w = 0; w < words_.size(); ++w) {
        uint64_t next = words_[w] & other.words_[w];
        changed |= next != words_[w];
        words_[w] = next;
    }
    return changed;
}

bool
BitSet::unionWith(const BitSet &other)
{
    bool changed = false;
    for (size_t w = 0; w < words_.size(); ++w) {
        uint64_t next = words_[w] | other.words_[w];
        changed |= next != words_[w];
        words_[w] = next;
    }
    return changed;
}

uint32_t
BitSet::count() const
{
    uint32_t n = 0;
    for (uint64_t w : words_)
        n += static_cast<uint32_t>(std::popcount(w));
    return n;
}

namespace {

/** Dominators: in[b] = blocks dominating all paths to b's entry. */
struct DominatorProblem {
    uint32_t numBlocks;
    using Value = BitSet;
    Value boundary() { return BitSet(numBlocks, false); }
    Value initial() { return BitSet(numBlocks, true); }
    void
    transfer(const Cfg &, uint32_t block, const Value &in, Value &out)
    {
        out = in;
        out.set(block);
    }
    bool
    merge(Value &into, const Value &from)
    {
        return into.intersectWith(from);
    }
};

} // namespace

std::vector<bool>
reachableBlocks(const Cfg &cfg)
{
    std::vector<bool> reach(cfg.numBlocks());
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b)
        reach[b] = cfg.reachable(b);
    return reach;
}

std::vector<BitSet>
dominatorSets(const Cfg &cfg)
{
    DominatorProblem p{cfg.numBlocks()};
    // solveForward returns in-values; a block's dominator set is its
    // out-value (the block always dominates itself).
    std::vector<BitSet> doms = solveForward(cfg, p);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b)
        doms[b].set(b);
    return doms;
}

std::vector<uint32_t>
immediateDominators(const Cfg &cfg)
{
    std::vector<BitSet> doms = dominatorSets(cfg);
    std::vector<uint32_t> counts(cfg.numBlocks());
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b)
        counts[b] = doms[b].count();
    std::vector<uint32_t> idom(cfg.numBlocks(), kNoIdom);
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!cfg.reachable(b) || b == cfg.entry())
            continue;
        // The immediate dominator is the strict dominator with the
        // largest dominator set of its own.
        uint32_t best = kNoIdom;
        uint32_t best_count = 0;
        for (uint32_t d = 0; d < cfg.numBlocks(); ++d) {
            if (d == b || !doms[b].test(d))
                continue;
            if (best == kNoIdom || counts[d] > best_count) {
                best = d;
                best_count = counts[d];
            }
        }
        idom[b] = best;
    }
    return idom;
}

std::vector<std::pair<uint32_t, uint32_t>>
backEdges(const Cfg &cfg)
{
    std::vector<BitSet> doms = dominatorSets(cfg);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!cfg.reachable(b))
            continue;
        for (uint32_t s : cfg.succs(b)) {
            if (doms[b].test(s))
                edges.push_back({b, s});
        }
    }
    return edges;
}

} // namespace wasabi::static_analysis
