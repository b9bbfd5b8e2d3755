/**
 * @file
 * Per-function control-flow graphs over the flat structured
 * instruction stream. Branch edges are resolved with the same
 * abstract-control-stack label resolution the instrumenter uses
 * (paper §2.4.4): a `br n` targets the first instruction inside a
 * loop, or the instruction after the matching `end` otherwise.
 *
 * Basic blocks are maximal ranges [first, last] of instruction
 * indices. Structural no-ops (`block`, `end`, ...) stay inside blocks
 * wherever control flow permits; only real branch points split them.
 * A synthetic exit node collects `return`, the function's final `end`,
 * and (as a no-successor sink) `unreachable`.
 *
 * Storage is flat: block edges live in two CSR arrays (one edge array
 * plus per-block offsets, for successors and for predecessors), and the
 * reverse post-order is computed once, in the constructor. Its DFS
 * visits exactly the blocks reachable from the entry, so reachability
 * is a comparison against the RPO position.
 */

#ifndef WASABI_STATIC_CFG_H
#define WASABI_STATIC_CFG_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wasm/module.h"

namespace wasabi::static_analysis {

/** Index of the entry block in Cfg::blocks(). */
inline constexpr uint32_t kCfgEntryBlock = 0;

struct BasicBlock {
    /** First and last instruction index, both inclusive. The synthetic
     * exit block has first > last (an empty range). */
    uint32_t first = 0;
    uint32_t last = 0;

    bool empty() const { return first > last; }
    size_t size() const { return empty() ? 0 : last - first + 1; }
};

/**
 * The control-flow graph of one defined function. Block 0 is the
 * entry block (it starts at instruction 0); the synthetic exit block
 * is last. The function must come from a validated module.
 */
class Cfg {
  public:
    /** Build the CFG of defined function @p func_idx. */
    Cfg(const wasm::Module &m, uint32_t func_idx);

    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    uint32_t numBlocks() const
    {
        return static_cast<uint32_t>(blocks_.size());
    }

    uint32_t funcIdx() const { return funcIdx_; }
    uint32_t entry() const { return kCfgEntryBlock; }
    uint32_t exit() const { return numBlocks() - 1; }

    /** Successor blocks of @p b, sorted and unique. */
    std::span<const uint32_t> succs(uint32_t b) const
    {
        return {succEdges_.data() + succOffsets_[b],
                succOffsets_[b + 1] - succOffsets_[b]};
    }

    /** Predecessor blocks of @p b, sorted and unique (the transpose of
     * succs). */
    std::span<const uint32_t> preds(uint32_t b) const
    {
        return {predEdges_.data() + predOffsets_[b],
                predOffsets_[b + 1] - predOffsets_[b]};
    }

    /** Total number of edges. */
    size_t numEdges() const { return succEdges_.size(); }

    /** Block containing instruction @p instr_idx. */
    uint32_t blockOf(uint32_t instr_idx) const
    {
        return instrToBlock_.at(instr_idx);
    }

    /** Blocks in reverse post-order from the entry (unreachable blocks
     * appended at the end in index order). */
    const std::vector<uint32_t> &reversePostOrder() const { return rpo_; }

    /** Position of block @p b in reversePostOrder(). */
    uint32_t rpoIndex(uint32_t b) const { return rpoIndex_[b]; }

    /** Number of blocks reachable from the entry: the first
     * numReachable() entries of reversePostOrder(). */
    uint32_t numReachable() const { return numReachable_; }

    /** True iff block @p b is reachable from the entry. */
    bool reachable(uint32_t b) const
    {
        return rpoIndex_[b] < numReachable_;
    }

    /** Graphviz rendering, for debugging and `wasabi analyze --dot`. */
    std::string toDot(const wasm::Module &m) const;

  private:
    uint32_t funcIdx_;
    std::vector<BasicBlock> blocks_;
    std::vector<uint32_t> instrToBlock_;
    /** CSR edges: succs(b) is succEdges_[succOffsets_[b] ..
     * succOffsets_[b + 1]); likewise for preds. */
    std::vector<uint32_t> succOffsets_, succEdges_;
    std::vector<uint32_t> predOffsets_, predEdges_;
    std::vector<uint32_t> rpo_;
    std::vector<uint32_t> rpoIndex_;
    uint32_t numReachable_ = 0;

    void computeReversePostOrder();
};

} // namespace wasabi::static_analysis

#endif // WASABI_STATIC_CFG_H
