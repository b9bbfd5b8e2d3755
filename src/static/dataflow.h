/**
 * @file
 * A small dataflow framework over per-function CFGs: forward and
 * backward worklist solvers in (reverse) post-order, parameterized over
 * the lattice (merge) and transfer function, plus what the checker and
 * `wasabi analyze` need — reachability (read off the CFG's DFS) and
 * dominators (with immediate dominators and back-edge detection).
 */

#ifndef WASABI_STATIC_DATAFLOW_H
#define WASABI_STATIC_DATAFLOW_H

#include <cstdint>
#include <utility>
#include <vector>

#include "static/cfg.h"

namespace wasabi::static_analysis {

/**
 * Solve a forward dataflow problem to a fixpoint. The problem type
 * supplies:
 *
 *   using Value = ...;             // one lattice element
 *   Value boundary();              // entry block's in-value
 *   Value initial();               // all other blocks' in-value
 *   void  transfer(const Cfg &, uint32_t block, const Value &in,
 *                  Value &out);    // out: a reused buffer
 *   bool  merge(Value &into, const Value &from);  // true if changed
 *
 * Returns the in-value of every block. A dirty-flag worklist keyed by
 * reverse post-order position: each sweep visits the dirty blocks in
 * RPO, and a block is dirty only while its in-value changed since its
 * last transfer (all blocks start dirty). A merge that dirties a block
 * at or before the current position (a back edge) asks for another
 * sweep. For a monotone transfer and a join merge, this chaotic
 * iteration reaches the same least fixpoint as re-running every block
 * until nothing changes, in O(loop-nesting-depth) sweeps on the
 * reducible CFGs structured Wasm control flow produces.
 */
template <typename Problem>
std::vector<typename Problem::Value>
solveForward(const Cfg &cfg, Problem &problem)
{
    using Value = typename Problem::Value;
    const uint32_t n = cfg.numBlocks();
    std::vector<Value> in(n, problem.initial());
    in[cfg.entry()] = problem.boundary();

    const std::vector<uint32_t> &order = cfg.reversePostOrder();
    std::vector<uint8_t> dirty(n, 1); // by RPO position
    Value out = problem.initial();
    for (bool again = true; again;) {
        again = false;
        for (uint32_t pos = 0; pos < n; ++pos) {
            if (!dirty[pos])
                continue;
            dirty[pos] = 0;
            const uint32_t b = order[pos];
            problem.transfer(cfg, b, in[b], out);
            for (uint32_t s : cfg.succs(b)) {
                if (problem.merge(in[s], out)) {
                    const uint32_t sp = cfg.rpoIndex(s);
                    dirty[sp] = 1;
                    again |= sp <= pos;
                }
            }
        }
    }
    return in;
}

/**
 * Solve a backward dataflow problem to a fixpoint (same problem
 * signature as solveForward, with transfer mapping a block's
 * *out*-value to its *in*-value). The boundary value seeds the
 * synthetic exit block; the worklist sweeps in post order, the
 * backward analogue of reverse post-order. Returns the out-value of
 * every block.
 */
template <typename Problem>
std::vector<typename Problem::Value>
solveBackward(const Cfg &cfg, Problem &problem)
{
    using Value = typename Problem::Value;
    const uint32_t n = cfg.numBlocks();
    std::vector<Value> out(n, problem.initial());
    out[cfg.exit()] = problem.boundary();

    const std::vector<uint32_t> &order = cfg.reversePostOrder();
    std::vector<uint8_t> dirty(n, 1); // by RPO position
    Value in = problem.initial();
    for (bool again = true; again;) {
        again = false;
        for (uint32_t pos = n; pos-- > 0;) {
            if (!dirty[pos])
                continue;
            dirty[pos] = 0;
            const uint32_t b = order[pos];
            problem.transfer(cfg, b, out[b], in);
            for (uint32_t p : cfg.preds(b)) {
                if (problem.merge(out[p], in)) {
                    const uint32_t pp = cfg.rpoIndex(p);
                    dirty[pp] = 1;
                    again |= pp >= pos;
                }
            }
        }
    }
    return out;
}

/** A fixed-size bit set, the lattice element of set-based analyses. */
class BitSet {
  public:
    BitSet() = default;
    explicit BitSet(uint32_t size, bool all_ones = false);

    void set(uint32_t i) { words_[i >> 6] |= 1ull << (i & 63); }
    void reset(uint32_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }
    bool test(uint32_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** this &= other; returns true if this changed. */
    bool intersectWith(const BitSet &other);
    /** this |= other; returns true if this changed. */
    bool unionWith(const BitSet &other);

    uint32_t count() const;
    uint32_t size() const { return size_; }

    bool operator==(const BitSet &other) const = default;

  private:
    uint32_t size_ = 0;
    std::vector<uint64_t> words_;
};

/** Reachability from the entry block, per block (Cfg::reachable). */
std::vector<bool> reachableBlocks(const Cfg &cfg);

/**
 * Dominator sets: doms[b] contains block d iff d dominates b.
 * Unreachable blocks keep the full universe (vacuous domination).
 */
std::vector<BitSet> dominatorSets(const Cfg &cfg);

/** Sentinel for "no immediate dominator" (entry / unreachable). */
inline constexpr uint32_t kNoIdom = 0xFFFFFFFF;

/** Immediate dominators derived from dominatorSets. */
std::vector<uint32_t> immediateDominators(const Cfg &cfg);

/** Back edges (tail, head) where head dominates tail — one natural
 * loop per distinct head in structured Wasm code. */
std::vector<std::pair<uint32_t, uint32_t>> backEdges(const Cfg &cfg);

} // namespace wasabi::static_analysis

#endif // WASABI_STATIC_DATAFLOW_H
