#include "static/cfg.h"

#include <algorithm>
#include <cassert>

#include "static/dot_util.h"
#include "wasm/opcode.h"

namespace wasabi::static_analysis {

using wasm::Instr;
using wasm::OpClass;
using wasm::Opcode;

Cfg::Cfg(const wasm::Module &m, uint32_t func_idx) : funcIdx_(func_idx)
{
    const wasm::Function &func = m.functions.at(func_idx);
    assert(!func.imported() && "cannot build a CFG of an import");
    const std::vector<Instr> &body = func.body;
    const uint32_t n = static_cast<uint32_t>(body.size());

    // Pass 1: opcode classes, the matching `end` of every block, loop
    // and if, and each if's `else` (0: none; index 0 is never an
    // `else`). An `else` maps to its if's `end` as well: fallthrough
    // out of the then-region jumps over the else-region.
    std::vector<OpClass> cls(n);
    std::vector<uint32_t> endOf(n, 0);
    std::vector<uint32_t> elseOf(n, 0);
    std::vector<uint32_t> open;
    for (uint32_t i = 0; i < n; ++i) {
        cls[i] = wasm::opInfo(body[i].op).cls;
        switch (cls[i]) {
          case OpClass::Block:
          case OpClass::Loop:
          case OpClass::If:
            open.push_back(i);
            break;
          case OpClass::Else:
            assert(!open.empty());
            elseOf[open.back()] = i;
            break;
          case OpClass::End:
            if (!open.empty()) {
                endOf[open.back()] = i;
                if (elseOf[open.back()])
                    endOf[elseOf[open.back()]] = i;
                open.pop_back();
            }
            break;
          default:
            break;
        }
    }

    // Pass 2: successors of the branch points (n = synthetic exit),
    // flat: instruction i's are succ[off[i] .. off[i + 1]), sorted and
    // unique. An empty range means fallthrough to i + 1, except for
    // `unreachable`, which has no successors. Labels resolve exactly
    // like AbstractState::resolveLabel (§2.4.4): `labelTarget` holds
    // the branch target of every open frame, the first instruction
    // inside a loop or the one after the matching `end` otherwise; the
    // function frame's is the exit. Leaders: instruction 0, every
    // branch target, and every instruction following a branch point
    // (leader[n] is scratch).
    std::vector<uint32_t> off(n + 1, 0);
    std::vector<uint32_t> succ;
    succ.reserve(n / 4);
    std::vector<uint8_t> leader(n + 1, 0);
    if (n > 0)
        leader[0] = 1;
    std::vector<uint32_t> &labelTarget = open;
    labelTarget.assign(1, n);
    auto resolve = [&labelTarget](uint32_t label) {
        assert(label < labelTarget.size());
        return labelTarget[labelTarget.size() - 1 - label];
    };
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t first = static_cast<uint32_t>(succ.size());
        switch (cls[i]) {
          case OpClass::Br:
            succ.push_back(resolve(body[i].imm.idx));
            break;
          case OpClass::BrIf:
            succ.push_back(resolve(body[i].imm.idx));
            succ.push_back(i + 1);
            break;
          case OpClass::BrTable:
            for (uint32_t label : func.labels(body[i]))
                succ.push_back(resolve(label));
            break;
          case OpClass::Return:
            succ.push_back(n);
            break;
          case OpClass::Unreachable:
            leader[i + 1] = 1; // trap: no successors
            break;
          case OpClass::If:
            // True: fall into the then-region. False: jump to the
            // else-region, or (no else) to the matching end.
            succ.push_back(i + 1);
            succ.push_back(elseOf[i] ? elseOf[i] + 1 : endOf[i]);
            labelTarget.push_back(endOf[i] + 1);
            break;
          case OpClass::Else:
            // Reached by fallthrough from the then-region: skip the
            // else-region entirely.
            succ.push_back(endOf[i]);
            break;
          case OpClass::Block:
            labelTarget.push_back(endOf[i] + 1);
            break;
          case OpClass::Loop:
            labelTarget.push_back(i + 1);
            break;
          case OpClass::End:
            if (labelTarget.size() > 1)
                labelTarget.pop_back();
            break;
          default:
            break;
        }
        off[i + 1] = static_cast<uint32_t>(succ.size());
        const size_t count = off[i + 1] - first;
        if (count == 0)
            continue;
        // Deduplicate (br_table repeats labels; br_if 0 around a
        // block end can coincide with fallthrough).
        if (count == 2) {
            if (succ[first] == succ[first + 1])
                succ.pop_back();
            else if (succ[first] > succ[first + 1])
                std::swap(succ[first], succ[first + 1]);
        } else if (count > 2) {
            std::sort(succ.begin() + first, succ.end());
            succ.erase(std::unique(succ.begin() + first, succ.end()),
                       succ.end());
        }
        off[i + 1] = static_cast<uint32_t>(succ.size());
        if (off[i + 1] - first == 1 && succ[first] == i + 1)
            continue; // fallthrough only
        for (uint32_t k = first; k < off[i + 1]; ++k)
            leader[succ[k]] = 1;
        leader[i + 1] = 1;
    }

    // Pass 3: blocks.
    instrToBlock_.assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        if (leader[i])
            blocks_.push_back(BasicBlock{i, i});
        blocks_.back().last = i;
        instrToBlock_[i] = static_cast<uint32_t>(blocks_.size()) - 1;
    }
    // Synthetic exit block (empty instruction range: first > last).
    blocks_.push_back(BasicBlock{1, 0});
    const uint32_t nb = static_cast<uint32_t>(blocks_.size());
    const uint32_t exit_block = nb - 1;

    // Pass 4: CSR edges. instrToBlock_ is non-decreasing and the exit
    // block is last, so mapping a block's sorted instruction targets
    // keeps them sorted; only adjacent duplicates need dropping.
    succOffsets_.assign(nb + 1, 0);
    predOffsets_.assign(nb + 1, 0);
    auto addEdge = [&](uint32_t b, uint32_t t) {
        const uint32_t target = t >= n ? exit_block : instrToBlock_[t];
        if (succEdges_.size() == succOffsets_[b] ||
            succEdges_.back() != target) {
            succEdges_.push_back(target);
            ++predOffsets_[target + 1];
        }
    };
    for (uint32_t b = 0; b < exit_block; ++b) {
        const uint32_t last = blocks_[b].last;
        if (off[last] == off[last + 1]) {
            if (cls[last] != OpClass::Unreachable)
                addEdge(b, last + 1);
        } else {
            for (uint32_t k = off[last]; k < off[last + 1]; ++k)
                addEdge(b, succ[k]);
        }
        succOffsets_[b + 1] = static_cast<uint32_t>(succEdges_.size());
    }
    succOffsets_[nb] = static_cast<uint32_t>(succEdges_.size());
    for (uint32_t b = 0; b < nb; ++b)
        predOffsets_[b + 1] += predOffsets_[b];
    // Filling in source order keeps every predecessor list sorted.
    predEdges_.resize(succEdges_.size());
    std::vector<uint32_t> fill(predOffsets_.begin(),
                               predOffsets_.end() - 1);
    for (uint32_t b = 0; b < nb; ++b) {
        for (uint32_t s : succs(b))
            predEdges_[fill[s]++] = b;
    }

    computeReversePostOrder();
}

void
Cfg::computeReversePostOrder()
{
    const uint32_t nb = numBlocks();
    constexpr uint32_t kUnvisited = 0xFFFFFFFF;
    rpoIndex_.assign(nb, kUnvisited);
    rpo_.clear();
    rpo_.reserve(nb);
    // Iterative post-order DFS from the entry; rpoIndex_ doubles as
    // the visited set until the positions are written.
    std::vector<std::pair<uint32_t, uint32_t>> stack{{entry(), 0}};
    rpoIndex_[entry()] = 0;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        if (next < succs(b).size()) {
            uint32_t s = succs(b)[next++];
            if (rpoIndex_[s] == kUnvisited) {
                rpoIndex_[s] = 0;
                stack.push_back({s, 0});
            }
        } else {
            rpo_.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(rpo_.begin(), rpo_.end());
    numReachable_ = static_cast<uint32_t>(rpo_.size());
    for (uint32_t b = 0; b < nb; ++b) {
        if (rpoIndex_[b] == kUnvisited)
            rpo_.push_back(b);
    }
    for (uint32_t i = 0; i < nb; ++i)
        rpoIndex_[rpo_[i]] = i;
}

std::string
Cfg::toDot(const wasm::Module &m) const
{
    const wasm::Function &func = m.functions.at(funcIdx_);
    std::string out = "digraph cfg_f" + std::to_string(funcIdx_) +
                      " {\n  node [shape=box];\n";
    for (uint32_t b = 0; b < blocks_.size(); ++b) {
        out += "  B" + std::to_string(b) + " [label=\"B" +
               std::to_string(b);
        if (b == exit()) {
            out += " (exit)";
        } else {
            out += " [" + std::to_string(blocks_[b].first) + ".." +
                   std::to_string(blocks_[b].last) + "] " +
                   escapeDotLabel(
                       wasm::name(func.body[blocks_[b].first].op));
        }
        out += "\"];\n";
        for (uint32_t s : succs(b))
            out += "  B" + std::to_string(b) + " -> B" +
                   std::to_string(s) + ";\n";
    }
    out += "}\n";
    return out;
}

} // namespace wasabi::static_analysis
