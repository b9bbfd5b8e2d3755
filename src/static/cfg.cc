#include "static/cfg.h"

#include <algorithm>
#include <cassert>

#include "core/control_stack.h"
#include "static/dot_util.h"
#include "wasm/opcode.h"

namespace wasabi::static_analysis {

using wasm::Instr;
using wasm::OpClass;
using wasm::Opcode;

namespace {

/** One open structural frame during the resolution walk; only what
 * label resolution needs (a stripped-down paper Figure 6 stack). */
struct Frame {
    bool isLoop = false;
    uint32_t beginIdx = 0;
    uint32_t endIdx = 0;
};

/** Resolves relative labels to absolute instruction indices, exactly
 * like AbstractState::resolveLabel (§2.4.4). An index equal to
 * body.size() denotes the function exit. */
class LabelResolver {
  public:
    LabelResolver(const std::vector<Instr> &body,
                  const std::vector<core::BlockMatch> &matches)
        : body_(body), matches_(matches)
    {
        // Function frame: a branch to it exits the function.
        frames_.push_back(
            {false, 0, static_cast<uint32_t>(body.size()) - 1});
    }

    uint32_t
    resolve(uint32_t label) const
    {
        assert(label < frames_.size());
        const Frame &f = frames_[frames_.size() - 1 - label];
        return f.isLoop ? f.beginIdx + 1 : f.endIdx + 1;
    }

    /** Update the frame stack after instruction @p i. */
    void
    apply(uint32_t i)
    {
        const wasm::OpInfo &info = wasm::opInfo(body_[i].op);
        switch (info.cls) {
          case OpClass::Block:
          case OpClass::Loop:
          case OpClass::If:
            frames_.push_back({info.cls == OpClass::Loop, i,
                               matches_[i].endIdx});
            break;
          case OpClass::End:
            if (frames_.size() > 1)
                frames_.pop_back();
            break;
          default:
            break;
        }
    }

  private:
    const std::vector<Instr> &body_;
    const std::vector<core::BlockMatch> &matches_;
    std::vector<Frame> frames_;
};

} // namespace

Cfg::Cfg(const wasm::Module &m, uint32_t func_idx) : funcIdx_(func_idx)
{
    const wasm::Function &func = m.functions.at(func_idx);
    assert(!func.imported() && "cannot build a CFG of an import");
    const std::vector<Instr> &body = func.body;
    const uint32_t n = static_cast<uint32_t>(body.size());
    std::vector<core::BlockMatch> matches = core::matchBlocks(body);

    // Map each `else` to the `end` of its if (fallthrough out of the
    // then-region jumps over the else-region).
    std::vector<uint32_t> elseToEnd(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        if (matches[i].elseIdx)
            elseToEnd[*matches[i].elseIdx] = matches[i].endIdx;
    }

    // Pass 1: per-instruction successors (n = synthetic exit).
    std::vector<std::vector<uint32_t>> succs(n);
    LabelResolver resolver(body, matches);
    for (uint32_t i = 0; i < n; ++i) {
        const wasm::OpInfo &info = wasm::opInfo(body[i].op);
        switch (info.cls) {
          case OpClass::Br:
            succs[i] = {resolver.resolve(body[i].imm.idx)};
            break;
          case OpClass::BrIf:
            succs[i] = {resolver.resolve(body[i].imm.idx), i + 1};
            break;
          case OpClass::BrTable:
            for (uint32_t label : func.labels(body[i]))
                succs[i].push_back(resolver.resolve(label));
            break;
          case OpClass::Return:
            succs[i] = {n};
            break;
          case OpClass::Unreachable:
            break; // trap: no successors
          case OpClass::If: {
            // True: fall into the then-region. False: jump to the
            // else-region, or (no else) to the matching end.
            uint32_t on_false = matches[i].elseIdx
                                    ? *matches[i].elseIdx + 1
                                    : matches[i].endIdx;
            succs[i] = {i + 1, on_false};
            break;
          }
          case OpClass::Else:
            // Reached by fallthrough from the then-region: skip the
            // else-region entirely.
            succs[i] = {elseToEnd[i]};
            break;
          default:
            succs[i] = {i + 1};
            break;
        }
        resolver.apply(i);
        // Deduplicate (br_table repeats labels; br_if 0 around a
        // block end can coincide with fallthrough).
        std::sort(succs[i].begin(), succs[i].end());
        succs[i].erase(std::unique(succs[i].begin(), succs[i].end()),
                       succs[i].end());
    }

    // Pass 2: leaders. Instruction 0, every branch target, and every
    // instruction following a branch point.
    std::vector<bool> leader(n, false);
    if (n > 0)
        leader[0] = true;
    for (uint32_t i = 0; i < n; ++i) {
        bool fallthrough_only =
            succs[i].size() == 1 && succs[i][0] == i + 1;
        if (!fallthrough_only) {
            for (uint32_t t : succs[i]) {
                if (t < n)
                    leader[t] = true;
            }
            if (i + 1 < n)
                leader[i + 1] = true;
        }
    }

    // Pass 3: blocks and edges.
    instrToBlock_.assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
        if (leader[i])
            blocks_.push_back(BasicBlock{i, i, {}, {}});
        blocks_.back().last = i;
        instrToBlock_[i] = static_cast<uint32_t>(blocks_.size()) - 1;
    }
    // Synthetic exit block (empty instruction range: first > last).
    blocks_.push_back(BasicBlock{1, 0, {}, {}});
    const uint32_t exit_block = static_cast<uint32_t>(blocks_.size()) - 1;

    for (uint32_t b = 0; b + 1 < blocks_.size(); ++b) {
        for (uint32_t t : succs[blocks_[b].last]) {
            uint32_t target =
                t >= n ? exit_block : instrToBlock_[t];
            blocks_[b].succs.push_back(target);
        }
        std::sort(blocks_[b].succs.begin(), blocks_[b].succs.end());
        blocks_[b].succs.erase(std::unique(blocks_[b].succs.begin(),
                                           blocks_[b].succs.end()),
                               blocks_[b].succs.end());
        for (uint32_t t : blocks_[b].succs)
            blocks_[t].preds.push_back(b);
    }
}

size_t
Cfg::numEdges() const
{
    size_t edges = 0;
    for (const BasicBlock &b : blocks_)
        edges += b.succs.size();
    return edges;
}

std::vector<uint32_t>
Cfg::reversePostOrder() const
{
    std::vector<uint32_t> order;
    std::vector<bool> visited(blocks_.size(), false);
    // Iterative post-order DFS from the entry.
    std::vector<std::pair<uint32_t, size_t>> stack{{entry(), 0}};
    visited[entry()] = true;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        if (next < blocks_[b].succs.size()) {
            uint32_t s = blocks_[b].succs[next++];
            if (!visited[s]) {
                visited[s] = true;
                stack.push_back({s, 0});
            }
        } else {
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    for (uint32_t b = 0; b < blocks_.size(); ++b) {
        if (!visited[b])
            order.push_back(b);
    }
    return order;
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
        for (uint32_t s : blocks_[b].succs)
            out += "  B" + std::to_string(b) + " -> B" +
                   std::to_string(s) + ";\n";
    }
    out += "}\n";
    return out;
}

} // namespace wasabi::static_analysis
