#include "static/passes/deadstore.h"

#include <algorithm>

#include "static/dataflow.h"
#include "static/passes/problems.h"

namespace wasabi::static_analysis::passes {

using wasm::Instr;
using wasm::OpClass;

void
LivenessProblem::transfer(const Cfg &cfg, uint32_t b, const Value &out,
                          Value &live) const
{
    live = out;
    const BasicBlock &blk = cfg.blocks()[b];
    if (blk.empty())
        return;
    for (uint32_t i = blk.last + 1; i-- > blk.first;) {
        OpClass cls = wasm::opInfo(body_[i].op).cls;
        if (cls == OpClass::LocalGet)
            live.set(body_[i].imm.idx);
        else if (cls == OpClass::LocalSet || cls == OpClass::LocalTee)
            live.reset(body_[i].imm.idx);
    }
}

std::vector<DeadStore>
deadStoresOf(const wasm::Module &m, const Cfg &cfg,
             const std::vector<BitSet> &out)
{
    const uint32_t func_idx = cfg.funcIdx();
    const std::vector<Instr> &body = m.functions.at(func_idx).body;
    std::vector<DeadStore> found;
    BitSet live;
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock &blk = cfg.blocks()[b];
        if (!cfg.reachable(b) || blk.empty())
            continue;
        live = out[b];
        for (uint32_t i = blk.last + 1; i-- > blk.first;) {
            const Instr &in = body[i];
            OpClass cls = wasm::opInfo(in.op).cls;
            if (cls == OpClass::LocalGet) {
                live.set(in.imm.idx);
            } else if (cls == OpClass::LocalSet ||
                       cls == OpClass::LocalTee) {
                if (cls == OpClass::LocalSet &&
                    !live.test(in.imm.idx)) {
                    found.push_back(
                        DeadStore{func_idx, i, in.imm.idx});
                }
                live.reset(in.imm.idx);
            }
        }
    }
    std::sort(found.begin(), found.end(),
              [](const DeadStore &a, const DeadStore &b) {
                  return a.instr < b.instr;
              });
    return found;
}

std::vector<DeadStore>
deadStores(const wasm::Module &m, uint32_t func_idx)
{
    const wasm::Function &func = m.functions.at(func_idx);
    if (func.imported() || func.body.empty())
        return {};

    const uint32_t num_locals = static_cast<uint32_t>(
        m.funcType(func_idx).params.size() + func.locals.size());
    Cfg cfg(m, func_idx);
    LivenessProblem problem(func.body, num_locals);
    return deadStoresOf(m, cfg, solveBackward(cfg, problem));
}

} // namespace wasabi::static_analysis::passes
