#include "static/passes/branch_refine.h"

#include <algorithm>

#include "core/control_stack.h"
#include "core/static_info.h"

namespace wasabi::static_analysis::passes {

using wasm::Instr;
using wasm::OpClass;

BranchRefinements
refineBranches(const wasm::Module &m, uint32_t func_idx,
               const ConstFacts &facts)
{
    BranchRefinements out;
    const wasm::Function &func = m.functions.at(func_idx);
    if (func.imported() || facts.empty())
        return out;

    // One forward walk with the abstract control stack resolves the
    // labels of every refined site (paper §2.4.4).
    core::AbstractState state(m, func_idx);
    for (uint32_t i = 0; i < func.body.size(); ++i) {
        const Instr &in = func.body[i];
        uint64_t key = core::packLoc({func_idx, i});
        OpClass cls = wasm::opInfo(in.op).cls;

        if (cls == OpClass::BrIf) {
            auto it = facts.brIfCond.find(key);
            if (it != facts.brIfCond.end())
                out.constConditions.push_back(
                    ConstCondition{func_idx, i, it->second, false});
        } else if (cls == OpClass::If) {
            auto it = facts.ifCond.find(key);
            if (it != facts.ifCond.end())
                out.constConditions.push_back(
                    ConstCondition{func_idx, i, it->second, true});
        } else if (cls == OpClass::BrTable) {
            auto it = facts.brTableIndex.find(key);
            if (it != facts.brTableIndex.end()) {
                uint32_t index = it->second;
                std::span<const uint32_t> labels = func.labels(in);
                size_t sel = std::min<size_t>(index, labels.size() - 1);
                ConstBrTable entry;
                entry.func = func_idx;
                entry.instr = i;
                entry.index = index;
                entry.label = labels[sel];
                entry.target = state.resolveLabel(entry.label);
                entry.isDefault = sel + 1 == labels.size();
                out.constBrTables.push_back(entry);
            }
        }
        state.apply(in, i);
    }
    return out;
}

} // namespace wasabi::static_analysis::passes
