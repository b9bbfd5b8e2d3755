#include "core/static_info.h"

#include "support/parallel.h"
#include "wasm/opcode.h"

namespace wasabi::core {

using wasm::Instr;
using wasm::OpClass;

void
recordSideTables(const AbstractState &state, const Instr &instr,
                 uint32_t func_idx, uint32_t instr_idx, SideTables &out)
{
    const uint64_t key = packLoc({func_idx, instr_idx});
    const OpClass cls = wasm::opInfo(instr.op).cls;

    // Block-end info is structural: recorded whether or not the
    // closing instruction is reachable. An `else` closes the
    // then-region, which began at the `if`.
    if (cls == OpClass::End || cls == OpClass::Else) {
        const ControlFrame &f = state.frames().back();
        out.blockEnds[key] =
            cls == OpClass::Else
                ? BlockEndInfo{BlockKind::If, {func_idx, f.beginIdx}}
                : BlockEndInfo{f.kind, {func_idx, f.regionBegin()}};
    }
    if (!state.reachable())
        return;

    if (cls == OpClass::Br || cls == OpClass::BrIf) {
        out.brTargets[key] = BranchTarget{
            instr.imm.idx,
            Location{func_idx, state.resolveLabel(instr.imm.idx)}};
    } else if (cls == OpClass::BrTable) {
        auto entry = [&](uint32_t label) {
            BrTableEntry e;
            e.target = BranchTarget{
                label, Location{func_idx, state.resolveLabel(label)}};
            for (const ControlFrame &f : state.traversedFrames(label))
                e.ended.push_back(endedBlock(func_idx, f));
            return e;
        };
        std::vector<BrTableEntry> entries;
        for (uint32_t label : state.function().labels(instr))
            entries.push_back(entry(label));
        out.brTables[key] = BrTableInfo::fromEntries(std::move(entries));
    }
}

SideTables
sideTables(const wasm::Module &m, unsigned workers)
{
    const uint32_t n = m.numFunctions();
    std::vector<SideTables> per_func(n);
    support::parallelFor(n, support::workerCount(workers, n),
                         [&](size_t f, unsigned) {
        if (m.functions[f].imported())
            return;
        const uint32_t func_idx = static_cast<uint32_t>(f);
        const std::vector<Instr> &body = m.functions[f].body;
        AbstractState state(m, func_idx);
        for (uint32_t i = 0; i < body.size(); ++i) {
            recordSideTables(state, body[i], func_idx, i, per_func[f]);
            state.apply(body[i], i);
        }
    });
    SideTables out;
    for (SideTables &t : per_func) {
        out.brTargets.merge(t.brTargets);
        out.brTables.merge(t.brTables);
        out.blockEnds.merge(t.blockEnds);
    }
    return out;
}

BrTableInfo
BrTableInfo::fromEntries(std::vector<BrTableEntry> entries)
{
    BrTableInfo table;
    table.defaultCase = std::move(entries.back());
    entries.pop_back();
    table.cases = std::move(entries);
    for (const BrTableEntry &e : table.cases)
        table.targets.push_back(e.target);
    return table;
}

} // namespace wasabi::core
