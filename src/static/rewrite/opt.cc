#include "static/rewrite/opt.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/control_stack.h"
#include "static/interproc/ipcp.h"
#include "static/interproc/refined_call_graph.h"
#include "static/interproc/table_layout.h"
#include "static/manifest.h"
#include "static/passes/constprop.h"
#include "static/passes/deadstore.h"
#include "static/rewrite/rewrite.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/validator.h"

namespace wasabi::static_analysis::rewrite {

using wasm::Instr;
using wasm::Module;
using wasm::OpClass;
using wasm::Opcode;
using wasm::ValType;

namespace {

constexpr const char *kPassDeadFunctions = "dead-functions";
constexpr const char *kPassCallIndirect = "call-indirect";
constexpr const char *kPassIpoConst = "ipo-const";
constexpr const char *kPassInline = "inline";
constexpr const char *kPassTableCompact = "table-compact";
constexpr const char *kPassConstFold = "const-fold";
constexpr const char *kPassDeadStores = "dead-stores";
constexpr const char *kPassEmptyBlocks = "empty-blocks";

/** Callee body size cap (instructions, incl. the final end) for the
 * inline pass: "trivial" hot callees only — getters, tiny arithmetic
 * helpers, the shapes whose call ABI cost Fig. 9 blames. */
constexpr size_t kInlineBudget = 16;

// ----- dead-functions ------------------------------------------------

/**
 * Functions provably strippable: refined-unreachable, defined,
 * unexported, not the start function, not referenced by any element
 * segment, and — enforced to a fixpoint — not referenced by a `call`
 * in any surviving function. The last rule is belt-and-braces: a
 * refined-unreachable function can still be named by a call in
 * unreachable code of a live function, and deleting it would leave a
 * dangling immediate the remap layer (rightly) rejects.
 */
std::vector<uint32_t>
strippableFunctions(const Module &m)
{
    interproc::RefinedCallGraph rcg(m);
    std::vector<bool> strip(m.numFunctions(), false);
    for (uint32_t f : rcg.deadFunctions()) {
        const wasm::Function &fn = m.functions[f];
        if (!fn.imported() && fn.exportNames.empty())
            strip[f] = true;
    }
    if (m.start && *m.start < strip.size())
        strip[*m.start] = false;
    for (const wasm::ElementSegment &seg : m.elements) {
        for (uint32_t f : seg.funcIdxs) {
            if (f < strip.size())
                strip[f] = false;
        }
    }
    // Fixpoint: un-strip anything called from surviving code.
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t g = 0; g < m.numFunctions(); ++g) {
            if (strip[g])
                continue;
            for (const Instr &instr : m.functions[g].body) {
                if (instr.op == Opcode::Call &&
                    instr.imm.idx < strip.size() &&
                    strip[instr.imm.idx]) {
                    strip[instr.imm.idx] = false;
                    changed = true;
                }
            }
        }
    }
    std::vector<uint32_t> out;
    for (uint32_t f = 0; f < strip.size(); ++f) {
        if (strip[f])
            out.push_back(f);
    }
    return out;
}

Module
applyStrip(const Module &m, const std::vector<uint32_t> &funcs)
{
    if (funcs.empty())
        return m;
    ModuleRewriter rw(m);
    for (uint32_t f : funcs)
        rw.deleteFunction(f);
    return rw.apply().module;
}

// ----- call-indirect -------------------------------------------------

std::vector<DirectCallClaim>
findDirectCalls(const Module &m)
{
    interproc::RefinedCallGraph rcg(m);
    std::vector<DirectCallClaim> claims;
    for (const interproc::CallSite &site : rcg.sites()) {
        if (site.kind != interproc::SiteKind::IndirectConst ||
            site.targets.size() != 1)
            continue;
        const Instr &instr = m.functions[site.func].body[site.instr];
        if (instr.op != Opcode::CallIndirect)
            continue;
        claims.push_back(DirectCallClaim{site.func, site.instr,
                                         instr.imm.idx,
                                         site.targets.front()});
    }
    return claims;
}

/** Replace each claimed call_indirect with `drop` (pops the constant
 * table index) + a direct `call`. Applied high-to-low so earlier
 * claim coordinates stay valid while later ones are rewritten. */
void
applyDirectCalls(Module &m, const std::vector<DirectCallClaim> &claims)
{
    for (auto it = claims.rbegin(); it != claims.rend(); ++it) {
        std::vector<Instr> &body = m.functions[it->func].body;
        if (it->instr >= body.size())
            throw RewriteError("opt.bad-claim",
                               "direct-call claim out of range");
        body[it->instr] = Instr(Opcode::Drop);
        body.insert(body.begin() + it->instr + 1,
                    Instr::call(it->target));
    }
}

// ----- ipo-const -----------------------------------------------------

/**
 * `local.get` sites of provably constant parameters in non-pinned
 * callees. The argument lattice accounts for every caller (pinned
 * functions are excluded, and callers whose own solve hit the budget
 * cap degraded their contributions to top inside the ipcp solver), so
 * an unwritten constant parameter reads the constant on every
 * execution. Claims are sorted by (func, instr).
 *
 * Size guard: only constants whose signed-LEB encoding fits two bytes
 * are propagated. `local.get n` encodes in 2 bytes for small n, so an
 * `i32.const` with a long payload can outgrow the downstream folding
 * it enables; a ≤3-byte replacement keeps the rewrite size-neutral at
 * worst. (Semantically any constant would be sound.)
 */
bool
shortLeb(uint32_t value)
{
    const int32_t v = static_cast<int32_t>(value);
    return v >= -8192 && v < 8192;
}

std::vector<IpoConstArgClaim>
findIpoConstArgs(const Module &m, const interproc::ModuleIpcp &ipcp)
{
    std::vector<IpoConstArgClaim> claims;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        const interproc::FunctionIpcp &fi = ipcp.functions[f];
        if (!fi.defined || fi.pinned)
            continue;
        const wasm::FuncType &type = m.funcType(f);
        const std::vector<Instr> &body = m.functions[f].body;
        std::vector<char> usable(type.params.size(), 0);
        for (size_t k = 0; k < type.params.size(); ++k) {
            usable[k] = type.params[k] == ValType::I32 &&
                        k < fi.args.size() && fi.args[k].isConst() &&
                        shortLeb(fi.args[k].lo);
        }
        // A written parameter no longer carries the caller value.
        for (const Instr &ins : body) {
            const OpClass cls = wasm::opInfo(ins.op).cls;
            if ((cls == OpClass::LocalSet || cls == OpClass::LocalTee) &&
                ins.imm.idx < usable.size())
                usable[ins.imm.idx] = 0;
        }
        for (uint32_t i = 0; i < body.size(); ++i) {
            if (wasm::opInfo(body[i].op).cls == OpClass::LocalGet &&
                body[i].imm.idx < usable.size() &&
                usable[body[i].imm.idx])
                claims.push_back(IpoConstArgClaim{
                    f, i, body[i].imm.idx,
                    fi.args[body[i].imm.idx].lo});
        }
    }
    return claims;
}

/**
 * Call sites whose callee is pure (no observable effect), provably
 * terminating, and returns one provably constant i32 on every normal
 * exit: the call computes `value` and nothing else, so it folds to
 * argument drops + the constant. Purity alone is not enough — a pure
 * non-terminating callee must keep spinning.
 */
std::vector<IpoConstReturnClaim>
findIpoConstReturns(const Module &m, const interproc::ModuleIpcp &ipcp)
{
    std::vector<IpoConstReturnClaim> claims;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        if (m.functions[f].imported())
            continue;
        const std::vector<Instr> &body = m.functions[f].body;
        for (uint32_t i = 0; i < body.size(); ++i) {
            if (body[i].op != Opcode::Call)
                continue;
            const interproc::FunctionIpcp &ci =
                ipcp.functions[body[i].imm.idx];
            if (ci.retKnown && ci.ret.isConst() && ci.pure &&
                ci.terminates)
                claims.push_back(IpoConstReturnClaim{
                    f, i, body[i].imm.idx, ci.ret.lo});
        }
    }
    return claims;
}

/** 1:1 replacement — coordinates never shift, any order works. */
void
applyIpoConstArgs(Module &m, const std::vector<IpoConstArgClaim> &claims)
{
    for (const IpoConstArgClaim &c : claims) {
        if (c.func >= m.numFunctions() ||
            c.instr >= m.functions[c.func].body.size())
            throw RewriteError("opt.bad-claim",
                               "ipo-const-arg claim out of range");
        m.functions[c.func].body[c.instr] = Instr::i32Const(c.value);
    }
}

/** Replace each claimed call with nParams drops + the constant.
 * Applied high-to-low so earlier claim coordinates stay valid while
 * later ones grow the body. */
void
applyIpoConstReturns(Module &m,
                     const std::vector<IpoConstReturnClaim> &claims)
{
    for (auto it = claims.rbegin(); it != claims.rend(); ++it) {
        if (it->func >= m.numFunctions() ||
            it->callee >= m.numFunctions() ||
            it->instr >= m.functions[it->func].body.size())
            throw RewriteError("opt.bad-claim",
                               "ipo-const-return claim out of range");
        std::vector<Instr> &body = m.functions[it->func].body;
        const size_t np = m.funcType(it->callee).params.size();
        std::vector<Instr> seq(np, Instr(Opcode::Drop));
        seq.push_back(Instr::i32Const(it->value));
        body.erase(body.begin() + it->instr);
        body.insert(body.begin() + it->instr, seq.begin(), seq.end());
    }
}

// ----- inline --------------------------------------------------------

/**
 * Inlinable call sites: direct calls to a defined callee of at most
 * kInlineBudget instructions that is not the caller itself. No effect
 * restriction is needed — the spliced body executes the identical
 * opcodes in the identical order, so every memory write, global
 * write, nested call, and trap happens exactly as it would through
 * the call. Direct self calls are excluded (the splice would copy the
 * body being edited); the copied body of a mutually recursive callee
 * still *contains* its calls, so recursion is preserved, not
 * unrolled.
 */
std::vector<InlineClaim>
findInlines(const Module &m)
{
    std::vector<InlineClaim> claims;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        if (m.functions[f].imported())
            continue;
        const std::vector<Instr> &body = m.functions[f].body;
        for (uint32_t i = 0; i < body.size(); ++i) {
            if (body[i].op != Opcode::Call)
                continue;
            const uint32_t c = body[i].imm.idx;
            const wasm::Function &callee = m.functions[c];
            if (c == f || callee.imported() || callee.body.empty() ||
                callee.body.size() > kInlineBudget)
                continue;
            claims.push_back(InlineClaim{f, i, c});
        }
    }
    return claims;
}

/** Control nesting depth before each instruction of @p body: a branch
 * whose label equals its depth exits the function. */
std::vector<uint32_t>
nestingDepths(const std::vector<Instr> &body)
{
    std::vector<uint32_t> at(body.size(), 0);
    uint32_t depth = 0;
    for (uint32_t i = 0; i < body.size(); ++i) {
        const OpClass cls = wasm::opInfo(body[i].op).cls;
        if (cls == OpClass::End && depth > 0)
            --depth;
        at[i] = depth;
        if (cls == OpClass::Block || cls == OpClass::Loop ||
            cls == OpClass::If)
            ++depth;
    }
    return at;
}

Instr
zeroConst(ValType t)
{
    switch (t) {
      case ValType::I64:
        return Instr::i64Const(0);
      case ValType::F32:
        return Instr::f32Const(0.0f);
      case ValType::F64:
        return Instr::f64Const(0.0);
      default:
        return Instr::i32Const(0);
    }
}

/**
 * Splice one claimed callee body into its call site. The call's
 * arguments pop (last first) into fresh locals appended to the
 * caller, the callee's declared locals get fresh appended slots that
 * are explicitly re-zeroed (unlike a real frame, appended locals
 * persist across executions of the splice, e.g. inside a loop), and
 * the body — minus its final `end` — grafts inside one wrapper block
 * typed like the callee's result. That wrapper is what makes the
 * graft label-safe with no depth rewriting: a branch to label k at
 * nesting depth k (a function-level exit in the callee) now targets
 * the wrapper, which has the same arity; inner branches keep their
 * relative depths. Only the `return` opcode is rewritten, to a `br`
 * of its own nesting depth.
 */
void
applyInline(Module &m, const InlineClaim &c)
{
    if (c.func >= m.numFunctions() || c.callee >= m.numFunctions() ||
        c.func == c.callee)
        throw RewriteError("opt.bad-claim", "inline claim out of range");
    wasm::Function &caller = m.functions[c.func];
    const wasm::Function &callee = m.functions[c.callee];
    if (c.instr >= caller.body.size() ||
        caller.body[c.instr].op != Opcode::Call ||
        caller.body[c.instr].imm.idx != c.callee || callee.imported() ||
        callee.body.empty())
        throw RewriteError("opt.bad-claim",
                           "inline claim does not name a call site");
    const wasm::FuncType &ct = m.funcType(c.callee);
    const uint32_t base = static_cast<uint32_t>(
        m.funcType(c.func).params.size() + caller.locals.size());

    caller.locals.insert(caller.locals.end(), ct.params.begin(),
                         ct.params.end());
    caller.locals.insert(caller.locals.end(), callee.locals.begin(),
                         callee.locals.end());

    std::vector<Instr> seq;
    for (size_t k = ct.params.size(); k-- > 0;)
        seq.push_back(Instr::localSet(base + static_cast<uint32_t>(k)));
    for (size_t j = 0; j < callee.locals.size(); ++j) {
        seq.push_back(zeroConst(callee.locals[j]));
        seq.push_back(Instr::localSet(
            base + static_cast<uint32_t>(ct.params.size() + j)));
    }
    seq.push_back(Instr::blockStart(
        Opcode::Block, ct.results.empty()
                           ? wasm::BlockType{}
                           : wasm::BlockType{ct.results[0]}));
    std::vector<uint32_t> depth = nestingDepths(callee.body);
    for (size_t j = 0; j + 1 < callee.body.size(); ++j) {
        Instr ins = callee.body[j];
        switch (wasm::opInfo(ins.op).cls) {
          case OpClass::LocalGet:
          case OpClass::LocalSet:
          case OpClass::LocalTee:
            ins.imm.idx += base;
            break;
          case OpClass::Return:
            ins = Instr::br(depth[j]);
            break;
          default:
            break;
        }
        seq.push_back(ins);
    }
    seq.push_back(Instr(Opcode::End));

    std::vector<Instr> &body = caller.body;
    body.erase(body.begin() + c.instr);
    body.insert(body.begin() + c.instr, seq.begin(), seq.end());
}

/** Apply high-to-low: within one caller, later sites first keeps
 * earlier coordinates valid; across functions the order also fixes
 * *which* callee body version gets spliced (a callee's own inlines
 * land before any caller splices it), identically for producer and
 * checker. */
void
applyInlines(Module &m, const std::vector<InlineClaim> &claims)
{
    for (auto it = claims.rbegin(); it != claims.rend(); ++it)
        applyInline(m, *it);
}

/**
 * Candidates from @p cands that survive the same un-strip fixpoint as
 * the dead-functions pass: drop any candidate that is exported, the
 * start function, element-referenced, or — to a fixpoint — called
 * from surviving code. Mutual references among stripped functions are
 * fine; the rewriter deletes them together.
 */
std::vector<uint32_t>
stripFixpoint(const Module &m, const std::set<uint32_t> &cands)
{
    std::vector<bool> strip(m.numFunctions(), false);
    for (uint32_t f : cands) {
        if (f >= m.numFunctions())
            continue;
        const wasm::Function &fn = m.functions[f];
        if (!fn.imported() && fn.exportNames.empty())
            strip[f] = true;
    }
    if (m.start && *m.start < strip.size())
        strip[*m.start] = false;
    for (const wasm::ElementSegment &seg : m.elements) {
        for (uint32_t f : seg.funcIdxs) {
            if (f < strip.size())
                strip[f] = false;
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t g = 0; g < m.numFunctions(); ++g) {
            if (strip[g])
                continue;
            for (const Instr &instr : m.functions[g].body) {
                if (instr.op == Opcode::Call &&
                    instr.imm.idx < strip.size() &&
                    strip[instr.imm.idx]) {
                    strip[instr.imm.idx] = false;
                    changed = true;
                }
            }
        }
    }
    std::vector<uint32_t> out;
    for (uint32_t f = 0; f < strip.size(); ++f) {
        if (strip[f])
            out.push_back(f);
    }
    return out;
}

/** Inlined callees that no code references anymore (computed on the
 * post-splice module — a surviving call site keeps its callee). */
std::vector<uint32_t>
strippableAfterInline(const Module &m,
                      const std::vector<InlineClaim> &claims)
{
    std::set<uint32_t> cands;
    for (const InlineClaim &c : claims)
        cands.insert(c.callee);
    return stripFixpoint(m, cands);
}

// ----- table-compact -------------------------------------------------

struct TableCompactPlan {
    std::vector<TableSlotClaim> slots;
    std::vector<TableIndexRewriteClaim> rewrites;
    std::vector<uint32_t> stripped;
};

/**
 * Derive the compaction plan, or nullopt when compaction is not
 * provably safe. Requirements: exactly one non-host-visible table
 * with an exact layout, and *every* call_indirect in the module
 * consumes an immediately preceding literal `i32.const` index that
 * hits an occupied, in-range slot. Those conditions enumerate every
 * possible table access (MVP has no table.get/set and the host cannot
 * see the table), and occupied-slot hits keep trap behavior intact —
 * a site that could hit a null or out-of-range slot vetoes the whole
 * pass rather than turning a trap into a call (or vice versa).
 */
std::optional<TableCompactPlan>
planTableCompact(const Module &m)
{
    interproc::TableLayout layout = interproc::computeTableLayout(m);
    if (!layout.hasTable || layout.hostVisible || !layout.exact ||
        m.tables.size() != 1)
        return std::nullopt;

    std::vector<TableIndexRewriteClaim> rewrites;
    std::set<uint32_t> used;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        const std::vector<Instr> &body = m.functions[f].body;
        for (uint32_t i = 0; i < body.size(); ++i) {
            if (body[i].op != Opcode::CallIndirect)
                continue;
            if (i == 0 || body[i - 1].op != Opcode::I32Const)
                return std::nullopt;
            const uint32_t s = body[i - 1].imm.i32v;
            if (s >= layout.slots.size() || !layout.slots[s])
                return std::nullopt;
            rewrites.push_back(TableIndexRewriteClaim{f, i - 1, s, 0});
            used.insert(s);
        }
    }

    TableCompactPlan plan;
    std::map<uint32_t, uint32_t> newSlot;
    for (uint32_t s : used) {
        newSlot[s] = static_cast<uint32_t>(plan.slots.size());
        plan.slots.push_back(TableSlotClaim{s, *layout.slots[s]});
    }
    for (TableIndexRewriteClaim &rw : rewrites)
        rw.newIndex = newSlot[rw.oldIndex];
    plan.rewrites = std::move(rewrites);

    // Functions pinned only by dropped element slots become
    // strippable once nothing else references them.
    std::set<uint32_t> kept;
    for (const TableSlotClaim &s : plan.slots)
        kept.insert(s.funcIdx);
    std::set<uint32_t> cands;
    for (uint32_t f : layout.segmentFuncs) {
        if (!kept.count(f) && !m.functions[f].imported())
            cands.insert(f);
    }
    // stripFixpoint consults m.elements, which still pins the
    // candidates; evaluate it on a copy with the new element layout.
    Module probe = m;
    probe.elements.clear();
    if (!plan.slots.empty()) {
        wasm::ElementSegment seg;
        seg.tableIdx = 0;
        seg.offset = {Instr::i32Const(0), Instr(Opcode::End)};
        for (const TableSlotClaim &s : plan.slots)
            seg.funcIdxs.push_back(s.funcIdx);
        probe.elements.push_back(seg);
    }
    plan.stripped = stripFixpoint(probe, cands);
    return plan;
}

void
applyTableCompact(Module &m, const TableCompactPlan &plan)
{
    for (const TableIndexRewriteClaim &rw : plan.rewrites) {
        if (rw.func >= m.numFunctions() ||
            rw.instr >= m.functions[rw.func].body.size())
            throw RewriteError("opt.bad-claim",
                               "table-index rewrite out of range");
        Instr &ins = m.functions[rw.func].body[rw.instr];
        if (ins.op != Opcode::I32Const || ins.imm.i32v != rw.oldIndex)
            throw RewriteError("opt.bad-claim",
                               "table-index rewrite does not match");
        ins.imm.i32v = rw.newIndex;
    }
    m.elements.clear();
    if (!plan.slots.empty()) {
        wasm::ElementSegment seg;
        seg.tableIdx = 0;
        seg.offset = {Instr::i32Const(0), Instr(Opcode::End)};
        for (const TableSlotClaim &s : plan.slots)
            seg.funcIdxs.push_back(s.funcIdx);
        m.elements.push_back(seg);
    }
    // The new minimum never exceeds the old one (slots is a subset of
    // the declared layout), so a declared max stays valid unchanged.
    m.tables[0].limits.min = static_cast<uint32_t>(plan.slots.size());
    m = applyStrip(m, plan.stripped);
}

// ----- const-fold ----------------------------------------------------

/** Evaluate the fold window body[first .. first+count); nullopt when
 * the window is not a provably-constant foldable sequence. */
std::optional<uint32_t>
foldWindow(const std::vector<Instr> &body, uint32_t first, uint32_t count)
{
    if (static_cast<uint64_t>(first) + count > body.size() ||
        count < 2 || count > 4)
        return std::nullopt;
    for (uint32_t k = 0; k + 1 < count; ++k) {
        if (body[first + k].op != Opcode::I32Const)
            return std::nullopt;
    }
    const Instr &last = body[first + count - 1];
    switch (count) {
      case 2:
        return passes::foldI32Unary(last.op, body[first].imm.i32v);
      case 3:
        return passes::foldI32Binary(last.op, body[first].imm.i32v,
                                     body[first + 1].imm.i32v);
      case 4:
        if (last.op != Opcode::Select)
            return std::nullopt;
        return body[first + 2].imm.i32v != 0 ? body[first].imm.i32v
                                             : body[first + 1].imm.i32v;
      default:
        return std::nullopt;
    }
}

void
applyConstFold(std::vector<Instr> &body, const ConstFoldClaim &claim,
               uint32_t value)
{
    body[claim.first] = Instr::i32Const(value);
    body.erase(body.begin() + claim.first + 1,
               body.begin() + claim.first + claim.count);
}

/** Scan-and-fold until no window folds; records each application in
 * the coordinates of the body at the moment it is applied (claims in
 * one function are therefore sequential, which is exactly how the
 * checker replays them). */
std::vector<ConstFoldClaim>
findAndApplyConstFolds(Module &m)
{
    std::vector<ConstFoldClaim> claims;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        if (m.functions[f].imported())
            continue;
        std::vector<Instr> &body = m.functions[f].body;
        uint32_t i = 0;
        while (i < body.size()) {
            bool folded = false;
            for (uint32_t count : {2u, 3u, 4u}) {
                std::optional<uint32_t> v = foldWindow(body, i, count);
                if (!v)
                    continue;
                ConstFoldClaim claim{f, i, count, *v};
                applyConstFold(body, claim, *v);
                claims.push_back(claim);
                // The new constant may combine with what precedes it.
                i = i >= 3 ? i - 3 : 0;
                folded = true;
                break;
            }
            if (!folded)
                ++i;
        }
    }
    return claims;
}

// ----- dead-stores ---------------------------------------------------

std::vector<DeadStoreClaim>
findDeadStores(const Module &m)
{
    std::vector<DeadStoreClaim> claims;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        if (m.functions[f].imported())
            continue;
        for (const passes::DeadStore &ds : passes::deadStores(m, f))
            claims.push_back(DeadStoreClaim{ds.func, ds.instr, ds.local});
    }
    return claims;
}

void
applyDeadStores(Module &m, const std::vector<DeadStoreClaim> &claims)
{
    for (const DeadStoreClaim &c : claims) {
        std::vector<Instr> &body = m.functions[c.func].body;
        if (c.instr >= body.size())
            throw RewriteError("opt.bad-claim",
                               "dead-store claim out of range");
        body[c.instr] = Instr(Opcode::Drop);
    }
}

// ----- empty-blocks --------------------------------------------------

std::vector<EmptyBlockClaim>
findEmptyBlocks(const Module &m)
{
    std::vector<EmptyBlockClaim> claims;
    for (uint32_t f = 0; f < m.numFunctions(); ++f) {
        if (m.functions[f].imported())
            continue;
        const std::vector<Instr> &body = m.functions[f].body;
        std::vector<core::BlockMatch> match = core::matchBlocks(body);
        for (uint32_t i = 0; i < body.size(); ++i) {
            // `if` is excluded: deleting an empty if/end pair would
            // leave its popped condition on the stack.
            if ((body[i].op == Opcode::Block ||
                 body[i].op == Opcode::Loop) &&
                match[i].endIdx == i + 1)
                claims.push_back(EmptyBlockClaim{f, i});
        }
    }
    return claims;
}

void
applyEmptyBlocks(Module &m, const std::vector<EmptyBlockClaim> &claims)
{
    for (auto it = claims.rbegin(); it != claims.rend(); ++it) {
        std::vector<Instr> &body = m.functions[it->func].body;
        if (static_cast<uint64_t>(it->begin) + 2 > body.size())
            throw RewriteError("opt.bad-claim",
                               "empty-block claim out of range");
        body.erase(body.begin() + it->begin,
                   body.begin() + it->begin + 2);
    }
}

} // namespace

const std::vector<std::string> &
allOptPasses()
{
    static const std::vector<std::string> kPasses{
        kPassDeadFunctions, kPassCallIndirect,  kPassIpoConst,
        kPassInline,        kPassTableCompact,  kPassConstFold,
        kPassDeadStores,    kPassEmptyBlocks,
    };
    return kPasses;
}

bool
isOptPass(const std::string &name)
{
    const std::vector<std::string> &all = allOptPasses();
    return std::find(all.begin(), all.end(), name) != all.end();
}

std::vector<std::string>
parsePassSpec(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return allOptPasses();
    auto validList = [] {
        std::string names;
        for (const std::string &p : allOptPasses())
            names += (names.empty() ? "" : ", ") + p;
        return names;
    };
    std::vector<std::string> passes;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t comma = spec.find(',', pos);
        const std::string name =
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (name.empty())
            throw RewriteError("opt.unknown-pass",
                               "empty pass name in \"" + spec +
                                   "\"; valid passes: " + validList());
        if (!isOptPass(name))
            throw RewriteError("opt.unknown-pass",
                               "unknown pass \"" + name +
                                   "\"; valid passes: " + validList());
        passes.push_back(name);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return passes;
}

OptResult
optimize(const Module &m, const std::vector<std::string> &passes)
{
    for (const std::string &p : passes) {
        if (!isOptPass(p))
            throw RewriteError("opt.unknown-pass",
                               "unknown pass \"" + p + "\"");
    }
    auto requested = [&](const char *name) {
        return std::find(passes.begin(), passes.end(), name) !=
               passes.end();
    };

    OptResult result;
    result.module = m;
    Module &cur = result.module;
    OptClaims &claims = result.claims;

    // Canonical order, independent of the order requested.
    if (requested(kPassDeadFunctions)) {
        claims.passes.push_back(kPassDeadFunctions);
        claims.strippedFunctions = strippableFunctions(cur);
        cur = applyStrip(cur, claims.strippedFunctions);
    }
    if (requested(kPassCallIndirect)) {
        claims.passes.push_back(kPassCallIndirect);
        claims.directCalls = findDirectCalls(cur);
        applyDirectCalls(cur, claims.directCalls);
    }
    if (requested(kPassIpoConst)) {
        claims.passes.push_back(kPassIpoConst);
        interproc::ModuleIpcp ipcp = interproc::ipcpSolve(cur);
        claims.ipoConstArgs = findIpoConstArgs(cur, ipcp);
        claims.ipoConstReturns = findIpoConstReturns(cur, ipcp);
        applyIpoConstArgs(cur, claims.ipoConstArgs);
        applyIpoConstReturns(cur, claims.ipoConstReturns);
    }
    if (requested(kPassInline)) {
        claims.passes.push_back(kPassInline);
        claims.inlinedCalls = findInlines(cur);
        applyInlines(cur, claims.inlinedCalls);
        claims.inlineStripped =
            strippableAfterInline(cur, claims.inlinedCalls);
        cur = applyStrip(cur, claims.inlineStripped);
    }
    if (requested(kPassTableCompact)) {
        claims.passes.push_back(kPassTableCompact);
        if (std::optional<TableCompactPlan> plan =
                planTableCompact(cur)) {
            claims.tableSlots = plan->slots;
            claims.tableIndexRewrites = plan->rewrites;
            claims.tableStripped = plan->stripped;
            applyTableCompact(cur, *plan);
        }
    }
    if (requested(kPassConstFold)) {
        claims.passes.push_back(kPassConstFold);
        claims.constFolds = findAndApplyConstFolds(cur);
    }
    if (requested(kPassDeadStores)) {
        claims.passes.push_back(kPassDeadStores);
        claims.deadStores = findDeadStores(cur);
        applyDeadStores(cur, claims.deadStores);
    }
    if (requested(kPassEmptyBlocks)) {
        claims.passes.push_back(kPassEmptyBlocks);
        claims.emptyBlocks = findEmptyBlocks(cur);
        applyEmptyBlocks(cur, claims.emptyBlocks);
    }
    return result;
}

// ----- manifest ------------------------------------------------------

std::string
claimsToManifest(const OptClaims &claims)
{
    using manifest::appendRows;
    std::string out = manifest::header(manifest::kOptSchema);
    manifest::appendField(out, "passes", claims.passes,
                          [](const std::string &p) { return p; });
    appendRows<1>(out, "strippedFunctions", claims.strippedFunctions);
    appendRows<4>(out, "directCalls", claims.directCalls);
    appendRows<4>(out, "ipoConstArgs", claims.ipoConstArgs);
    appendRows<4>(out, "ipoConstReturns", claims.ipoConstReturns);
    appendRows<3>(out, "inlinedCalls", claims.inlinedCalls);
    appendRows<1>(out, "inlineStripped", claims.inlineStripped);
    appendRows<2>(out, "tableSlots", claims.tableSlots);
    appendRows<4>(out, "tableIndexRewrites", claims.tableIndexRewrites);
    appendRows<1>(out, "tableStripped", claims.tableStripped);
    appendRows<4>(out, "constFolds", claims.constFolds);
    appendRows<3>(out, "deadStores", claims.deadStores);
    appendRows<2>(out, "emptyBlocks", claims.emptyBlocks);
    return out + "\n}\n";
}

bool
claimsFromManifest(const json::Value &doc, OptClaims &claims,
                   std::string *error)
{
    using manifest::readRows;
    std::string err;
    auto passes = [&] {
        const json::Value *list = doc.find("passes");
        if (!list)
            return true;
        if (!list->isArray() ||
            !std::all_of(list->array.begin(), list->array.end(),
                         [](const json::Value &p) { return p.isString(); })) {
            err = "manifest field \"passes\" is not an array of strings";
            return false;
        }
        for (const json::Value &p : list->array)
            claims.passes.push_back(p.str);
        return true;
    };
    bool ok =
        manifest::checkTopLevel(
            doc, manifest::kOptSchema,
            {"passes", "strippedFunctions", "directCalls", "ipoConstArgs",
             "ipoConstReturns", "inlinedCalls", "inlineStripped",
             "tableSlots", "tableIndexRewrites", "tableStripped",
             "constFolds", "deadStores", "emptyBlocks"},
            err) &&
        passes() &&
        readRows<1>(doc, "strippedFunctions", claims.strippedFunctions,
                    err) &&
        readRows<4>(doc, "directCalls", claims.directCalls, err) &&
        readRows<4>(doc, "ipoConstArgs", claims.ipoConstArgs, err) &&
        readRows<4>(doc, "ipoConstReturns", claims.ipoConstReturns, err) &&
        readRows<3>(doc, "inlinedCalls", claims.inlinedCalls, err) &&
        readRows<1>(doc, "inlineStripped", claims.inlineStripped, err) &&
        readRows<2>(doc, "tableSlots", claims.tableSlots, err) &&
        readRows<4>(doc, "tableIndexRewrites", claims.tableIndexRewrites,
                    err) &&
        readRows<1>(doc, "tableStripped", claims.tableStripped, err) &&
        readRows<4>(doc, "constFolds", claims.constFolds, err) &&
        readRows<3>(doc, "deadStores", claims.deadStores, err) &&
        readRows<2>(doc, "emptyBlocks", claims.emptyBlocks, err);
    if (!ok && error)
        *error = err;
    return ok;
}

bool
claimsFromManifest(const std::string &text, OptClaims &claims,
                   std::string *error)
{
    std::optional<json::Value> doc = json::parse(text, error);
    return doc && claimsFromManifest(*doc, claims, error);
}

// ----- checker -------------------------------------------------------

namespace {

bool
listed(const OptClaims &claims, const char *pass)
{
    return std::find(claims.passes.begin(), claims.passes.end(), pass) !=
           claims.passes.end();
}

} // namespace

Diagnostics
checkOptimization(const Module &original,
                  const std::vector<uint8_t> &optimized_bytes,
                  const OptClaims &claims)
{
    Diagnostics ds;

    for (const std::string &p : claims.passes) {
        if (!isOptPass(p))
            ds.error("check.opt.unknown-pass",
                     "manifest lists unknown pass \"" + p + "\"");
    }
    // Claims for a pass the manifest does not list cannot have been
    // produced by that manifest's run — tamper evidence.
    if (!listed(claims, kPassDeadFunctions) &&
        !claims.strippedFunctions.empty())
        ds.error("check.opt.orphan-claims",
                 "strippedFunctions present but dead-functions not in "
                 "passes");
    if (!listed(claims, kPassCallIndirect) && !claims.directCalls.empty())
        ds.error("check.opt.orphan-claims",
                 "directCalls present but call-indirect not in passes");
    if (!listed(claims, kPassIpoConst) &&
        (!claims.ipoConstArgs.empty() || !claims.ipoConstReturns.empty()))
        ds.error("check.opt.orphan-claims",
                 "ipoConst claims present but ipo-const not in passes");
    if (!listed(claims, kPassInline) &&
        (!claims.inlinedCalls.empty() || !claims.inlineStripped.empty()))
        ds.error("check.opt.orphan-claims",
                 "inline claims present but inline not in passes");
    if (!listed(claims, kPassTableCompact) &&
        (!claims.tableSlots.empty() ||
         !claims.tableIndexRewrites.empty() ||
         !claims.tableStripped.empty()))
        ds.error("check.opt.orphan-claims",
                 "table claims present but table-compact not in passes");
    if (!listed(claims, kPassConstFold) && !claims.constFolds.empty())
        ds.error("check.opt.orphan-claims",
                 "constFolds present but const-fold not in passes");
    if (!listed(claims, kPassDeadStores) && !claims.deadStores.empty())
        ds.error("check.opt.orphan-claims",
                 "deadStores present but dead-stores not in passes");
    if (!listed(claims, kPassEmptyBlocks) && !claims.emptyBlocks.empty())
        ds.error("check.opt.orphan-claims",
                 "emptyBlocks present but empty-blocks not in passes");
    if (!ds.empty())
        return ds;

    Module replay = original;
    try {
        for (const std::string &pass : claims.passes) {
            if (pass == kPassDeadFunctions) {
                std::vector<uint32_t> provable =
                    strippableFunctions(replay);
                for (uint32_t f : claims.strippedFunctions) {
                    if (!std::binary_search(provable.begin(),
                                            provable.end(), f))
                        ds.error("check.opt.bad-dead-function",
                                 "function " + std::to_string(f) +
                                     " is not provably dead",
                                 f);
                }
                if (!ds.empty())
                    return ds;
                replay = applyStrip(replay, claims.strippedFunctions);
            } else if (pass == kPassCallIndirect) {
                interproc::RefinedCallGraph rcg(replay);
                for (const DirectCallClaim &c : claims.directCalls) {
                    const interproc::CallSite *site =
                        rcg.siteAt(c.func, c.instr);
                    bool ok =
                        site != nullptr &&
                        site->kind ==
                            interproc::SiteKind::IndirectConst &&
                        site->targets.size() == 1 &&
                        site->targets.front() == c.target &&
                        c.func < replay.numFunctions() &&
                        c.instr <
                            replay.functions[c.func].body.size() &&
                        replay.functions[c.func].body[c.instr].op ==
                            Opcode::CallIndirect &&
                        replay.functions[c.func].body[c.instr].imm.idx ==
                            c.typeIdx;
                    if (!ok)
                        ds.error("check.opt.bad-call-target",
                                 "call_indirect is not provably a "
                                 "direct call of function " +
                                     std::to_string(c.target),
                                 c.func, c.instr);
                }
                if (!ds.empty())
                    return ds;
                applyDirectCalls(replay, claims.directCalls);
            } else if (pass == kPassIpoConst) {
                interproc::ModuleIpcp ipcp =
                    interproc::ipcpSolve(replay);
                std::vector<IpoConstArgClaim> provableArgs =
                    findIpoConstArgs(replay, ipcp);
                for (const IpoConstArgClaim &c : claims.ipoConstArgs) {
                    if (std::find(provableArgs.begin(),
                                  provableArgs.end(),
                                  c) == provableArgs.end())
                        ds.error("check.opt.bad-ipo-const-arg",
                                 "parameter " + std::to_string(c.local) +
                                     " is not provably constant " +
                                     std::to_string(c.value),
                                 c.func, c.instr);
                }
                std::vector<IpoConstReturnClaim> provableRets =
                    findIpoConstReturns(replay, ipcp);
                for (const IpoConstReturnClaim &c :
                     claims.ipoConstReturns) {
                    if (std::find(provableRets.begin(),
                                  provableRets.end(),
                                  c) == provableRets.end())
                        ds.error("check.opt.bad-ipo-const-return",
                                 "call of function " +
                                     std::to_string(c.callee) +
                                     " does not provably fold to " +
                                     std::to_string(c.value),
                                 c.func, c.instr);
                }
                if (!ds.empty())
                    return ds;
                applyIpoConstArgs(replay, claims.ipoConstArgs);
                applyIpoConstReturns(replay, claims.ipoConstReturns);
            } else if (pass == kPassInline) {
                std::vector<InlineClaim> provable = findInlines(replay);
                for (const InlineClaim &c : claims.inlinedCalls) {
                    if (std::find(provable.begin(), provable.end(), c) ==
                        provable.end())
                        ds.error("check.opt.bad-ipo-inline",
                                 "call of function " +
                                     std::to_string(c.callee) +
                                     " is not provably inlinable",
                                 c.func, c.instr);
                }
                if (!ds.empty())
                    return ds;
                applyInlines(replay, claims.inlinedCalls);
                std::vector<uint32_t> strippable =
                    strippableAfterInline(replay, claims.inlinedCalls);
                for (uint32_t f : claims.inlineStripped) {
                    if (!std::binary_search(strippable.begin(),
                                            strippable.end(), f))
                        ds.error("check.opt.bad-ipo-inline",
                                 "function " + std::to_string(f) +
                                     " is not provably strippable "
                                     "after inlining",
                                 f);
                }
                if (!ds.empty())
                    return ds;
                replay = applyStrip(replay, claims.inlineStripped);
            } else if (pass == kPassTableCompact) {
                std::optional<TableCompactPlan> plan =
                    planTableCompact(replay);
                const bool match =
                    plan ? (claims.tableSlots == plan->slots &&
                            claims.tableIndexRewrites ==
                                plan->rewrites &&
                            claims.tableStripped == plan->stripped)
                         : (claims.tableSlots.empty() &&
                            claims.tableIndexRewrites.empty() &&
                            claims.tableStripped.empty());
                if (!match) {
                    ds.error("check.opt.bad-table-compact",
                             "table claims differ from the derived "
                             "compaction plan");
                    return ds;
                }
                if (plan)
                    applyTableCompact(replay, *plan);
            } else if (pass == kPassConstFold) {
                // Sequential replay: each claim's coordinates refer to
                // the body after the previous claims were applied.
                for (const ConstFoldClaim &c : claims.constFolds) {
                    std::optional<uint32_t> v;
                    if (c.func < replay.numFunctions() &&
                        !replay.functions[c.func].imported())
                        v = foldWindow(replay.functions[c.func].body,
                                       c.first, c.count);
                    if (!v || *v != c.value) {
                        ds.error("check.opt.bad-fold",
                                 "sequence does not provably fold to " +
                                     std::to_string(c.value),
                                 c.func, c.first);
                        return ds;
                    }
                    applyConstFold(replay.functions[c.func].body, c,
                                   *v);
                }
            } else if (pass == kPassDeadStores) {
                std::vector<DeadStoreClaim> provable =
                    findDeadStores(replay);
                for (const DeadStoreClaim &c : claims.deadStores) {
                    bool ok = std::any_of(
                        provable.begin(), provable.end(),
                        [&](const DeadStoreClaim &p) {
                            return p.func == c.func &&
                                   p.instr == c.instr &&
                                   p.local == c.local;
                        });
                    if (!ok)
                        ds.error("check.opt.bad-dead-store",
                                 "local.set of local " +
                                     std::to_string(c.local) +
                                     " is not provably dead",
                                 c.func, c.instr);
                }
                if (!ds.empty())
                    return ds;
                applyDeadStores(replay, claims.deadStores);
            } else if (pass == kPassEmptyBlocks) {
                std::vector<EmptyBlockClaim> provable =
                    findEmptyBlocks(replay);
                for (const EmptyBlockClaim &c : claims.emptyBlocks) {
                    bool ok = std::any_of(
                        provable.begin(), provable.end(),
                        [&](const EmptyBlockClaim &p) {
                            return p.func == c.func &&
                                   p.begin == c.begin;
                        });
                    if (!ok)
                        ds.error("check.opt.bad-empty-block",
                                 "instructions are not an empty "
                                 "block/loop pair",
                                 c.func, c.begin);
                }
                if (!ds.empty())
                    return ds;
                applyEmptyBlocks(replay, claims.emptyBlocks);
            }
        }
    } catch (const std::exception &e) {
        ds.error("check.opt.replay-failed",
                 std::string("claimed edit could not be replayed: ") +
                     e.what());
        return ds;
    }

    // The shipped binary must decode, validate, and be byte-identical
    // to the replay — anything else means it was not produced by the
    // claimed transforms.
    try {
        Module decoded = wasm::decodeModule(optimized_bytes);
        if (std::optional<std::string> err = wasm::validationError(decoded))
            ds.error("check.opt.invalid-output",
                     "optimized binary fails validation: " + *err);
    } catch (const wasm::DecodeError &e) {
        ds.error("check.opt.invalid-output",
                 std::string("optimized binary fails to decode: ") +
                     e.what());
        return ds;
    }
    if (wasm::encodeModule(replay) != optimized_bytes)
        ds.error("check.opt.output-mismatch",
                 "optimized binary differs from the replayed transforms");
    return ds;
}

} // namespace wasabi::static_analysis::rewrite
