/**
 * @file
 * Test helper: the dynamic soundness oracle for the range analysis's
 * proven accesses (MemAccess::proven, "proven" in `wasabi analyze
 * --ranges`). Each says one load/store is in bounds on every
 * execution given the declared minimum memory. The oracle runs a
 * module with every hook attached and, at each claimed location,
 * checks that addr + offset + access width <= minPages * 64 KiB (in
 * u64).
 *
 * Hooks fire after their access, so an access that traps never
 * reaches onLoad/onStore. Every other instruction fires a hook once
 * it has run (or, for control transfers, before it jumps), so the
 * access that raised a MemoryOutOfBounds trap is the instruction
 * after the last hooked location; a claim on it is a violation too.
 */

#ifndef WASABI_TESTS_RANGE_CLAIM_ORACLE_H
#define WASABI_TESTS_RANGE_CLAIM_ORACLE_H

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "core/static_info.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "static/passes/range.h"
#include "workloads/workload.h"

namespace wasabi::tests {

using core::BlockKind;
using core::BranchTarget;
using core::Location;

/** Accesses claimed in bounds for a memory of minPages pages. */
struct AccessClaims {
    uint32_t minPages = 0;
    std::vector<Location> locs;
};

/** The proven accesses of moduleRanges(@p m, 1), as claims. */
inline AccessClaims
provableClaims(const wasm::Module &m)
{
    static_analysis::passes::ModuleRanges mr =
        static_analysis::passes::moduleRanges(m, 1);
    AccessClaims c{mr.minPages, {}};
    for (uint32_t f = 0; f < mr.functions.size(); ++f) {
        for (const static_analysis::passes::MemAccess &a :
             mr.functions[f].accesses) {
            if (a.proven)
                c.locs.push_back({f, a.instr});
        }
    }
    return c;
}

class RangeClaimOracle final : public runtime::Analysis {
  public:
    explicit RangeClaimOracle(const AccessClaims &claims)
        : limit_(uint64_t{claims.minPages} * wasm::kPageSize)
    {
        for (Location loc : claims.locs)
            claimed_.insert(core::packLoc(loc));
    }

    core::HookSet hooks() const override { return core::HookSet::all(); }

    /** Claimed accesses that ran (and so were checked). */
    uint64_t claimedAccesses = 0;
    uint64_t violationCount = 0;
    std::vector<std::string> violations; ///< the first few, described

    /** Call after the run raised TrapKind::MemoryOutOfBounds. */
    void
    outOfBoundsTrap()
    {
        Location next{last_.func, last_.instr + 1};
        if (claimed_.count(core::packLoc(next)))
            violation(next, "trapped out of bounds");
    }

    void
    onLoad(Location loc, wasm::Opcode op, runtime::MemArg memarg,
           wasm::Value) override
    {
        access(loc, op, memarg);
    }
    void
    onStore(Location loc, wasm::Opcode op, runtime::MemArg memarg,
            wasm::Value) override
    {
        access(loc, op, memarg);
    }

    // Every other hook only tracks where execution is.
    void onStart(Location l) override { last_ = l; }
    void onNop(Location l) override { last_ = l; }
    void onUnreachable(Location l) override { last_ = l; }
    void onIf(Location l, bool) override { last_ = l; }
    void onBr(Location l, BranchTarget) override { last_ = l; }
    void onBrIf(Location l, BranchTarget, bool) override { last_ = l; }
    void
    onBrTable(Location l, std::span<const BranchTarget>, BranchTarget,
              uint32_t) override
    {
        last_ = l;
    }
    void onBegin(Location l, BlockKind) override { last_ = l; }
    void onEnd(Location l, BlockKind, Location) override { last_ = l; }
    void onConst(Location l, wasm::Opcode, wasm::Value) override
    {
        last_ = l;
    }
    void
    onUnary(Location l, wasm::Opcode, wasm::Value, wasm::Value) override
    {
        last_ = l;
    }
    void
    onBinary(Location l, wasm::Opcode, wasm::Value, wasm::Value,
             wasm::Value) override
    {
        last_ = l;
    }
    void onDrop(Location l, wasm::Value) override { last_ = l; }
    void
    onSelect(Location l, bool, wasm::Value, wasm::Value) override
    {
        last_ = l;
    }
    void
    onLocal(Location l, wasm::Opcode, uint32_t, wasm::Value) override
    {
        last_ = l;
    }
    void
    onGlobal(Location l, wasm::Opcode, uint32_t, wasm::Value) override
    {
        last_ = l;
    }
    void onMemorySize(Location l, uint32_t) override { last_ = l; }
    void onMemoryGrow(Location l, uint32_t, uint32_t) override
    {
        last_ = l;
    }
    void
    onCallPre(Location l, uint32_t, std::span<const wasm::Value>,
              std::optional<uint32_t>) override
    {
        last_ = l;
    }
    void onCallPost(Location l, std::span<const wasm::Value>) override
    {
        last_ = l;
    }
    void onReturn(Location l, std::span<const wasm::Value>) override
    {
        last_ = l;
    }

  private:
    void
    access(Location loc, wasm::Opcode op, runtime::MemArg memarg)
    {
        last_ = loc;
        if (!claimed_.count(core::packLoc(loc)))
            return;
        ++claimedAccesses;
        uint64_t end = memarg.effective() + wasm::memAccessBytes(op);
        if (end > limit_)
            violation(loc, "ends at byte " + std::to_string(end) +
                               " past " + std::to_string(limit_));
    }

    void
    violation(Location loc, const std::string &what)
    {
        if (violationCount++ < 8)
            violations.push_back("func " + std::to_string(loc.func) +
                                 " instr " + std::to_string(loc.instr) +
                                 ": " + what);
    }

    uint64_t limit_;
    std::unordered_set<uint64_t> claimed_;
    Location last_{};
};

/** How an oracle run reaches its hooks. */
enum class OracleMode {
    Intrinsic,     ///< fast engine dispatches hooks (no rewriting)
    RewriteFast,   ///< rewritten module on the fast engine
    RewriteLegacy, ///< rewritten module on the legacy walker
};

struct OracleRun {
    uint64_t claimedAccesses = 0;
    uint64_t violationCount = 0;
    std::vector<std::string> violations;
    std::optional<interp::TrapKind> trap;
};

/**
 * Run @p w with a RangeClaimOracle for @p claims attached. Guest traps
 * end the run and are reported, not thrown; instantiation errors and
 * a missing entry export propagate.
 */
inline OracleRun
runRangeOracle(const workloads::Workload &w,
               const AccessClaims &claims,
               OracleMode mode = OracleMode::Intrinsic,
               std::optional<uint64_t> fuel = std::nullopt)
{
    RangeClaimOracle oracle(claims);
    const bool intrinsic = mode == OracleMode::Intrinsic;
    core::InstrumentResult r; // rewrite modes only
    std::shared_ptr<const core::StaticInfo> info;
    if (intrinsic) {
        info = core::buildIntrinsicInfo(w.module, oracle.hooks());
    } else {
        r = core::instrument(w.module, oracle.hooks());
        info = r.info;
    }
    runtime::WasabiRuntime rt(info);
    rt.addAnalysis(&oracle);
    auto inst = intrinsic ? rt.instantiateIntrinsic(w.module)
                          : rt.instantiate(r.module);
    inst->setFuel(fuel);
    interp::Interpreter interp;
    interp.engine = mode == OracleMode::RewriteLegacy
                        ? interp::EngineKind::Legacy
                        : interp::EngineKind::Fast;
    OracleRun out;
    try {
        interp.invokeExport(*inst, w.entry, w.args);
    } catch (const interp::Trap &t) {
        out.trap = t.kind();
        if (t.kind() == interp::TrapKind::MemoryOutOfBounds)
            oracle.outOfBoundsTrap();
    }
    out.claimedAccesses = oracle.claimedAccesses;
    out.violationCount = oracle.violationCount;
    out.violations = std::move(oracle.violations);
    return out;
}

/**
 * @p w's provable claims hold in intrinsic mode and in rewrite mode on
 * both engines, and all three runs check the same claimed accesses.
 * Returns how many ran, so callers can require a non-vacuous check.
 */
inline uint64_t
expectClaimsHold(const workloads::Workload &w, const std::string &what)
{
    AccessClaims claims = provableClaims(w.module);
    OracleRun ref = runRangeOracle(w, claims);
    EXPECT_EQ(ref.violationCount, 0u)
        << what << ": " << ::testing::PrintToString(ref.violations);
    for (OracleMode mode :
         {OracleMode::RewriteFast, OracleMode::RewriteLegacy}) {
        OracleRun run = runRangeOracle(w, claims, mode);
        EXPECT_EQ(run.violationCount, 0u)
            << what << ": " << ::testing::PrintToString(run.violations);
        EXPECT_EQ(run.claimedAccesses, ref.claimedAccesses) << what;
        EXPECT_EQ(run.trap, ref.trap) << what;
    }
    return ref.claimedAccesses;
}

} // namespace wasabi::tests

#endif // WASABI_TESTS_RANGE_CLAIM_ORACLE_H
