/**
 * @file
 * Reference-analysis oracle: the counting analyses (mix, blocks,
 * branch, miner) count into dense per-opcode arrays and hash maps and
 * build their ordered views only when read. This test keeps plain
 * `std::map`-based reference implementations of the same four
 * analyses, attaches each beside its shipped counterpart to one
 * runtime (so both see the very same event stream through the
 * per-kind subscriber lists), and requires identical reports and
 * accessors on every PolyBench kernel, the small and medium synthetic
 * apps and 40 random programs, in both instrument modes. Intrinsic
 * mode runs twice: hooked (the pairs on one runtime, where the
 * references keep every kind on the hook path) and counted (the
 * shipped analyses alone on their own runtime and instance, so their
 * kinds compile to counter probes, DESIGN.md §12).
 *
 * Rewrite-vs-intrinsic parity cannot catch a counting bug: both modes
 * feed the same analysis code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyses/basic_block_profile.h"
#include "analyses/branch_coverage.h"
#include "analyses/cryptominer.h"
#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "wasm/validator.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi {
namespace {

using core::HookKind;
using core::HookSet;
using runtime::BlockKind;
using runtime::BranchTarget;
using runtime::Location;
using runtime::MemArg;
using wasm::Opcode;
using wasm::Value;
using workloads::Workload;

// ---------------------------------------------------------------------
// Reference implementations: one std::map entry per key, bumped per
// event, exactly as the analyses counted before they went dense.

class RefMix final : public runtime::Analysis {
  public:
    HookSet hooks() const override { return HookSet::all(); }

    void onStart(Location) override { bump("start"); }
    void onNop(Location) override { bump("nop"); }
    void onUnreachable(Location) override { bump("unreachable"); }
    void onIf(Location, bool) override { bump("if"); }
    void onBr(Location, BranchTarget) override { bump("br"); }
    void onBrIf(Location, BranchTarget, bool) override { bump("br_if"); }
    void
    onBrTable(Location, std::span<const BranchTarget>, BranchTarget,
              uint32_t) override
    {
        bump("br_table");
    }
    void
    onBegin(Location, BlockKind kind) override
    {
        if (kind == BlockKind::Block)
            bump("block");
        else if (kind == BlockKind::Loop)
            bump("loop");
    }
    void onConst(Location, Opcode op, Value) override { bump(wasm::name(op)); }
    void
    onUnary(Location, Opcode op, Value, Value) override
    {
        bump(wasm::name(op));
    }
    void
    onBinary(Location, Opcode op, Value, Value, Value) override
    {
        bump(wasm::name(op));
    }
    void onDrop(Location, Value) override { bump("drop"); }
    void onSelect(Location, bool, Value, Value) override { bump("select"); }
    void
    onLocal(Location, Opcode op, uint32_t, Value) override
    {
        bump(wasm::name(op));
    }
    void
    onGlobal(Location, Opcode op, uint32_t, Value) override
    {
        bump(wasm::name(op));
    }
    void
    onLoad(Location, Opcode op, MemArg, Value) override
    {
        bump(wasm::name(op));
    }
    void
    onStore(Location, Opcode op, MemArg, Value) override
    {
        bump(wasm::name(op));
    }
    void onMemorySize(Location, uint32_t) override { bump("memory.size"); }
    void
    onMemoryGrow(Location, uint32_t, uint32_t) override
    {
        bump("memory.grow");
    }
    void
    onCallPre(Location, uint32_t, std::span<const Value>,
              std::optional<uint32_t> table_index) override
    {
        bump(table_index ? "call_indirect" : "call");
    }
    void
    onReturn(Location, std::span<const Value>) override
    {
        bump("return");
    }

    std::string
    report(size_t top_n = 20) const
    {
        std::vector<std::pair<std::string, uint64_t>> sorted(
            counts.begin(), counts.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        std::ostringstream os;
        os << "total dynamic instructions observed: " << total << "\n";
        for (size_t i = 0; i < sorted.size() && i < top_n; ++i)
            os << "  " << sorted[i].first << ": " << sorted[i].second
               << "\n";
        return os.str();
    }

    std::map<std::string, uint64_t> counts;
    uint64_t total = 0;

  private:
    void
    bump(const std::string &key)
    {
        ++counts[key];
        ++total;
    }
};

class RefBlocks final : public runtime::Analysis {
  public:
    HookSet hooks() const override { return HookSet::only(HookKind::Begin); }

    void
    onBegin(Location loc, BlockKind kind) override
    {
        ++counts[{core::packLoc(loc), kind}];
    }

    std::string
    report(size_t top_n = 10) const
    {
        using Entry = std::pair<std::pair<uint64_t, BlockKind>, uint64_t>;
        std::vector<Entry> sorted(counts.begin(), counts.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.second > b.second;
                  });
        std::ostringstream os;
        os << "distinct blocks entered: " << counts.size() << "\n";
        for (size_t i = 0; i < sorted.size() && i < top_n; ++i) {
            uint64_t packed = sorted[i].first.first;
            os << "  func " << (packed >> 32) << " @"
               << static_cast<int32_t>(packed & 0xFFFFFFFF) << " ("
               << name(sorted[i].first.second) << "): "
               << sorted[i].second << "\n";
        }
        return os.str();
    }

    std::map<std::pair<uint64_t, BlockKind>, uint64_t> counts;
};

class RefBranch final : public runtime::Analysis {
  public:
    HookSet
    hooks() const override
    {
        return HookSet{HookKind::If, HookKind::BrIf, HookKind::BrTable,
                       HookKind::Select};
    }

    void onIf(Location loc, bool c) override { add(loc, c ? 1 : 0); }
    void
    onBrIf(Location loc, BranchTarget, bool c) override
    {
        add(loc, c ? 1 : 0);
    }
    void
    onBrTable(Location loc, std::span<const BranchTarget>, BranchTarget,
              uint32_t index) override
    {
        add(loc, static_cast<int>(index));
    }
    void
    onSelect(Location loc, bool c, Value, Value) override
    {
        add(loc, c ? 1 : 0);
    }

    size_t
    partiallyCoveredTwoWaySites() const
    {
        size_t n = 0;
        for (const auto &[loc, decisions] : coverage) {
            if (decisions.size() == 1 &&
                (*decisions.begin() == 0 || *decisions.begin() == 1))
                ++n;
        }
        return n;
    }

    std::string
    report() const
    {
        std::ostringstream os;
        os << "branch sites executed: " << coverage.size()
           << ", partially covered two-way sites: "
           << partiallyCoveredTwoWaySites() << "\n";
        for (const auto &[packed, decisions] : coverage) {
            os << "  func " << (packed >> 32) << " @"
               << (packed & 0xFFFFFFFF) << ":";
            for (int d : decisions)
                os << " " << d;
            os << "\n";
        }
        return os.str();
    }

    std::map<uint64_t, std::set<int>> coverage;

  private:
    void
    add(Location loc, int decision)
    {
        coverage[core::packLoc(loc)].insert(decision);
    }
};

class RefMiner final : public runtime::Analysis {
  public:
    HookSet hooks() const override { return HookSet::only(HookKind::Binary); }

    void
    onBinary(Location, Opcode op, Value, Value, Value) override
    {
        ++total;
        switch (op) {
          case Opcode::I32Add:
          case Opcode::I32And:
          case Opcode::I32Shl:
          case Opcode::I32ShrU:
          case Opcode::I32Xor:
          case Opcode::I32Rotl:
          case Opcode::I32Rotr:
            ++signature[wasm::name(op)];
            ++signatureTotal;
            break;
          default:
            break;
        }
    }

    double
    signatureRatio() const
    {
        return total == 0 ? 0.0
                          : static_cast<double>(signatureTotal) / total;
    }

    bool
    suspicious() const
    {
        if (total < 1000)
            return false;
        auto it = signature.find("i32.xor");
        uint64_t x = it == signature.end() ? 0 : it->second;
        return signatureRatio() > 0.8 &&
               static_cast<double>(x) / total > 0.15;
    }

    std::map<std::string, uint64_t> signature;
    uint64_t signatureTotal = 0;
    uint64_t total = 0;
};

// ---------------------------------------------------------------------

/** The four shipped analyses and their references, on one runtime. */
struct Pairs {
    analyses::InstructionMix mix;
    RefMix refMix;
    analyses::BasicBlockProfile blocks;
    RefBlocks refBlocks;
    analyses::BranchCoverage branch;
    RefBranch refBranch;
    analyses::CryptominerDetector miner;
    RefMiner refMiner;

    /** The shipped analyses alone: every kind they subscribe to is
     * one they only count. */
    void
    addShipped(runtime::WasabiRuntime &rt)
    {
        rt.addAnalysis(&mix, "mix");
        rt.addAnalysis(&blocks, "blocks");
        rt.addAnalysis(&branch, "branch");
        rt.addAnalysis(&miner, "miner");
    }

    void
    addRefs(runtime::WasabiRuntime &rt)
    {
        rt.addAnalysis(&refMix, "ref-mix");
        rt.addAnalysis(&refBlocks, "ref-blocks");
        rt.addAnalysis(&refBranch, "ref-branch");
        rt.addAnalysis(&refMiner, "ref-miner");
    }

    void
    addTo(runtime::WasabiRuntime &rt)
    {
        // Interleaved, so each kind's subscriber list holds several
        // analyses and the shipped/reference pairs are not adjacent.
        rt.addAnalysis(&mix, "mix");
        rt.addAnalysis(&blocks, "blocks");
        rt.addAnalysis(&refMix, "ref-mix");
        rt.addAnalysis(&branch, "branch");
        rt.addAnalysis(&refBlocks, "ref-blocks");
        rt.addAnalysis(&miner, "miner");
        rt.addAnalysis(&refBranch, "ref-branch");
        rt.addAnalysis(&refMiner, "ref-miner");
    }

    void
    expectAgree(const std::string &what) const
    {
        EXPECT_EQ(mix.report(), refMix.report()) << what;
        EXPECT_EQ(mix.report(1000), refMix.report(1000)) << what;
        EXPECT_EQ(mix.counts(), refMix.counts) << what;
        EXPECT_EQ(mix.total(), refMix.total) << what;
        for (const auto &[mnemonic, n] : refMix.counts)
            EXPECT_EQ(mix.count(mnemonic), n) << what << " " << mnemonic;

        EXPECT_EQ(blocks.report(), refBlocks.report()) << what;
        EXPECT_EQ(blocks.report(1u << 20), refBlocks.report(1u << 20))
            << what;
        EXPECT_EQ(blocks.counts(), refBlocks.counts) << what;
        EXPECT_EQ(blocks.distinctBlocks(), refBlocks.counts.size()) << what;

        EXPECT_EQ(branch.report(), refBranch.report()) << what;
        EXPECT_EQ(branch.sites(), refBranch.coverage.size()) << what;
        EXPECT_EQ(branch.partiallyCoveredTwoWaySites(),
                  refBranch.partiallyCoveredTwoWaySites())
            << what;
        for (const auto &[packed, decisions] : refBranch.coverage) {
            Location loc{static_cast<uint32_t>(packed >> 32),
                         static_cast<uint32_t>(packed)};
            EXPECT_EQ(branch.branches(loc), decisions) << what;
        }

        EXPECT_EQ(miner.signature(), refMiner.signature) << what;
        EXPECT_EQ(miner.totalBinaryOps(), refMiner.total) << what;
        EXPECT_EQ(miner.signatureRatio(), refMiner.signatureRatio())
            << what;
        EXPECT_EQ(miner.suspicious(), refMiner.suspicious()) << what;
    }
};

enum class Mode { Rewrite, IntrinsicHooked, IntrinsicCounted };

/** Invoke @p w's entry on @p inst under @p fuel, which it must run
 * out of if there is a budget. */
void
invoke(const Workload &w, interp::Instance &inst,
       std::optional<uint64_t> fuel, const std::string &what)
{
    inst.setFuel(fuel);
    try {
        interp::Interpreter().invokeExport(inst, w.entry, w.args);
        EXPECT_FALSE(fuel) << what << ": expected to run out of fuel";
    } catch (const interp::Trap &t) {
        ASSERT_EQ(t.kind(), interp::TrapKind::FuelExhausted) << what;
    }
}

/** Run @p w with all four pairs attached, in one mode. A @p fuel
 * budget cuts long runs short: the pairs then compare on the prefix
 * of the event stream up to the FuelExhausted trap. */
void
checkWorkload(const Workload &w, Mode mode, const std::string &what,
              std::optional<uint64_t> fuel)
{
    const HookSet kinds = HookSet::all();
    Pairs p;
    core::InstrumentResult r;
    std::shared_ptr<const core::StaticInfo> info;
    if (mode == Mode::Rewrite) {
        r = core::instrument(w.module, kinds);
        info = r.info;
    } else {
        info = core::buildIntrinsicInfo(w.module, kinds);
    }
    runtime::WasabiRuntime rt(info);
    if (mode == Mode::IntrinsicCounted) {
        // The references run the same module on an instance of their
        // own: the same events, delivered by hook.
        runtime::WasabiRuntime refRt(info);
        p.addShipped(rt);
        p.addRefs(refRt);
        EXPECT_FALSE(rt.countedKinds().empty()) << what;
        EXPECT_TRUE(refRt.countedKinds().empty()) << what;
        invoke(w, *rt.instantiateIntrinsic(w.module), fuel, what);
        invoke(w, *refRt.instantiateIntrinsic(w.module), fuel, what);
        EXPECT_EQ(rt.hookInvocations(), refRt.hookInvocations()) << what;
    } else {
        p.addTo(rt);
        EXPECT_TRUE(rt.countedKinds().empty()) << what;
        invoke(w,
               mode == Mode::Rewrite ? *rt.instantiate(r.module)
                                     : *rt.instantiateIntrinsic(w.module),
               fuel, what);
    }
    ASSERT_GT(rt.hookInvocations(), 0u) << what;
    p.expectAgree(what);
}

void
checkAllModes(const Workload &w, const std::string &what,
              std::optional<uint64_t> fuel = std::nullopt)
{
    ASSERT_EQ(validationError(w.module), std::nullopt) << what;
    checkWorkload(w, Mode::Rewrite, what + " (rewrite)", fuel);
    checkWorkload(w, Mode::IntrinsicHooked, what + " (intrinsic)", fuel);
    checkWorkload(w, Mode::IntrinsicCounted, what + " (counted)", fuel);
}

class AnalysisOraclePolybench : public ::testing::TestWithParam<std::string> {
};

TEST_P(AnalysisOraclePolybench, DenseCountersMatchReference)
{
    checkAllModes(workloads::polybench(GetParam(), 8), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, AnalysisOraclePolybench,
    ::testing::ValuesIn(workloads::polybenchNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        std::replace(n.begin(), n.end(), '-', '_');
        return n;
    });

TEST(AnalysisOracle, SyntheticAppsMatchReference)
{
    checkAllModes(workloads::syntheticApp(workloads::AppSize::Small),
                  "app:small");
    // app:medium runs 161M hook events in full; a prefix suffices.
    checkAllModes(workloads::syntheticApp(workloads::AppSize::PdfkitLike),
                  "app:medium", 20'000'000);
}

TEST(AnalysisOracle, RandomProgramsMatchReference)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        // Every other seed is br_table- and call_indirect-heavy.
        if (seed % 2 == 0) {
            opts.indirectCallPct = 25;
            opts.constIndexIndirectPct = 50;
        }
        checkAllModes(workloads::randomProgram(opts),
                      "random:" + std::to_string(seed));
    }
}

TEST(AnalysisOracle, ViewsRefreshAfterLaterEvents)
{
    // The ordered views are built on read; a read between two runs
    // must not freeze them.
    Workload w = workloads::polybench("atax", 6);
    core::InstrumentResult r = core::instrument(w.module, HookSet::all());
    runtime::WasabiRuntime rt(r.info);
    Pairs p;
    p.addTo(rt);
    auto inst = rt.instantiate(r.module);
    interp::Interpreter interp;
    interp.invokeExport(*inst, w.entry, w.args);
    p.expectAgree("atax, first run");
    interp.invokeExport(*inst, w.entry, w.args);
    p.expectAgree("atax, second run");
}

TEST(AnalysisOracle, ViewsRefreshAfterLaterCountedEvents)
{
    // Counts folded after the first read must show in the second.
    Workload w = workloads::polybench("atax", 6);
    auto info = core::buildIntrinsicInfo(w.module, HookSet::all());
    runtime::WasabiRuntime rt(info);
    runtime::WasabiRuntime refRt(info);
    Pairs p;
    p.addShipped(rt);
    p.addRefs(refRt);
    auto inst = rt.instantiateIntrinsic(w.module);
    auto refInst = refRt.instantiateIntrinsic(w.module);
    interp::Interpreter interp;
    for (const char *run : {"first", "second"}) {
        interp.invokeExport(*inst, w.entry, w.args);
        interp.invokeExport(*refInst, w.entry, w.args);
        p.expectAgree(std::string("atax, counted, ") + run + " run");
    }
}

} // namespace
} // namespace wasabi
