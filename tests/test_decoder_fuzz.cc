/**
 * @file
 * Robustness property tests for the binary decoder: mutated and
 * truncated inputs must never crash, hang, or corrupt memory — every
 * malformed input is rejected with DecodeError (or decodes to a module
 * that then fails validation). Seeded and deterministic.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "range_claim_oracle.h"
#include "static/rewrite/opt.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/validator.h"
#include "workloads/random_program.h"

namespace wasabi::wasm {
namespace {

/** SplitMix64, independent of the generator's RNG. */
uint64_t
mix(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

const workloads::Workload &
baseWorkload()
{
    static workloads::Workload w = [] {
        workloads::RandomProgramOptions opts;
        opts.seed = 99;
        return workloads::randomProgram(opts);
    }();
    return w;
}

std::vector<uint8_t>
baseModuleBytes()
{
    return encodeModule(baseWorkload().module);
}

/** Decode must either succeed or throw DecodeError — nothing else. */
void
decodeSafely(const std::vector<uint8_t> &bytes)
{
    try {
        Module m = decodeModule(bytes);
        // If it decoded, validation must also terminate cleanly.
        (void)validationError(m);
    } catch (const DecodeError &) {
        // expected for malformed inputs
    }
}

TEST(DecoderFuzz, SingleByteMutationsNeverCrash)
{
    std::vector<uint8_t> base = baseModuleBytes();
    uint64_t rng = 0xFEED;
    for (int i = 0; i < 2000; ++i) {
        std::vector<uint8_t> bytes = base;
        size_t pos = mix(rng) % bytes.size();
        bytes[pos] = static_cast<uint8_t>(mix(rng));
        decodeSafely(bytes);
    }
}

TEST(DecoderFuzz, MultiByteMutationsNeverCrash)
{
    std::vector<uint8_t> base = baseModuleBytes();
    uint64_t rng = 0xBEEF;
    for (int i = 0; i < 500; ++i) {
        std::vector<uint8_t> bytes = base;
        int edits = 2 + static_cast<int>(mix(rng) % 16);
        for (int e = 0; e < edits; ++e)
            bytes[mix(rng) % bytes.size()] =
                static_cast<uint8_t>(mix(rng));
        decodeSafely(bytes);
    }
}

TEST(DecoderFuzz, TruncationsNeverCrash)
{
    std::vector<uint8_t> base = baseModuleBytes();
    for (size_t len = 0; len < base.size(); len += 7) {
        std::vector<uint8_t> bytes(base.begin(), base.begin() + len);
        decodeSafely(bytes);
    }
}

TEST(DecoderFuzz, RandomGarbageNeverCrashes)
{
    uint64_t rng = 0xCAFE;
    for (int i = 0; i < 500; ++i) {
        std::vector<uint8_t> bytes(mix(rng) % 512);
        for (uint8_t &b : bytes)
            b = static_cast<uint8_t>(mix(rng));
        // Give half of them a correct preamble so section parsing runs.
        if (bytes.size() >= 8 && (i % 2) == 0) {
            const uint8_t preamble[8] = {0x00, 0x61, 0x73, 0x6D,
                                         0x01, 0x00, 0x00, 0x00};
            std::copy(preamble, preamble + 8, bytes.begin());
        }
        decodeSafely(bytes);
    }
}

/** Observable outcome of one bounded execution. */
struct FuzzOutcome {
    std::vector<Value> results;
    std::optional<interp::TrapKind> trap;
    std::vector<uint8_t> memory;
    uint64_t instructions = 0;
    std::optional<uint64_t> fuelLeft;

    bool operator==(const FuzzOutcome &other) const = default;
};

std::optional<FuzzOutcome>
runBounded(const Module &m, interp::EngineKind engine)
{
    FuzzOutcome out;
    std::unique_ptr<interp::Instance> inst;
    try {
        inst = interp::Instance::instantiate(m, interp::Linker());
    } catch (...) {
        // Mutations can break instantiation (segment bounds, start
        // traps); that path is engine-independent, skip the input.
        return std::nullopt;
    }
    // A mutated body may loop forever: bound the run with fuel.
    inst->setFuel(200000);
    interp::Interpreter interp;
    interp.engine = engine;
    const workloads::Workload &w = baseWorkload();
    try {
        out.results = interp.invokeExport(*inst, w.entry, w.args);
    } catch (const interp::Trap &t) {
        out.trap = t.kind();
    } catch (const std::invalid_argument &) {
        return std::nullopt; // mutated away the entry export
    }
    out.memory = inst->memory().raw();
    out.instructions = interp.stats().instructions;
    out.fuelLeft = inst->fuel();
    return out;
}

/**
 * Differential gate: every mutated module that still decodes and
 * validates must execute identically — results, trap kind, memory,
 * instruction count, fuel — on the legacy walker and the fast engine.
 */
TEST(DecoderFuzz, MutationSurvivorsExecuteIdenticallyOnBothEngines)
{
    std::vector<uint8_t> base = baseModuleBytes();
    uint64_t rng = 0xD1FF;
    int executed = 0;
    for (int i = 0; i < 400; ++i) {
        std::vector<uint8_t> bytes = base;
        bytes[mix(rng) % bytes.size()] = static_cast<uint8_t>(mix(rng));
        Module m;
        try {
            m = decodeModule(bytes);
        } catch (const DecodeError &) {
            continue;
        }
        if (validationError(m))
            continue;
        std::optional<FuzzOutcome> legacy =
            runBounded(m, interp::EngineKind::Legacy);
        std::optional<FuzzOutcome> fast =
            runBounded(m, interp::EngineKind::Fast);
        ASSERT_EQ(legacy.has_value(), fast.has_value()) << "iter " << i;
        if (!legacy)
            continue;
        EXPECT_EQ(legacy->results, fast->results) << "iter " << i;
        EXPECT_EQ(legacy->trap, fast->trap) << "iter " << i;
        EXPECT_EQ(legacy->memory == fast->memory, true) << "iter " << i;
        EXPECT_EQ(legacy->instructions, fast->instructions)
            << "iter " << i;
        EXPECT_EQ(legacy->fuelLeft, fast->fuelLeft) << "iter " << i;
        ++executed;
    }
    // The corpus must actually exercise the engines.
    EXPECT_GT(executed, 0);
}

/**
 * Range-claim oracle on a second mutation corpus: every access the
 * range analysis claims in a surviving mutant must stay inside the
 * claimed memory (tests/range_claim_oracle.h).
 */
TEST(DecoderFuzz, MutationSurvivorsHonorRangeClaims)
{
    std::vector<uint8_t> base = baseModuleBytes();
    uint64_t rng = 0xE115; // different corpus than the plain gate
    int executed = 0;
    uint64_t claimed = 0;
    for (int i = 0; i < 400; ++i) {
        std::vector<uint8_t> bytes = base;
        bytes[mix(rng) % bytes.size()] = static_cast<uint8_t>(mix(rng));
        workloads::Workload w;
        w.entry = baseWorkload().entry;
        w.args = baseWorkload().args;
        try {
            w.module = decodeModule(bytes);
        } catch (const DecodeError &) {
            continue;
        }
        if (validationError(w.module))
            continue;
        tests::OracleRun run;
        try {
            // A mutated body may loop forever: bound the run with fuel.
            run = tests::runRangeOracle(w, tests::provableClaims(w.module),
                                        tests::OracleMode::Intrinsic,
                                        200000);
        } catch (...) {
            // Mutations can break instantiation (segment bounds, start
            // traps) or the entry export; skip the input.
            continue;
        }
        EXPECT_EQ(run.violationCount, 0u)
            << "iter " << i << ": "
            << ::testing::PrintToString(run.violations);
        claimed += run.claimedAccesses;
        ++executed;
    }
    EXPECT_GT(executed, 0);
    EXPECT_GT(claimed, 0u);
}

/**
 * Optimizer gate on the mutation corpus: every surviving mutant must
 * run the full pass list to a module that revalidates, whose claim
 * manifest re-proves after a serialization round trip, and that
 * executes identically on both engines — and identically to the
 * unoptimized mutant whenever neither run hits the fuel bound (the
 * optimized module retires fewer instructions, so fuel-exhaustion
 * points legitimately differ).
 */
TEST(DecoderFuzz, MutationSurvivorsOptimizeProveAndMatchOnBothEngines)
{
    namespace rw = static_analysis::rewrite;
    std::vector<uint8_t> base = baseModuleBytes();
    uint64_t rng = 0x1B0;
    int proved = 0;
    for (int i = 0; i < 300; ++i) {
        std::vector<uint8_t> bytes = base;
        bytes[mix(rng) % bytes.size()] = static_cast<uint8_t>(mix(rng));
        Module m;
        try {
            m = decodeModule(bytes);
        } catch (const DecodeError &) {
            continue;
        }
        if (validationError(m))
            continue;

        rw::OptResult r = rw::optimize(m, rw::allOptPasses());
        ASSERT_EQ(validationError(r.module), std::nullopt) << "iter " << i;

        rw::OptClaims parsed;
        std::string error;
        ASSERT_TRUE(rw::claimsFromManifest(
            rw::claimsToManifest(r.claims), parsed, &error))
            << "iter " << i << ": " << error;
        static_analysis::Diagnostics ds = rw::checkOptimization(
            m, encodeModule(r.module), parsed);
        EXPECT_TRUE(ds.empty()) << "iter " << i << "\n" << toString(ds);

        std::optional<FuzzOutcome> ol =
            runBounded(m, interp::EngineKind::Legacy);
        std::optional<FuzzOutcome> pl =
            runBounded(r.module, interp::EngineKind::Legacy);
        std::optional<FuzzOutcome> pf =
            runBounded(r.module, interp::EngineKind::Fast);
        ASSERT_EQ(pl.has_value(), pf.has_value()) << "iter " << i;
        if (!pl)
            continue;
        EXPECT_EQ(*pl == *pf, true) << "iter " << i;
        if (ol && ol->trap != interp::TrapKind::FuelExhausted &&
            pl->trap != interp::TrapKind::FuelExhausted) {
            EXPECT_EQ(ol->results, pl->results) << "iter " << i;
            EXPECT_EQ(ol->trap, pl->trap) << "iter " << i;
            EXPECT_EQ(ol->memory == pl->memory, true) << "iter " << i;
        }
        ++proved;
    }
    EXPECT_GT(proved, 0);
}

TEST(DecoderFuzz, SectionSizeLiesAreRejected)
{
    // Hand-crafted: a type section that claims a huge size.
    std::vector<uint8_t> bytes{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00,
                               0x00, 0x00, 0x01, 0xFF, 0xFF, 0xFF,
                               0xFF, 0x0F};
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

TEST(DecoderFuzz, HugeLocalCountIsRejected)
{
    // A code body declaring ~4 billion locals must not allocate.
    std::vector<uint8_t> bytes{
        0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00,
        0x01, 0x04, 0x01, 0x60, 0x00, 0x00, // type () -> ()
        0x03, 0x02, 0x01, 0x00,             // one function
        0x0A, 0x09, 0x01, 0x07,             // code, body size 7
        0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, // 1 run of 2^32-1 locals
        0x7F,                               // i32 (end missing anyway)
    };
    EXPECT_THROW(decodeModule(bytes), DecodeError);
}

} // namespace
} // namespace wasabi::wasm
