/**
 * @file
 * The claim-manifest layer (static/manifest.h) behind the one
 * manifest schema, "wasabi-opt-manifest": the reader honours only the
 * top-level "schema", and it is robust. Emitted manifests, from
 * PolyBench kernels and random programs, are byte-flipped, truncated
 * and spliced with fields of other formats; the reader must then
 * return a result or an error with a message, never throw or crash.
 * Seeded and deterministic.
 */

#include <gtest/gtest.h>

#include "static/manifest.h"
#include "static/rewrite/opt.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"

namespace wasabi::static_analysis {
namespace {

/** Read @p text as an opt manifest; an error always has a message. */
bool
read(const std::string &text)
{
    rewrite::OptClaims claims;
    std::string error;
    bool ok = false;
    EXPECT_NO_THROW(ok = rewrite::claimsFromManifest(text, claims, &error))
        << text;
    EXPECT_TRUE(ok || !error.empty()) << text;
    return ok;
}

TEST(OptManifest, SchemaCountsOnlyAtTopLevel)
{
    // Not JSON objects at all.
    EXPECT_FALSE(read(""));
    EXPECT_FALSE(read("schema: wasabi-opt-manifest"));
    EXPECT_FALSE(read("[\"wasabi-opt-manifest\"]"));
    // A schema string nested in a value is not a schema.
    EXPECT_FALSE(read("{\"passes\": [\"wasabi-opt-manifest\"], "
                      "\"version\": 1}"));
    // No schema at all is an error, whatever else the file holds.
    EXPECT_FALSE(read("{\"version\": 1, \"skips\": []}"));
    EXPECT_FALSE(read("{}"));
    // The top-level schema field decides, wherever it appears.
    EXPECT_TRUE(read("{\"version\": 1, \"passes\": [], "
                     "\"schema\": \"wasabi-opt-manifest\"}"));
    // The retired range-claim format is one more foreign document.
    EXPECT_FALSE(read("{\"schema\": \"wasabi-range-manifest\", "
                      "\"version\": 1, \"minPages\": 1, \"claims\": []}"));
    EXPECT_FALSE(read("{\"schema\": \"wasabi-range-manifest\", "
                      "\"version\": 1}"));
    // A schema the checker does not know is an error.
    EXPECT_FALSE(read("{\"schema\": \"wasabi-hook-plan\", \"version\": 1}"));
    EXPECT_FALSE(read("{\"schema\": 1, \"version\": 1}"));
}

// ----- fuzz ----------------------------------------------------------

/** SplitMix64, independent of the generator's RNG. */
uint64_t
mix(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Emitted opt manifests. */
const std::vector<std::string> &
corpus()
{
    static std::vector<std::string> c = [] {
        std::vector<wasm::Module> modules;
        for (const char *k : {"gemm", "atax", "floyd-warshall", "durbin"})
            modules.push_back(workloads::polybench(k, 8).module);
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            workloads::RandomProgramOptions opts;
            opts.seed = seed;
            modules.push_back(workloads::randomProgram(opts).module);
        }
        std::vector<std::string> out;
        for (const wasm::Module &m : modules)
            out.push_back(rewrite::claimsToManifest(
                rewrite::optimize(m, rewrite::allOptPasses()).claims));
        return out;
    }();
    return c;
}

const std::string &
pick(uint64_t &rng)
{
    return corpus()[mix(rng) % corpus().size()];
}

TEST(ManifestFuzz, EmittedManifestsRouteAndRead)
{
    for (const std::string &text : corpus())
        EXPECT_TRUE(read(text)) << text;
}

TEST(ManifestFuzz, ByteFlipsNeverCrash)
{
    uint64_t rng = 0x5EED;
    for (int i = 0; i < 1500; ++i) {
        std::string text = pick(rng);
        for (uint64_t n = 1 + mix(rng) % 3; n > 0; --n)
            text[mix(rng) % text.size()] = static_cast<char>(mix(rng));
        read(text);
    }
}

TEST(ManifestFuzz, TruncationsNeverCrash)
{
    uint64_t rng = 0x7A1u;
    for (int i = 0; i < 600; ++i) {
        const std::string &text = pick(rng);
        read(text.substr(0, mix(rng) % text.size()));
    }
}

/** The top-level field lines of an emitted manifest (one per line,
 * trailing comma dropped). */
std::vector<std::string>
fieldLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t end = text.find('\n', pos);
        std::string line = text.substr(pos, end - pos);
        pos = end == std::string::npos ? text.size() : end + 1;
        if (line.rfind("  \"", 0) != 0)
            continue;
        if (line.back() == ',')
            line.pop_back();
        lines.push_back(line);
    }
    return lines;
}

TEST(ManifestFuzz, SplicedFieldsOfAnotherKindAreRejectedOrRead)
{
    // Fields of other formats: the retired range-claim manifest, the
    // schema-less instrumentation plan and the retired interprocedural
    // claim kinds. None belongs to the opt schema, so every splice is
    // an unknown field.
    const std::vector<std::string> foreign = {
        "  \"minPages\": 1",
        "  \"claims\": [[0, 3], [1, 7]]",
        "  \"claims\": []",
        "  \"skips\": []",
        "  \"ipoConstArgs\": []",
    };
    uint64_t rng = 0x5B11CE;
    for (int i = 0; i < 900; ++i) {
        std::string text = pick(rng);
        const std::string &field = foreign[mix(rng) % foreign.size()];
        // Insert the foreign field after the opening brace, or in
        // place of one of the host's own field lines.
        if (mix(rng) % 2) {
            text.insert(text.find('{') + 1, "\n" + field + ",");
        } else {
            std::vector<std::string> own = fieldLines(text);
            ASSERT_FALSE(own.empty());
            const std::string &victim = own[mix(rng) % own.size()];
            text.replace(text.find(victim), victim.size(), field);
        }
        rewrite::OptClaims claims;
        std::string error;
        EXPECT_FALSE(rewrite::claimsFromManifest(text, claims, &error))
            << text;
        EXPECT_NE(error.find("unknown manifest field"), std::string::npos)
            << text << "\n" << error;
    }
}

} // namespace
} // namespace wasabi::static_analysis
