/**
 * @file
 * The claim-manifest layer (static/manifest.h): routing on the
 * top-level "schema" field, and robustness of the two readers.
 * Emitted manifests of every kind, from PolyBench kernels and random
 * programs, are byte-flipped, truncated and spliced with another
 * kind's fields; the router and every reader must then return a
 * result or an error with a message, never throw or crash. Seeded and
 * deterministic.
 */

#include <gtest/gtest.h>

#include "static/manifest.h"
#include "static/passes/range.h"
#include "static/rewrite/opt.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"

namespace wasabi::static_analysis {
namespace {

/** Route @p text: parse, then manifestKind(); nullopt if either
 * fails (with a message). */
std::optional<ManifestKind>
route(const std::string &text)
{
    std::string error;
    std::optional<json::Value> doc = json::parse(text, &error);
    std::optional<ManifestKind> kind =
        doc ? manifestKind(*doc, &error) : std::nullopt;
    EXPECT_EQ(kind.has_value(), error.empty()) << text << "\n" << error;
    return kind;
}

TEST(ManifestRouter, RoutesOnTopLevelSchemaOnly)
{
    // Not JSON objects at all.
    EXPECT_EQ(route(""), std::nullopt);
    EXPECT_EQ(route("schema: wasabi-range-manifest"), std::nullopt);
    EXPECT_EQ(route("[\"wasabi-range-manifest\"]"), std::nullopt);
    // A file of another manifest kind that merely mentions a schema
    // string in a value must not be routed by it.
    EXPECT_EQ(route("{\"schema\": \"wasabi-opt-manifest\", "
                    "\"version\": 1, \"note\": \"wasabi-range-manifest\"}"),
              ManifestKind::Opt);
    EXPECT_EQ(route("{\"claims\": [\"wasabi-range-manifest\"], "
                    "\"version\": 1}"),
              std::nullopt);
    // No schema at all is an error: the schema-less instrumentation
    // plan is no longer a manifest kind.
    EXPECT_EQ(route("{\"version\": 1, \"skips\": [], "
                    "\"note\": \"wasabi-opt-manifest\"}"),
              std::nullopt);
    EXPECT_EQ(route("{}"), std::nullopt);
    // The top-level schema field decides, wherever it appears.
    EXPECT_EQ(route("{\"version\": 1, \"minPages\": 1, "
                    "\"claims\": [[0, 3]], "
                    "\"schema\": \"wasabi-range-manifest\"}"),
              ManifestKind::Range);
    EXPECT_EQ(route("{\"schema\": \"wasabi-range-manifest\"}"),
              ManifestKind::Range);
    // A schema the checker does not know is an error.
    EXPECT_EQ(route("{\"schema\": \"wasabi-hook-plan\"}"), std::nullopt);
    EXPECT_EQ(route("{\"schema\": 1, \"version\": 1}"), std::nullopt);
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

/** Emitted manifests of both kinds, indexed by ManifestKind. */
using Corpus = std::vector<std::array<std::string, 2>>;

const Corpus &
corpus()
{
    static Corpus c = [] {
        std::vector<wasm::Module> modules;
        for (const char *k : {"gemm", "atax", "floyd-warshall", "durbin"})
            modules.push_back(workloads::polybench(k, 8).module);
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            workloads::RandomProgramOptions opts;
            opts.seed = seed;
            modules.push_back(workloads::randomProgram(opts).module);
        }
        Corpus out;
        for (const wasm::Module &m : modules) {
            out.push_back({
                passes::rangeClaimsToManifest(passes::provableRangeClaims(
                    passes::moduleRanges(m, 1))),
                rewrite::claimsToManifest(
                    rewrite::optimize(m, rewrite::allOptPasses()).claims),
            });
        }
        return out;
    }();
    return c;
}

/** Feed @p text to the router and every reader: each must return a
 * result or an error with a message, never throw. */
void
feed(const std::string &text)
{
    std::string range_err, opt_err;
    bool range_ok = false, opt_ok = false;
    EXPECT_NO_THROW({
        route(text);
        passes::RangeClaims range;
        range_ok =
            passes::rangeClaimsFromManifest(text, &range, &range_err);
        rewrite::OptClaims opt;
        opt_ok = rewrite::claimsFromManifest(text, opt, &opt_err);
    }) << text;
    EXPECT_TRUE(range_ok || !range_err.empty()) << text;
    EXPECT_TRUE(opt_ok || !opt_err.empty()) << text;
}

TEST(ManifestFuzz, EmittedManifestsRouteAndRead)
{
    for (const auto &kinds : corpus()) {
        for (size_t k = 0; k < kinds.size(); ++k) {
            EXPECT_EQ(route(kinds[k]), static_cast<ManifestKind>(k));
            feed(kinds[k]);
        }
    }
}

TEST(ManifestFuzz, ByteFlipsNeverCrash)
{
    uint64_t rng = 0x5EED;
    for (int i = 0; i < 1500; ++i) {
        const auto &kinds = corpus()[mix(rng) % corpus().size()];
        std::string text = kinds[mix(rng) % kinds.size()];
        for (uint64_t n = 1 + mix(rng) % 3; n > 0; --n)
            text[mix(rng) % text.size()] = static_cast<char>(mix(rng));
        feed(text);
    }
}

TEST(ManifestFuzz, TruncationsNeverCrash)
{
    uint64_t rng = 0x7A1u;
    for (int i = 0; i < 600; ++i) {
        const auto &kinds = corpus()[mix(rng) % corpus().size()];
        const std::string &text = kinds[mix(rng) % kinds.size()];
        feed(text.substr(0, mix(rng) % text.size()));
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
    uint64_t rng = 0x5B11CE;
    for (int i = 0; i < 900; ++i) {
        const auto &kinds = corpus()[mix(rng) % corpus().size()];
        size_t into = mix(rng) % kinds.size();
        size_t from = (into + 1) % kinds.size();
        std::vector<std::string> donor = fieldLines(kinds[from]);
        ASSERT_FALSE(donor.empty());
        const std::string &field = donor[mix(rng) % donor.size()];
        std::string text = kinds[into];
        // Insert the foreign field after the opening brace, or in
        // place of one of the host's own field lines.
        if (mix(rng) % 2) {
            text.insert(text.find('{') + 1, "\n" + field + ",");
        } else {
            std::vector<std::string> own = fieldLines(text);
            const std::string &victim = own[mix(rng) % own.size()];
            text.replace(text.find(victim), victim.size(), field);
        }
        feed(text);
    }
}

} // namespace
} // namespace wasabi::static_analysis
