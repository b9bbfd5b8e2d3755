/**
 * @file
 * Tests for `wasabi opt`: the three optimization passes, the
 * claim-manifest round trip, the manifest checker's accept/reject
 * behavior, and the differential-execution guarantee (original and
 * optimized modules are observationally identical on both engines,
 * instrumented and uninstrumented).
 */

#include <gtest/gtest.h>

#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "static/manifest.h"
#include "static/rewrite/opt.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"
#include "wasm/name_section.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace wasabi::static_analysis::rewrite {
namespace {

using wasm::FuncType;
using wasm::FunctionBuilder;
using wasm::Instr;
using wasm::Module;
using wasm::ModuleBuilder;
using wasm::Opcode;
using wasm::ValType;
using wasm::Value;

/** Three defined functions f0 -> f1 -> f2 (chained calls), f0
 * exported as "main", all carrying debug names. */
Module
chainModule()
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) { f.call(1); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.call(2); });
    mb.addFunction(FuncType({}, {ValType::I32}), "",
                   [](FunctionBuilder &f) { f.i32Const(42); });
    Module m = mb.build();
    m.functions[0].debugName = "entry";
    m.functions[1].debugName = "middle";
    m.functions[2].debugName = "leaf";
    wasm::buildNameSection(m);
    return m;
}

/** Invoke exported @p entry with no arguments on @p engine and return
 * (results, trap). */
std::pair<std::vector<Value>, std::optional<interp::TrapKind>>
run(const Module &m, const std::string &entry, interp::EngineKind engine)
{
    auto inst = interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    interp.engine = engine;
    std::pair<std::vector<Value>, std::optional<interp::TrapKind>> out;
    try {
        out.first = interp.invokeExport(*inst, entry, {});
    } catch (const interp::Trap &t) {
        out.second = t.kind();
    }
    return out;
}

// ---------------------------------------------------------------------
// Optimization passes.

TEST(Opt, CallIndirectWithConstantIndexBecomesDirectCall)
{
    ModuleBuilder mb;
    mb.table(1, 1);
    FuncType t({}, {ValType::I32});
    uint32_t callee = mb.addFunction(t, "", [](FunctionBuilder &f) {
        f.i32Const(31);
    });
    FunctionBuilder fb = mb.startFunction(t, "main");
    fb.i32Const(0); // constant table index
    fb.callIndirect(mb.type(t));
    fb.finish();
    mb.elem(0, {callee});
    Module m = mb.build();
    ASSERT_EQ(wasm::validationError(m), std::nullopt);

    OptResult r = optimize(m, {"call-indirect"});
    ASSERT_EQ(r.claims.directCalls.size(), 1u);
    EXPECT_EQ(r.claims.directCalls[0].target, callee);
    // The site is now drop + direct call, and behaves identically.
    uint32_t site = r.claims.directCalls[0].instr;
    const std::vector<Instr> &body =
        r.module.functions[r.claims.directCalls[0].func].body;
    EXPECT_EQ(body[site].op, Opcode::Drop);
    EXPECT_EQ(body[site + 1].op, Opcode::Call);
    EXPECT_EQ(body[site + 1].imm.idx, callee);
    auto [o, ot] = run(m, "main", interp::EngineKind::Fast);
    auto [p, pt] = run(r.module, "main", interp::EngineKind::Fast);
    EXPECT_EQ(o, p);
    EXPECT_EQ(ot, pt);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, ConstFoldCollapsesAdjacentConstants)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(2);
                       f.i32Const(3);
                       f.op(Opcode::I32Add);
                       f.i32Const(10);
                       f.op(Opcode::I32Mul);
                   });
    Module m = mb.build();

    OptResult r = optimize(m, {"const-fold"});
    // (2+3)*10 collapses all the way to one constant: the first fold's
    // result constant re-combines with the following multiply.
    ASSERT_GE(r.claims.constFolds.size(), 2u);
    ASSERT_EQ(r.module.functions[0].body.size(), 2u);
    EXPECT_EQ(r.module.functions[0].body[0].imm.i32v, 50);
    auto [results, trap] = run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 50);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(Opt, ConstFoldNeverFoldsTrappingDivision)
{
    ModuleBuilder mb;
    mb.addFunction(FuncType({}, {ValType::I32}), "main",
                   [](FunctionBuilder &f) {
                       f.i32Const(1);
                       f.i32Const(0);
                       f.op(Opcode::I32DivU); // traps: must be kept
                   });
    Module m = mb.build();
    OptResult r = optimize(m, {"const-fold"});
    EXPECT_TRUE(r.claims.constFolds.empty());
    auto [o, ot] = run(m, "main", interp::EngineKind::Fast);
    auto [p, pt] = run(r.module, "main", interp::EngineKind::Fast);
    EXPECT_EQ(ot, pt);
    EXPECT_TRUE(pt.has_value()); // still traps
}

TEST(Opt, DeadStoresBecomeDrops)
{
    ModuleBuilder mb;
    FunctionBuilder fb =
        mb.startFunction(FuncType({}, {ValType::I32}), "main");
    uint32_t tmp = fb.addLocal(ValType::I32);
    fb.i32Const(5);
    fb.localSet(tmp); // never read again
    fb.i32Const(1);
    fb.finish();
    Module m = mb.build();

    OptResult r = optimize(m, {"dead-stores"});
    ASSERT_EQ(r.claims.deadStores.size(), 1u);
    EXPECT_EQ(
        r.module.functions[0].body[r.claims.deadStores[0].instr].op,
        Opcode::Drop);
    auto [results, trap] = run(r.module, "main", interp::EngineKind::Fast);
    ASSERT_FALSE(trap.has_value());
    EXPECT_EQ(results[0].i32(), 1);

    Diagnostics ds = checkOptimization(
        m, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

TEST(OptCheck, BadDeadStoreClaimsAreReportedInClaimOrder)
{
    // Two dead stores (instrs 1 and 3); the forged claims name a
    // non-store and a live local between valid ones, out of order.
    ModuleBuilder mb;
    FunctionBuilder fb =
        mb.startFunction(FuncType({}, {ValType::I32}), "main");
    uint32_t tmp = fb.addLocal(ValType::I32);
    fb.i32Const(5);
    fb.localSet(tmp);
    fb.i32Const(6);
    fb.localSet(tmp);
    fb.i32Const(1);
    fb.finish();
    Module m = mb.build();

    OptResult r = optimize(m, {"dead-stores"});
    ASSERT_EQ(r.claims.deadStores.size(), 2u);
    OptClaims forged = r.claims;
    forged.deadStores = {{0, 3, tmp}, {0, 2, tmp}, {0, 1, tmp + 1},
                         {0, 1, tmp}};
    Diagnostics ds =
        checkOptimization(m, wasm::encodeModule(r.module), forged);
    EXPECT_EQ(toString(ds),
              "error check.opt.bad-dead-store (func 0, instr 2): "
              "local.set of local 0 is not provably dead\n"
              "error check.opt.bad-dead-store (func 0, instr 1): "
              "local.set of local 1 is not provably dead\n");
}

TEST(Opt, UnknownPassIsRefused)
{
    Module m = chainModule();
    EXPECT_THROW(optimize(m, {"inline-everything"}), RewriteError);
    EXPECT_THROW(optimize(m, {"dead-functions"}), RewriteError);
    EXPECT_TRUE(isOptPass("call-indirect"));
    EXPECT_FALSE(isOptPass("inline-everything"));
    EXPECT_FALSE(isOptPass("empty-blocks"));
    EXPECT_EQ(allOptPasses(),
              (std::vector<std::string>{"call-indirect", "const-fold",
                                        "dead-stores"}));
}

// ---------------------------------------------------------------------
// Pass-spec parsing (the `--passes=` CLI contract).

TEST(Opt, ParsePassSpecAcceptsSubsetsAndRejectsUnknownNames)
{
    EXPECT_EQ(parsePassSpec("all"), allOptPasses());
    EXPECT_EQ(parsePassSpec(""), allOptPasses());
    EXPECT_EQ(parsePassSpec("const-fold,dead-stores"),
              (std::vector<std::string>{"const-fold", "dead-stores"}));

    // "ipo-const", "dead-functions" and "empty-blocks" were passes
    // once; they are as unknown as any typo now.
    for (const char *bad : {"inline-everything", "ipo-const",
                            "dead-functions", "empty-blocks"}) {
        try {
            parsePassSpec(std::string("call-indirect,") + bad);
            FAIL() << "expected RewriteError for " << bad;
        } catch (const RewriteError &e) {
            EXPECT_EQ(e.code(), "opt.unknown-pass");
            // The usage error names the offender and lists every valid
            // pass so the CLI message is self-describing.
            EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
            for (const std::string &p : allOptPasses())
                EXPECT_NE(std::string(e.what()).find(p),
                          std::string::npos)
                    << p;
        }
    }
    EXPECT_THROW(parsePassSpec("call-indirect,,const-fold"),
                 RewriteError);
}

// ---------------------------------------------------------------------
// Manifest round trip and checker accept/reject.

TEST(OptManifest, RoundTripsAllClaimKinds)
{
    OptClaims claims;
    claims.passes = allOptPasses();
    claims.directCalls = {{1, 2, 3, 4}};
    claims.constFolds = {{0, 5, 3, 0xFFFFFFFFu}};
    claims.deadStores = {{2, 9, 1}};

    std::string text = claimsToManifest(claims);
    std::optional<json::Value> doc = json::parse(text, nullptr);
    ASSERT_TRUE(doc.has_value());
    const json::Value *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, manifest::kOptSchema);
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(claimsFromManifest(text, parsed, &error)) << error;
    EXPECT_EQ(parsed.passes, claims.passes);
    ASSERT_EQ(parsed.directCalls.size(), 1u);
    EXPECT_EQ(parsed.directCalls[0].target, 4u);
    ASSERT_EQ(parsed.constFolds.size(), 1u);
    EXPECT_EQ(parsed.constFolds[0].value, 0xFFFFFFFFu);
    ASSERT_EQ(parsed.deadStores.size(), 1u);
    EXPECT_EQ(parsed.deadStores[0].local, 1u);
    EXPECT_EQ(parsed.totalClaims(), claims.totalClaims());
}

TEST(OptManifest, MalformedInputIsRejected)
{
    OptClaims claims;
    std::string error;
    EXPECT_FALSE(claimsFromManifest("not json", claims, &error));
    EXPECT_FALSE(claimsFromManifest(
        "{\"schema\": \"wasabi-opt-manifest\", \"version\": 2}", claims,
        &error));
    // Numbers must be integers in [0, 2^32-1], never rounded.
    for (const char *rows :
         {"\"deadStores\": [[0, 1, -1]]", "\"deadStores\": [[0, 1, 1.5]]",
          "\"deadStores\": [[0, 1, 4294967296]]",
          "\"directCalls\": [[0, 1, 2, -1]]",
          "\"constFolds\": [[0, 1, 1.5, 3]]",
          "\"directCalls\": [[4294967296, 0, 0, 0]]",
          // A claim kind of a retired pass is an unknown field like
          // any other, even when empty.
          "\"ipoConstArgs\": []", "\"emptyBlocks\": []"}) {
        std::string text =
            std::string("{\"schema\": \"wasabi-opt-manifest\", "
                        "\"version\": 1, ") +
            rows + "}";
        OptClaims parsed;
        error.clear();
        EXPECT_FALSE(claimsFromManifest(text, parsed, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }

    // A retired pass name is well-formed JSON, so the reader keeps it;
    // the checker refuses it like any unknown pass.
    OptClaims stale;
    ASSERT_TRUE(claimsFromManifest(
        "{\"schema\": \"wasabi-opt-manifest\", \"version\": 1, "
        "\"passes\": [\"dead-functions\", \"empty-blocks\"]}",
        stale, &error))
        << error;
    Module m = chainModule();
    Diagnostics ds = checkOptimization(m, wasm::encodeModule(m), stale);
    EXPECT_TRUE(ds.hasCode("check.opt.unknown-pass")) << toString(ds);
}

TEST(OptManifest, DuplicateKeyIsRejected)
{
    // Duplicated claim arrays used to merge silently; with a tree
    // reader the first would win. Either way the claim set would not
    // be the one the manifest's author saw, so it is rejected.
    OptClaims claims;
    claims.passes = allOptPasses();
    claims.directCalls = {{1, 2, 3, 4}};
    std::string text = claimsToManifest(claims);
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(claimsFromManifest(text, parsed, &error)) << error;
    for (const char *dup :
         {"\"directCalls\": [[5, 6, 7, 8]], ", "\"passes\": [], ",
          "\"version\": 1, ", "\"schema\": \"wasabi-opt-manifest\", "}) {
        std::string bad = text;
        bad.insert(bad.find('{') + 1, dup);
        OptClaims again;
        EXPECT_FALSE(claimsFromManifest(bad, again, &error)) << bad;
        EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    }
}

TEST(OptCheck, RejectsTamperedBinary)
{
    Module m = chainModule();
    m.functions[0].body = {Instr::call(2), Instr(Opcode::End)};
    OptResult r = optimize(m, allOptPasses());
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);
    ASSERT_TRUE(checkOptimization(m, bytes, r.claims).empty());

    // Flip the constant in the surviving leaf body: the claims no
    // longer describe this binary.
    std::vector<uint8_t> tampered = bytes;
    bool flipped = false;
    for (size_t i = tampered.size(); i-- > 0;) {
        if (tampered[i] == 42) {
            tampered[i] = 43;
            flipped = true;
            break;
        }
    }
    ASSERT_TRUE(flipped);
    Diagnostics ds = checkOptimization(m, tampered, r.claims);
    ASSERT_FALSE(ds.empty());
    EXPECT_TRUE(ds.hasCode("check.opt.output-mismatch")) << toString(ds);
}

TEST(OptCheck, RejectsForgedClaims)
{
    Module m = chainModule();
    m.functions[0].body = {Instr::call(2), Instr(Opcode::End)};
    OptResult r = optimize(m, allOptPasses());
    std::vector<uint8_t> bytes = wasm::encodeModule(r.module);

    {
        // A dead-store claim the liveness pass does not prove.
        OptClaims forged = r.claims;
        forged.deadStores.push_back({0, 0, 0});
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.bad-dead-store"))
            << toString(ds);
    }
    {
        // A claim for a pass the manifest does not list.
        OptClaims forged = r.claims;
        forged.passes = {"const-fold"};
        forged.directCalls.push_back({0, 0, 0, 0});
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.orphan-claims"))
            << toString(ds);
    }
    {
        // An unknown pass name.
        OptClaims forged = r.claims;
        forged.passes.push_back("inline-everything");
        Diagnostics ds = checkOptimization(m, bytes, forged);
        ASSERT_FALSE(ds.empty());
        EXPECT_TRUE(ds.hasCode("check.opt.unknown-pass"))
            << toString(ds);
    }
}

TEST(OptCheck, InvalidOriginalIsRejectedBeforeAnyPass)
{
    // The passes assume a valid module: local 70000 does not exist,
    // and re-proving even an empty claim list must not reach them.
    Module bad = wasm::parseWat(
        "(module (func (export \"main\") i32.const 1 local.set 70000))");
    std::vector<uint8_t> bytes =
        wasm::encodeModule(workloads::polybench("gemm", 4).module);
    for (const char *pass : {"dead-stores", "call-indirect", "const-fold"}) {
        OptClaims claims;
        claims.passes = {pass};
        Diagnostics ds = checkOptimization(bad, bytes, claims);
        ASSERT_EQ(ds.size(), 1u) << pass << "\n" << toString(ds);
        EXPECT_TRUE(ds.hasCode("check.input.invalid-original"))
            << toString(ds);
    }
}

TEST(OptCheck, OriginalOverTheLocalsCapIsInvalid)
{
    // A WAT original can declare more locals than the decoder accepts.
    // Its encoding, shipped as the "optimized" binary of an empty
    // pass list, is byte-identical to the replay but cannot be loaded,
    // so the check must not pass it.
    Module big = wasm::parseWat("(module (func (export \"main\")))");
    big.functions[0].locals.assign(wasm::kMaxLocals + 1, ValType::I32);
    Diagnostics ds =
        checkOptimization(big, wasm::encodeModule(big), OptClaims{});
    ASSERT_EQ(ds.size(), 1u) << toString(ds);
    EXPECT_TRUE(ds.hasCode("check.input.invalid-original"))
        << toString(ds);
}

// ---------------------------------------------------------------------
// End-to-end over generated corpora: optimize with all passes, check
// the manifest, and differentially execute original vs optimized on
// both engines — uninstrumented and instrumented.

struct Outcome {
    std::vector<Value> results;
    std::optional<interp::TrapKind> trap;
    std::vector<uint8_t> memory;

    bool operator==(const Outcome &other) const = default;
};

Outcome
runWorkload(const Module &m, const workloads::Workload &w,
            interp::EngineKind engine)
{
    Outcome out;
    auto inst = interp::Instance::instantiate(m, interp::Linker());
    interp::Interpreter interp;
    interp.engine = engine;
    try {
        out.results = interp.invokeExport(*inst, w.entry, w.args);
    } catch (const interp::Trap &t) {
        out.trap = t.kind();
    }
    out.memory = inst->memory().raw();
    return out;
}

/** Optimize with every pass, verify the claim manifest, and require
 * observational equivalence in all four engine/module combinations,
 * plus hook-stream agreement when instrumenting the optimized module. */
void
expectOptimizationFaithful(const workloads::Workload &w)
{
    ASSERT_EQ(wasm::validationError(w.module), std::nullopt) << w.name;
    OptResult r = optimize(w.module, allOptPasses());
    ASSERT_EQ(wasm::validationError(r.module), std::nullopt) << w.name;

    // Manifest survives serialization and re-proves.
    OptClaims parsed;
    std::string error;
    ASSERT_TRUE(
        claimsFromManifest(claimsToManifest(r.claims), parsed, &error))
        << w.name << ": " << error;
    Diagnostics ds = checkOptimization(
        w.module, wasm::encodeModule(r.module), parsed);
    EXPECT_TRUE(ds.empty()) << w.name << "\n" << toString(ds);

    // 4-way differential: original/optimized x legacy/fast.
    Outcome ol = runWorkload(w.module, w, interp::EngineKind::Legacy);
    Outcome of = runWorkload(w.module, w, interp::EngineKind::Fast);
    Outcome pl = runWorkload(r.module, w, interp::EngineKind::Legacy);
    Outcome pf = runWorkload(r.module, w, interp::EngineKind::Fast);
    EXPECT_TRUE(ol == of) << w.name << ": engines disagree (original)";
    EXPECT_TRUE(ol == pl) << w.name << ": optimization changed behavior";
    EXPECT_TRUE(ol == pf) << w.name << ": optimization changed behavior";

    // Instrumenting *after* optimization must still agree between
    // engines, including the number of dispatched hooks.
    core::InstrumentResult ir =
        core::instrument(r.module, core::HookSet::all());
    uint64_t hooks[2];
    Outcome outs[2];
    for (int e = 0; e < 2; ++e) {
        runtime::WasabiRuntime rt(ir.info);
        analyses::InstructionMix mix;
        rt.addAnalysis(&mix);
        auto inst = rt.instantiate(ir.module);
        interp::Interpreter interp;
        interp.engine = e == 0 ? interp::EngineKind::Legacy
                               : interp::EngineKind::Fast;
        try {
            outs[e].results = interp.invokeExport(*inst, w.entry, w.args);
        } catch (const interp::Trap &t) {
            outs[e].trap = t.kind();
        }
        outs[e].memory = inst->memory().raw();
        hooks[e] = rt.hookInvocations();
    }
    EXPECT_TRUE(outs[0] == outs[1])
        << w.name << ": instrumented engines disagree";
    EXPECT_EQ(hooks[0], hooks[1]) << w.name;
    EXPECT_GT(hooks[0], 0u) << w.name;
}

TEST(OptDifferential, PolybenchKernels)
{
    for (const workloads::Workload &w : workloads::polybenchSuite(6))
        expectOptimizationFaithful(w);
}

TEST(OptDifferential, RandomProgramsWithIndirectCalls)
{
    for (uint64_t seed = 100; seed < 112; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 10;
        opts.stmtsPerFunction = 14;
        opts.indirectCallPct = 30;
        opts.constIndexIndirectPct = 60;
        expectOptimizationFaithful(workloads::randomProgram(opts));
    }
    // A second corpus: smaller functions, fewer indirect calls.
    for (uint64_t seed = 300; seed < 340; ++seed) {
        workloads::RandomProgramOptions opts;
        opts.seed = seed;
        opts.numFunctions = 8;
        opts.stmtsPerFunction = 10;
        opts.indirectCallPct = 25;
        opts.constIndexIndirectPct = 50;
        expectOptimizationFaithful(workloads::randomProgram(opts));
    }
}

TEST(OptDifferential, SyntheticAppShrinks)
{
    workloads::Workload w =
        workloads::syntheticApp(workloads::AppSize::Small);
    OptResult r = optimize(w.module, allOptPasses());
    EXPECT_GT(r.claims.totalClaims(), 0u);
    EXPECT_LT(wasm::encodeModule(r.module).size(),
              wasm::encodeModule(w.module).size());
    Diagnostics ds = checkOptimization(
        w.module, wasm::encodeModule(r.module), r.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
    expectOptimizationFaithful(w);

    // The medium app is too slow to execute four ways here; optimizing
    // and re-proving every claim still covers the static side.
    workloads::Workload medium =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    OptResult rm = optimize(medium.module, allOptPasses());
    std::vector<uint8_t> optimized = wasm::encodeModule(rm.module);
    EXPECT_LT(optimized.size(), wasm::encodeModule(medium.module).size());
    ds = checkOptimization(medium.module, optimized, rm.claims);
    EXPECT_TRUE(ds.empty()) << toString(ds);
}

} // namespace
} // namespace wasabi::static_analysis::rewrite
