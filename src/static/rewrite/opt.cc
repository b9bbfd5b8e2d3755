#include "static/rewrite/opt.h"

#include <algorithm>
#include <tuple>

#include "static/interproc/call_graph.h"
#include "static/manifest.h"
#include "static/passes/constprop.h"
#include "static/passes/deadstore.h"
#include "support/parallel.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/leb128.h"
#include "wasm/validator.h"

namespace wasabi::static_analysis::rewrite {

using wasm::Instr;
using wasm::Module;
using wasm::Opcode;

namespace {

constexpr const char *kPassCallIndirect = "call-indirect";
constexpr const char *kPassConstFold = "const-fold";
constexpr const char *kPassDeadStores = "dead-stores";

// ----- call-indirect -------------------------------------------------

std::vector<DirectCallClaim>
findDirectCalls(const Module &m, unsigned workers)
{
    interproc::CallGraph rcg(m, interproc::Precision::Refined, workers);
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

/** @p per_func's vectors, concatenated in function order. */
template <class Claim>
std::vector<Claim>
joinClaims(const std::vector<std::vector<Claim>> &per_func)
{
    size_t total = 0;
    for (const std::vector<Claim> &c : per_func)
        total += c.size();
    std::vector<Claim> claims;
    claims.reserve(total);
    for (const std::vector<Claim> &c : per_func)
        claims.insert(claims.end(), c.begin(), c.end());
    return claims;
}

/** Scan-and-fold until no window folds; records each application in
 * the coordinates of the body at the moment it is applied (claims in
 * one function are therefore sequential, which is exactly how the
 * checker replays them). Functions are folded on @p workers workers
 * and their claims joined in function order. */
std::vector<ConstFoldClaim>
findAndApplyConstFolds(Module &m, unsigned workers)
{
    const uint32_t n = m.numFunctions();
    std::vector<std::vector<ConstFoldClaim>> per_func(n);
    support::parallelFor(n, support::workerCount(workers, n), [&](size_t fi,
                                                                  unsigned) {
        const uint32_t f = static_cast<uint32_t>(fi);
        if (m.functions[f].imported())
            return;
        std::vector<Instr> &body = m.functions[f].body;
        std::vector<ConstFoldClaim> &claims = per_func[f];
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
    });
    return joinClaims(per_func);
}

// ----- dead-stores ---------------------------------------------------

std::vector<DeadStoreClaim>
findDeadStores(const Module &m, unsigned workers)
{
    const uint32_t n = m.numFunctions();
    std::vector<std::vector<DeadStoreClaim>> per_func(n);
    support::parallelFor(n, support::workerCount(workers, n), [&](size_t f,
                                                                  unsigned) {
        if (m.functions[f].imported())
            return;
        for (const passes::DeadStore &ds :
             passes::deadStores(m, static_cast<uint32_t>(f)))
            per_func[f].push_back(DeadStoreClaim{ds.func, ds.instr, ds.local});
    });
    return joinClaims(per_func);
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

} // namespace

const std::vector<std::string> &
allOptPasses()
{
    static const std::vector<std::string> kPasses{
        kPassCallIndirect, kPassConstFold, kPassDeadStores};
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
optimize(const Module &m, const std::vector<std::string> &passes,
         unsigned workers)
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
    if (requested(kPassCallIndirect)) {
        claims.passes.push_back(kPassCallIndirect);
        claims.directCalls = findDirectCalls(cur, workers);
        applyDirectCalls(cur, claims.directCalls);
    }
    if (requested(kPassConstFold)) {
        claims.passes.push_back(kPassConstFold);
        claims.constFolds = findAndApplyConstFolds(cur, workers);
    }
    if (requested(kPassDeadStores)) {
        claims.passes.push_back(kPassDeadStores);
        claims.deadStores = findDeadStores(cur, workers);
        applyDeadStores(cur, claims.deadStores);
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
    appendRows<4>(out, "directCalls", claims.directCalls);
    appendRows<4>(out, "constFolds", claims.constFolds);
    appendRows<3>(out, "deadStores", claims.deadStores);
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
            {"passes", "directCalls", "constFolds", "deadStores"},
            err) &&
        passes() &&
        readRows<4>(doc, "directCalls", claims.directCalls, err) &&
        readRows<4>(doc, "constFolds", claims.constFolds, err) &&
        readRows<3>(doc, "deadStores", claims.deadStores, err);
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
                  const OptClaims &claims, unsigned workers)
{
    Diagnostics ds;

    // The passes assume a valid module; the two-binary check reports
    // an invalid original with the same code.
    if (std::optional<std::string> err =
            wasm::validationError(original, workers)) {
        ds.error("check.input.invalid-original",
                 "original module does not validate: " + *err);
        return ds;
    }

    for (const std::string &p : claims.passes) {
        if (!isOptPass(p))
            ds.error("check.opt.unknown-pass",
                     "manifest lists unknown pass \"" + p + "\"");
    }
    // Claims for a pass the manifest does not list cannot have been
    // produced by that manifest's run — tamper evidence.
    if (!listed(claims, kPassCallIndirect) && !claims.directCalls.empty())
        ds.error("check.opt.orphan-claims",
                 "directCalls present but call-indirect not in passes");
    if (!listed(claims, kPassConstFold) && !claims.constFolds.empty())
        ds.error("check.opt.orphan-claims",
                 "constFolds present but const-fold not in passes");
    if (!listed(claims, kPassDeadStores) && !claims.deadStores.empty())
        ds.error("check.opt.orphan-claims",
                 "deadStores present but dead-stores not in passes");
    if (!ds.empty())
        return ds;

    Module replay = original;
    try {
        for (const std::string &pass : claims.passes) {
            if (pass == kPassCallIndirect) {
                interproc::CallGraph rcg(
                    replay, interproc::Precision::Refined, workers);
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
                auto key = [](const DeadStoreClaim &c) {
                    return std::tuple(c.func, c.instr, c.local);
                };
                std::vector<DeadStoreClaim> provable =
                    findDeadStores(replay, workers);
                std::ranges::sort(provable, {}, key);
                for (const DeadStoreClaim &c : claims.deadStores) {
                    if (!std::ranges::binary_search(provable, key(c), {},
                                                    key))
                        ds.error("check.opt.bad-dead-store",
                                 "local.set of local " +
                                     std::to_string(c.local) +
                                     " is not provably dead",
                                 c.func, c.instr);
                }
                if (!ds.empty())
                    return ds;
                applyDeadStores(replay, claims.deadStores);
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
    // claimed transforms. A module that validates decodes back from
    // its encoding (the validator enforces the decoder's limits), so
    // equal bytes decode to the replay itself and only a mismatch
    // needs the binary decoded.
    const bool identical = wasm::encodeModule(replay) == optimized_bytes;
    try {
        Module decoded;
        if (!identical)
            decoded = wasm::decodeModule(optimized_bytes, workers);
        if (std::optional<std::string> err = wasm::validationError(
                identical ? replay : decoded, workers))
            ds.error("check.opt.invalid-output",
                     "optimized binary fails validation: " + *err);
    } catch (const wasm::DecodeError &e) {
        ds.error("check.opt.invalid-output",
                 std::string("optimized binary fails to decode: ") +
                     e.what());
        return ds;
    }
    if (!identical)
        ds.error("check.opt.output-mismatch",
                 "optimized binary differs from the replayed transforms");
    return ds;
}

} // namespace wasabi::static_analysis::rewrite
