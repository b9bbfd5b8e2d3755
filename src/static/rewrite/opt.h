/**
 * @file
 * `wasabi opt`: analysis-proven binary transforms, each with a
 * machine-checkable claim trail.
 *
 * Passes (always applied in this fixed order):
 *  - "call-indirect": rewrite `call_indirect` sites the refined
 *    interprocedural call graph resolves to a unique target (constant
 *    index, exact non-host-visible table layout) into `drop` + direct
 *    `call`.
 *  - "const-fold": peephole-fold adjacent provably-constant i32
 *    sequences ([const, unop], [const, const, binop],
 *    [const, const, const, select]) into a single `i32.const`,
 *    reusing the constprop lattice's fold semantics (trapping inputs
 *    are never folded).
 *  - "dead-stores": rewrite `local.set` instructions whose value the
 *    backward liveness pass proves unread into `drop`.
 *
 * Every transform edits function bodies in place; none adds, deletes
 * or renumbers a module entity, so no index fixup is needed.
 *
 * Every transform is recorded as a claim in the coordinates of the
 * module *as it was at the start of that pass*; the claim set
 * serializes to a JSON manifest ("wasabi-opt-manifest"), and
 * checkOptimization() re-proves each claim by replaying the pass
 * pipeline on the original module — re-deriving the licensing fact,
 * verifying the claim against it, applying the claimed edit — and
 * finally requiring the replayed encoding to be byte-identical to the
 * shipped optimized binary. A manifest that claims anything the facts
 * do not prove, or a binary that differs from the claims, fails with
 * a stable check.opt.* diagnostic.
 */

#ifndef WASABI_STATIC_REWRITE_OPT_H
#define WASABI_STATIC_REWRITE_OPT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "static/diagnostics.h"
#include "support/json.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::rewrite {

/** Structured optimizer failure with a stable dotted code, e.g.
 * "opt.unknown-pass". */
class RewriteError : public std::runtime_error {
  public:
    RewriteError(std::string code, const std::string &what)
        : std::runtime_error("rewrite error [" + code + "]: " + what),
          code_(std::move(code))
    {
    }

    const std::string &code() const { return code_; }

  private:
    std::string code_;
};

/** One call_indirect -> direct call rewrite. `func`/`instr` locate
 * the call_indirect in the pass-input module; `typeIdx` is its type
 * immediate (re-checked), `target` the proven unique callee. */
struct DirectCallClaim {
    uint32_t func = 0;
    uint32_t instr = 0;
    uint32_t typeIdx = 0;
    uint32_t target = 0;
};

/** One constant fold: body[first .. first+count) of `func` evaluates
 * to the single constant `value`. Claims within one function are
 * sequential — each one's coordinates refer to the body state after
 * the previous claims in that function were applied. */
struct ConstFoldClaim {
    uint32_t func = 0;
    uint32_t first = 0;
    uint32_t count = 0;
    uint32_t value = 0;
};

/** One dead `local.set` rewritten to `drop`. */
struct DeadStoreClaim {
    uint32_t func = 0;
    uint32_t instr = 0;
    uint32_t local = 0;
};

/** The full claim trail of one optimization run. */
struct OptClaims {
    /** Pass names in applied order (subset of allOptPasses()). */
    std::vector<std::string> passes;
    std::vector<DirectCallClaim> directCalls;
    std::vector<ConstFoldClaim> constFolds;
    std::vector<DeadStoreClaim> deadStores;

    size_t
    totalClaims() const
    {
        return directCalls.size() + constFolds.size() + deadStores.size();
    }
};

/** Result of optimize(). */
struct OptResult {
    wasm::Module module;
    OptClaims claims;
};

/** All pass names in canonical application order. */
const std::vector<std::string> &allOptPasses();

/** True if @p name is a known pass name. */
bool isOptPass(const std::string &name);

/**
 * Parse a `--passes=` style spec: "all" or "" selects every pass;
 * otherwise a comma-separated subset of allOptPasses(). Throws
 * RewriteError("opt.unknown-pass") naming the offending entry and
 * listing the valid pass names on any unknown or empty element.
 */
std::vector<std::string> parsePassSpec(const std::string &spec);

/**
 * Run the named passes (any subset of allOptPasses(), applied in
 * canonical order regardless of the order given) over validated
 * module @p m and return the optimized module plus its claim trail.
 * Each pass works on @p workers workers (support::workerCount; 0 =
 * one per CPU); the result is the same for any count. Throws
 * RewriteError on unknown pass names.
 */
OptResult optimize(const wasm::Module &m,
                   const std::vector<std::string> &passes,
                   unsigned workers = 1);

/** Serialize claims as a "wasabi-opt-manifest" JSON document. */
std::string claimsToManifest(const OptClaims &claims);

/**
 * Read a parsed manifest produced by claimsToManifest, appending to
 * @p claims (see static/manifest.h for the shared strictness rules).
 * Returns false and sets @p error on malformed input.
 */
bool claimsFromManifest(const json::Value &doc, OptClaims &claims,
                        std::string *error);

/** claimsFromManifest() over the parse of @p text. */
bool claimsFromManifest(const std::string &text, OptClaims &claims,
                        std::string *error);

/**
 * Re-prove every claim: replay the pass pipeline on @p original,
 * re-deriving each pass's licensing facts and verifying the claims
 * against them before applying, then require the replayed module to
 * encode byte-identically to @p optimized_bytes. The proofs run on
 * @p workers workers, as in optimize(); the report is the same for
 * any count. Diagnostics use stable codes:
 *  - check.input.invalid-original   (@p original fails validation)
 *  - check.opt.unknown-pass         (manifest lists an unknown pass)
 *  - check.opt.orphan-claims        (claims of a pass not listed)
 *  - check.opt.bad-call-target      (site not proved IndirectConst)
 *  - check.opt.bad-fold             (sequence does not fold to value)
 *  - check.opt.bad-dead-store       (store not proved dead)
 *  - check.opt.replay-failed        (claimed edit not applicable)
 *  - check.opt.invalid-output       (optimized binary fails validation)
 *  - check.opt.output-mismatch      (replayed bytes != optimized bytes)
 */
Diagnostics checkOptimization(const wasm::Module &original,
                              const std::vector<uint8_t> &optimized_bytes,
                              const OptClaims &claims,
                              unsigned workers = 1);

} // namespace wasabi::static_analysis::rewrite

#endif // WASABI_STATIC_REWRITE_OPT_H
