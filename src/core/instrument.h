/**
 * @file
 * The Wasabi binary instrumenter (paper §2.4): rewrites a module so
 * that every instruction covered by the requested hook set is
 * interleaved with calls to imported low-level analysis hooks.
 *
 * Properties, mirroring the paper:
 *  - selective: only instruction kinds in the HookSet are instrumented
 *    (§2.4.2); instrumentations of different kinds are independent;
 *  - on-demand monomorphization of polymorphic hooks (§2.4.3);
 *  - relative branch labels resolved to absolute locations (§2.4.4);
 *  - explicit end-hook calls for blocks traversed by br/br_if/return,
 *    and runtime-selected side tables for br_table (§2.4.5);
 *  - i64 values split into two i32s at the hook boundary (§2.4.6);
 *  - functions can be instrumented in parallel; the shared hook map is
 *    guarded by a readers/writer lock (§3). Each worker encodes its
 *    function straight to bytes, so no typed IR of the output exists;
 *  - the original memory behavior is untouched: inserted code uses
 *    fresh locals only, never the program's linear memory.
 */

#ifndef WASABI_CORE_INSTRUMENT_H
#define WASABI_CORE_INSTRUMENT_H

#include <memory>

#include "core/static_info.h"

namespace wasabi::core {

/** Configuration of one instrumentation run. */
struct InstrumentOptions {
    /** Split i64 hook arguments into (low, high) i32 pairs, as the
     * paper must for JavaScript hooks. Turning this off is the
     * "native i64 ABI" ablation. */
    bool splitI64 = true;

    /** Number of worker threads instrumenting functions in parallel
     * (1 = sequential, 0 = one per CPU, support::workerCount). The
     * output is byte-identical for any count. */
    unsigned numThreads = 1;
};

/**
 * Instrumentation-phase metrics, always collected (the counters are
 * per-worker and the clock is read twice per function, so the
 * overhead is unmeasurable). The observability layer
 * (`src/obs/`) ingests this verbatim for `wasabi profile`.
 */
struct InstrumentStats {
    /** Wall time of the whole instrumentToBytes() call. */
    uint64_t wallNanos = 0;

    /** Wall time of its last step, the encoding of the output (part of
     * wallNanos): the stitch of the workers' bytes into the binary. */
    uint64_t encodeNanos = 0;

    /** One entry per worker thread of the parallel phase. */
    struct Worker {
        /** Functions this worker instrumented. */
        uint64_t functions = 0;
        /** Start of the worker's span (its first function), ns
         * relative to the call's entry (for trace-event rendering). */
        uint64_t startNanos = 0;
        /** Wall time of the worker's span, to the end of its last
         * function (0 for a worker that got none). */
        uint64_t nanos = 0;
    };
    std::vector<Worker> workers;

    /** Shared hook-map lock statistics (readers/writer lock, §3). */
    HookMap::Stats hookMap;

    /** Total defined functions instrumented (= Σ workers[i].functions,
     * deterministic for any thread count). */
    uint64_t functionsInstrumented = 0;

    /** Low-level hooks generated (on-demand monomorphization). */
    uint64_t hooksGenerated = 0;
};

/** Result: the instrumented binary plus its static info. */
struct InstrumentedBinary {
    std::vector<uint8_t> bytes;
    /** Its `original` is the module that was instrumented. Its side
     * tables are empty: a caller that reads them builds them with
     * sideTables(). */
    std::shared_ptr<StaticInfo> info;
    InstrumentStats stats;
};

/**
 * Instrument @p module for the hook kinds in @p hooks and encode the
 * result. The input module must be valid (validateModule); the output
 * validates and behaves identically apart from the inserted hook
 * calls. The input is not modified, and `info->original` shares it.
 *
 * Each worker encodes its functions straight to bytes, leaving every
 * call's function index out; once the workers joined, hook ids are
 * numbered and the bytes are stitched into the code section with the
 * resolved indices. No instrumented wasm::Module is ever built.
 */
InstrumentedBinary
instrumentToBytes(std::shared_ptr<const wasm::Module> module, HookSet hooks,
                  const InstrumentOptions &opts = {});

/** Result of instrument(): the instrumented module, decoded. */
struct InstrumentResult {
    wasm::Module module;
    std::shared_ptr<StaticInfo> info;
    InstrumentStats stats;
};

/**
 * instrumentToBytes() of a copy of @p module, decoded back into a
 * module, with `info`'s side tables filled (sideTables() on
 * `opts.numThreads` workers): what the runtime needs to drive
 * high-level hooks. Callers that only write the binary use
 * instrumentToBytes().
 */
InstrumentResult instrument(const wasm::Module &module, HookSet hooks,
                            const InstrumentOptions &opts = {});

} // namespace wasabi::core

#endif // WASABI_CORE_INSTRUMENT_H
