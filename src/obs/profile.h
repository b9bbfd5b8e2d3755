/**
 * @file
 * The observability subsystem (DESIGN.md §7): a ProfileCollector that
 * aggregates, across all three layers of the system,
 *
 *  - instrumentation-phase metrics from `core::instrument` (wall
 *    time, per-worker-thread function counts, hook-map lock
 *    hit/miss/insert counts) plus caller-timed phase spans
 *    (decode/instrument/encode/execute),
 *  - runtime hook-dispatch metrics from `WasabiRuntime::dispatch`
 *    (per-hook-kind counts and cumulative nanoseconds, attributed
 *    per registered analysis),
 *  - interpreter counters (instructions retired, calls, memory
 *    operations, traps),
 *
 * and renders them as a human text table, a stable versioned JSON
 * document (schema "wasabi-profile" version 1), or Chrome trace-event
 * JSON loadable in Perfetto/about:tracing (one track per
 * instrumentation worker thread plus one runtime hook track per
 * analysis).
 *
 * Cost model: the collector is attached behind nullable pointers and
 * an `enabled()` toggle; with profiling off the only per-dispatch
 * cost is one pointer test, and the interpreter counters are plain
 * increments on paths that already maintain `instructionsExecuted`.
 */

#ifndef WASABI_OBS_PROFILE_H
#define WASABI_OBS_PROFILE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/hook_kind.h"
#include "core/instrument.h"

namespace wasabi::obs {

/** Schema identity of the profile JSON (bump the version on any
 * incompatible change; additive optional fields do not bump it). */
inline constexpr const char *kProfileSchemaName = "wasabi-profile";
inline constexpr int kProfileSchemaVersion = 1;

/** Interpreter counters, fed from interp::Interpreter::stats(). */
struct InterpCounters {
    uint64_t instructions = 0; ///< instructions retired
    uint64_t calls = 0;        ///< call + call_indirect executed
    uint64_t memoryOps = 0;    ///< load/store/memory.size/memory.grow
    uint64_t traps = 0;        ///< traps propagated out of invoke()
};

/** One caller-timed wall-clock span (decode/instrument/encode/...). */
struct PhaseSpan {
    std::string name;
    uint64_t startNanos = 0; ///< relative to the collector's epoch
    uint64_t nanos = 0;
};

/**
 * Aggregating collector for one profiling session. Dispatch-side
 * mutators (addDispatch/addAnalysisHook) are called from the single
 * execution thread and are unsynchronized; phase/instrumentation
 * mutators take an internal mutex and may be called from any thread.
 */
class ProfileCollector {
  public:
    explicit ProfileCollector(bool enabled = true);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Monotonic nanoseconds since this collector was constructed. */
    uint64_t now() const;

    // ----- phase spans (timed by the caller, e.g. the CLI) -----------

    void recordPhase(const std::string &name, uint64_t start_nanos,
                     uint64_t nanos);

    /** RAII helper: times a scope and records it as a phase span. */
    class ScopedPhase {
      public:
        ScopedPhase(ProfileCollector *c, std::string name)
            : c_(c), name_(std::move(name)),
              start_(c && c->enabled() ? c->now() : 0)
        {
        }
        ~ScopedPhase()
        {
            if (c_ && c_->enabled())
                c_->recordPhase(name_, start_, c_->now() - start_);
        }
        ScopedPhase(const ScopedPhase &) = delete;
        ScopedPhase &operator=(const ScopedPhase &) = delete;

      private:
        ProfileCollector *c_;
        std::string name_;
        uint64_t start_;
    };

    // ----- instrumentation phase (core) ------------------------------

    void recordInstrumentation(const core::InstrumentStats &stats);

    /** How hooks reached the runtime: "rewrite" (binary-rewriting
     * instrumenter) or "intrinsic" (engine-intrinsified, DESIGN.md
     * §12). Optional in the schema; empty means unreported. */
    void setInstrumentMode(std::string mode);

    // ----- runtime dispatch ------------------------------------------

    /** Names of the registered analyses, index-aligned with the
     * runtime's analysis list (for per-analysis attribution). */
    void setAnalysisNames(std::vector<std::string> names);

    /** One low-level hook dispatch of @p kind took @p nanos total. */
    void addDispatch(core::HookKind kind, uint64_t nanos);

    /** One high-level hook callback of analysis @p analysis. */
    void addAnalysisHook(size_t analysis, core::HookKind kind,
                         uint64_t nanos);

    // ----- interpreter ------------------------------------------------

    void setInterpCounters(const InterpCounters &counters);

    // ----- queries (tests, assertions) --------------------------------

    uint64_t dispatchCount(core::HookKind kind) const;
    /** Σ over all kinds; equals WasabiRuntime::hookInvocations() when
     * the collector observed every dispatch. */
    uint64_t totalDispatches() const;

    // ----- reporters ---------------------------------------------------

    /** Human-readable text table. */
    std::string toText() const;

    /**
     * Versioned JSON document (schema "wasabi-profile" v1). With
     * @p deterministic, every timing is zeroed and the
     * thread-schedule-dependent subsections (phase spans, per-worker
     * spans, hook-map lock counters) are omitted, so two runs of the
     * same module + analysis agree byte-for-byte regardless of
     * instrumentation thread count.
     */
    std::string toJson(bool deterministic = false) const;

    /** Chrome trace-event JSON (ts/dur in microseconds): phase spans,
     * one track per instrumentation worker thread, and one aggregated
     * hook track for the runtime plus one per analysis. */
    std::string toChromeTrace() const;

  private:
    struct KindCounter {
        uint64_t count = 0;
        uint64_t nanos = 0;
    };
    using PerKind = std::array<KindCounter, core::kNumHookKinds>;

    struct AnalysisCounters {
        std::string name;
        PerKind perKind{};
    };

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_; ///< guards phases_ and instr_
    std::vector<PhaseSpan> phases_;
    std::optional<core::InstrumentStats> instr_;
    std::string instrumentMode_; ///< "" = unreported

    PerKind dispatch_{};
    std::vector<AnalysisCounters> analyses_;
    std::optional<InterpCounters> interp_;
};

/**
 * Validate @p json against the "wasabi-profile" v1 schema: required
 * schema/version header, known top-level sections only, correctly
 * shaped sections, valid hook-kind names, and per-kind dispatch
 * counts summing exactly to `runtime.hookInvocations`. Returns false
 * and fills @p error (if non-null) on the first violation.
 */
bool validateProfileJson(const std::string &json, std::string *error);

/** Structural validation of Chrome trace-event JSON: a top-level
 * object with a `traceEvents` array whose entries carry the required
 * `ph`/`name`/`pid` fields (and `ts` for non-metadata events). */
bool validateChromeTrace(const std::string &json, std::string *error);

} // namespace wasabi::obs

#endif // WASABI_OBS_PROFILE_H
