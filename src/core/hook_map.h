/**
 * @file
 * Low-level hook specifications and the on-demand monomorphization
 * hook map (paper §2.4.3).
 *
 * WebAssembly functions must have fixed, monomorphic types, while
 * several instructions are polymorphic (drop, select, call, return,
 * locals/globals). Wasabi therefore generates one monomorphic
 * low-level hook per (instruction kind, concrete type) combination
 * that actually occurs in the program. The HookMap deduplicates
 * these specs and assigns dense hook ids; it is shared across the
 * per-function instrumentation threads and guarded by a
 * readers/writer lock, mirroring the paper's implementation (§3).
 */

#ifndef WASABI_CORE_HOOK_MAP_H
#define WASABI_CORE_HOOK_MAP_H

#include <atomic>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hook_kind.h"
#include "wasm/opcode.h"
#include "wasm/types.h"

namespace wasabi::core {

/**
 * Identity of one monomorphic low-level hook. Per-opcode hooks
 * (const, unary, binary, load, store, local, global) are keyed by
 * their opcode; polymorphic hooks (drop/select/call/return) by their
 * concrete value types. Begin/end hooks are keyed by block kind.
 */
struct HookSpec {
    HookKind kind = HookKind::Nop;
    /** Opcode for per-opcode hooks; Opcode::Nop otherwise. */
    wasm::Opcode op = wasm::Opcode::Nop;
    /** Concrete types of the polymorphic hooks:
     *  drop/select: the value type; call (pre): parameter types;
     *  call post / return: result types. */
    std::vector<wasm::ValType> types;
    /** Call hooks: true for call_indirect (extra table-index param). */
    bool indirect = false;
    /** true for the call_post variant of HookKind::Call. */
    bool post = false;
    /** Block kind for begin/end hooks. */
    BlockKind block = BlockKind::Block;

    bool operator==(const HookSpec &other) const = default;
};

/** Import module of every low-level hook import: the instrumenter
 * declares hooks under it, and the runtime, the intrinsic engine and
 * `wasabi check` recognise hook imports by it. */
inline constexpr const char *kHookImportModule = "wasabi";

/**
 * Unique import name of the hook within kHookImportModule, e.g.
 * "i32.add", "drop_i64", "call_pre_i32_f64", "call_post_i32",
 * "begin_loop". Doubles as the deduplication key in the HookMap.
 */
std::string mangledName(const HookSpec &spec);

/**
 * Inverse of mangledName: reconstruct the HookSpec from a hook-import
 * name, or nullopt if the name is not a well-formed hook name. For
 * every spec the instrumenter can generate,
 * `parseHookName(mangledName(spec)) == spec`. Used by the static
 * checker (`wasabi check`) to recover hook identities from an
 * instrumented binary's import section.
 */
std::optional<HookSpec> parseHookName(const std::string &name);

/**
 * The low-level hook's function type. Every hook takes two leading
 * i32 parameters (the location: function and instruction index)
 * followed by its dynamic arguments; with @p split_i64, every i64
 * argument is passed as two i32s (low, high), since the paper's hooks
 * live in JavaScript which cannot receive i64 values (§2.4.6).
 * Hooks never return values.
 */
wasm::FuncType lowLevelType(const HookSpec &spec, bool split_i64);

/**
 * Thread-safe map from HookSpec to dense hook id. getOrAdd takes a
 * shared lock for the (common) hit case and upgrades to an exclusive
 * lock only to insert — the paper's "upgradeable multiple
 * readers/single writer lock" on the monomorphization map.
 */
class HookMap {
  public:
    /** Lock-contention counters of the shared map (observability):
     * a hit resolves under the shared lock, a miss upgrades to the
     * exclusive lock, an insert actually created a new hook there
     * (misses > inserts means another thread won the race). */
    struct Stats {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t inserts = 0;
    };

    /** Id of the hook for @p spec, creating it on demand. */
    uint32_t getOrAdd(const HookSpec &spec);

    /** Number of hooks created so far. */
    uint32_t size() const;

    /** Snapshot of all specs, indexed by hook id. */
    std::vector<HookSpec> specs() const;

    /** Snapshot of the hit/miss/insert counters. */
    Stats stats() const;

  private:
    mutable std::shared_mutex mutex_;
    std::unordered_map<std::string, uint32_t> byName_;
    std::vector<HookSpec> specs_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> inserts_{0};
};

} // namespace wasabi::core

#endif // WASABI_CORE_HOOK_MAP_H
