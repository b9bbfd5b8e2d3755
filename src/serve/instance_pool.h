/**
 * @file
 * Warmed-instance pool for the serve daemon (DESIGN.md §13). A cold
 * request instantiates (segments applied, start function run) and
 * immediately snapshots the post-start state; on release the snapshot
 * is restored, the intrinsic sink is parked (nulled), and the
 * instance is parked for reuse. A warm request therefore gets an
 * instance whose fast-engine translation cache — the expensive part —
 * is already populated: when its hook-kind set matches the previous
 * tenant's, attaching the new runtime is a sink-pointer swap and zero
 * re-translation (pinned by CompiledModule::translationsPerformed()).
 *
 * Leases are exclusive: an instance is either parked in the pool or
 * owned by exactly one request, so no instance state is ever shared
 * across threads. The pool itself is thread-safe.
 */

#ifndef WASABI_SERVE_INSTANCE_POOL_H
#define WASABI_SERVE_INSTANCE_POOL_H

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "interp/instance.h"
#include "serve/module_cache.h"

namespace wasabi::serve {

class InstancePool;

/**
 * An exclusively leased instance. Move-only; hand it back with
 * InstancePool::release() (or let it drop — a destroyed lease
 * discards the instance rather than pooling it, the safe default for
 * instances in unknown state).
 */
struct InstanceLease {
    std::unique_ptr<interp::Instance> instance;
    /** Post-start state to restore on release. */
    interp::InstanceSnapshot snapshot;
    /** True when the instance came warm from the pool. */
    bool warm = false;
};

class InstancePool {
  public:
    /**
     * Lease an instance of @p entry's module: a parked warm one when
     * available, otherwise freshly instantiated (imports resolved
     * against an empty linker; start function runs) and snapshotted.
     * @throws interp::LinkError / interp::Trap as instantiation does.
     */
    InstanceLease acquire(const CachedModule &entry);

    /**
     * Restore @p lease's snapshot (memory shrunk back, globals and
     * table rewound, fuel and quotas cleared), park the intrinsic
     * sink, and return the instance to the pool. The caller's runtime
     * may be destroyed immediately afterwards — the parked instance
     * holds no live reference to it.
     */
    void release(InstanceLease lease);

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

    /** Parked instances of @p entry's module (tests/metrics). */
    size_t parkedCount(const CachedModule &entry) const;

  private:
    struct Parked {
        std::unique_ptr<interp::Instance> instance;
        interp::InstanceSnapshot snapshot;
    };

    mutable std::mutex mutex_;
    /** Parked instances by the cache entry's module, not by its hash
     * (colliding modules must not share instances). A parked instance
     * keeps its module alive, so the key is never reused meanwhile. */
    std::unordered_map<const wasm::Module *, std::vector<Parked>> parked_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace wasabi::serve

#endif // WASABI_SERVE_INSTANCE_POOL_H
