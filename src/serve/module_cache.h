/**
 * @file
 * The serve daemon's content-hash module cache (DESIGN.md §13): one
 * decoded, validated, immutably shared `wasm::Module` per distinct
 * byte string, plus the lazily built per-hook-set static facts
 * (`core::StaticInfo`) intrinsic-mode requests need. A second request
 * for the same bytes skips decode, validation, and static-info
 * construction entirely — pinned by the hit/miss counters surfaced in
 * the serve metrics.
 *
 * Keying is by content, not by path: two tenants uploading the same
 * module share one entry, and a file changing under a stable path
 * misses cleanly. FNV-1a over the raw bytes finds the candidates, and
 * a hit also needs the entry's bytes to be equal: FNV-1a is not
 * collision-resistant, so two different modules with equal hashes get
 * separate entries. Entries are retained for the daemon's lifetime
 * (modules are small relative to the translation state they unlock;
 * an eviction policy can be added without changing the interface).
 */

#ifndef WASABI_SERVE_MODULE_CACHE_H
#define WASABI_SERVE_MODULE_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hook_kind.h"
#include "core/static_info.h"
#include "wasm/module.h"

namespace wasabi::serve {

/** FNV-1a over @p bytes — the cache's bucket key (and the hash the
 * `analyze` reply reports). */
uint64_t contentHash(const std::vector<uint8_t> &bytes);

/**
 * One cached module: the shared immutable AST plus its per-hook-set
 * static facts. Thread-safe; handed out as a shared_ptr so in-flight
 * requests keep their entry alive independent of the cache.
 */
class CachedModule {
  public:
    CachedModule(uint64_t hash, std::vector<uint8_t> bytes,
                 std::shared_ptr<const wasm::Module> module)
        : hash_(hash), bytes_(std::move(bytes)), module_(std::move(module))
    {
    }

    uint64_t hash() const { return hash_; }

    /** The module bytes the entry was decoded from (its identity). */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    const std::shared_ptr<const wasm::Module> &module() const
    {
        return module_;
    }

    /**
     * Static facts for an intrinsic-mode run with @p kinds: built on
     * first use, shared by every later request with the same hook set
     * (analyses with equal hook requirements — e.g. repeated `run
     * --analysis=mix` — hit this cache even across tenants).
     */
    std::shared_ptr<const core::StaticInfo> intrinsicInfo(core::HookSet kinds);

    /** Distinct hook sets whose static facts have been built. */
    size_t infoCount() const;

  private:
    const uint64_t hash_;
    const std::vector<uint8_t> bytes_;
    const std::shared_ptr<const wasm::Module> module_;

    mutable std::mutex mutex_;
    /** Linear by HookSet equality — the live set is tiny (one entry
     * per distinct analysis hook requirement). */
    std::vector<std::pair<core::HookSet,
                          std::shared_ptr<const core::StaticInfo>>>
        infos_;
};

/** Content-keyed cache of decoded + validated modules. Thread-safe. */
class ModuleCache {
  public:
    /**
     * Entry for @p bytes: decoded (binary or WAT, with the same
     * precise truncation diagnostics as the CLI), validated, and
     * name-section-applied on miss; returned as-is on hit (equal
     * bytes, not only an equal hash). @p origin
     * labels diagnostics (a path or "<request>"). @p hit, when
     * non-null, reports whether the entry was served from cache.
     * @throws support::IoError ("io.module") on undecodable or
     * invalid bytes.
     */
    std::shared_ptr<CachedModule> acquire(const std::vector<uint8_t> &bytes,
                                          const std::string &origin,
                                          bool *hit = nullptr);

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    size_t size() const;

  private:
    /** The entry holding @p bytes, or null. Caller holds mutex_. */
    std::shared_ptr<CachedModule> find(uint64_t hash,
                                       const std::vector<uint8_t> &bytes)
        const;

    mutable std::mutex mutex_;
    /** Entries by contentHash(); colliding modules share a hash. */
    std::unordered_multimap<uint64_t, std::shared_ptr<CachedModule>>
        entries_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace wasabi::serve

#endif // WASABI_SERVE_MODULE_CACHE_H
