#include "serve/module_cache.h"

#include "core/intrinsic_info.h"
#include "support/module_io.h"
#include "wasm/validator.h"

namespace wasabi::serve {

uint64_t
contentHash(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::shared_ptr<const core::StaticInfo>
CachedModule::intrinsicInfo(core::HookSet kinds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[set, info] : infos_) {
        if (set == kinds)
            return info;
    }
    std::shared_ptr<const core::StaticInfo> info =
        core::buildIntrinsicInfo(module_, kinds);
    infos_.emplace_back(kinds, info);
    return info;
}

size_t
CachedModule::infoCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return infos_.size();
}

std::shared_ptr<CachedModule>
ModuleCache::find(uint64_t hash, const std::vector<uint8_t> &bytes) const
{
    auto [first, last] = entries_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
        if (it->second->bytes() == bytes)
            return it->second;
    }
    return nullptr;
}

std::shared_ptr<CachedModule>
ModuleCache::acquire(const std::vector<uint8_t> &bytes,
                     const std::string &origin, bool *hit)
{
    uint64_t hash = contentHash(bytes);
    if (hit)
        *hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (std::shared_ptr<CachedModule> e = find(hash, bytes)) {
            ++hits_;
            if (hit)
                *hit = true;
            return e;
        }
    }
    // Decode + validate outside the lock: a slow module upload must
    // not stall unrelated tenants' cache hits. A racing identical
    // request may decode twice; the second insert loses gracefully.
    wasm::Module m;
    try {
        m = support::loadModuleFromBytes(bytes, origin);
    } catch (const support::IoError &) {
        throw;
    } catch (const std::exception &e) {
        // Decode/WAT-parse failures become the same structured module
        // error family as truncation diagnostics.
        throw support::IoError("io.module", origin, e.what());
    }
    if (auto err = wasm::validationError(m))
        throw support::IoError("io.module", origin,
                               "invalid module: " + *err);
    auto entry = std::make_shared<CachedModule>(
        hash, bytes, std::make_shared<const wasm::Module>(std::move(m)));
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::shared_ptr<CachedModule> e = find(hash, bytes)) {
        ++hits_; // the racing decoder won; share its entry
        if (hit)
            *hit = true;
        return e;
    }
    entries_.emplace(hash, entry);
    ++misses_;
    return entry;
}

size_t
ModuleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace wasabi::serve
