#include "serve/instance_pool.h"

#include "interp/engine/code.h"

namespace wasabi::serve {

InstanceLease
InstancePool::acquire(const CachedModule &entry)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = parked_.find(entry.module().get());
        if (it != parked_.end() && !it->second.empty()) {
            Parked p = std::move(it->second.back());
            it->second.pop_back();
            ++hits_;
            return InstanceLease{std::move(p.instance),
                                 std::move(p.snapshot), /*warm=*/true};
        }
    }
    // Cold path outside the lock: instantiation runs the start
    // function, which is arbitrary guest code.
    ++misses_;
    std::unique_ptr<interp::Instance> inst =
        interp::Instance::instantiate(entry.module(), interp::Linker());
    interp::InstanceSnapshot snap = inst->snapshot();
    return InstanceLease{std::move(inst), std::move(snap),
                         /*warm=*/false};
}

void
InstancePool::release(InstanceLease lease)
{
    if (!lease.instance)
        return;
    lease.instance->restore(lease.snapshot);
    // Park the sink but keep the attached kind set and translations:
    // the next tenant with the same hook requirements re-attaches by
    // swapping the sink pointer back in (CompiledModule::
    // setIntrinsicHooks' same-set fast path).
    lease.instance->engineCode().setIntrinsicSink(nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const wasm::Module *key = &lease.instance->module();
    parked_[key].push_back(
        Parked{std::move(lease.instance), std::move(lease.snapshot)});
}

size_t
InstancePool::parkedCount(const CachedModule &entry) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = parked_.find(entry.module().get());
    return it == parked_.end() ? 0 : it->second.size();
}

} // namespace wasabi::serve
