#include "core/intrinsic_info.h"

namespace wasabi::core {

std::shared_ptr<StaticInfo>
buildIntrinsicInfo(std::shared_ptr<const wasm::Module> m, HookSet kinds)
{
    auto info = std::make_shared<StaticInfo>();
    info->numOrigImports = m->numImportedFunctions();
    info->splitI64 = false; // engine values never cross an i32 ABI
    info->instrumentedHooks = kinds;
    info->original = std::move(m);
    return info;
}

std::shared_ptr<StaticInfo>
buildIntrinsicInfo(const wasm::Module &m, HookSet kinds)
{
    return buildIntrinsicInfo(std::make_shared<const wasm::Module>(m),
                              kinds);
}

} // namespace wasabi::core
