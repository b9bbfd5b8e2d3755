/**
 * @file
 * StaticInfo construction for the engine-intrinsic instrumentation
 * mode (DESIGN.md §12). The module is left untouched, `hooks` stays
 * empty (there are no low-level hook imports in intrinsic mode) and
 * so do the side tables: the fast engine resolves branch targets,
 * br_table entries and ended blocks itself when it translates a
 * function, so nothing in this mode reads brTargets, brTables or
 * blockEnds.
 */

#ifndef WASABI_CORE_INTRINSIC_INFO_H
#define WASABI_CORE_INTRINSIC_INFO_H

#include <memory>

#include "core/hook_kind.h"
#include "core/static_info.h"
#include "wasm/module.h"

namespace wasabi::core {

/**
 * Build the static info an intrinsic-mode run of @p m with hook set
 * @p kinds needs: `instrumentedHooks` set to @p kinds and @p m itself
 * as the original module (shared, not copied). @p m must validate.
 */
std::shared_ptr<StaticInfo>
buildIntrinsicInfo(std::shared_ptr<const wasm::Module> m, HookSet kinds);

/** Convenience: as above, on a copy of @p m. */
std::shared_ptr<StaticInfo> buildIntrinsicInfo(const wasm::Module &m,
                                               HookSet kinds);

} // namespace wasabi::core

#endif // WASABI_CORE_INTRINSIC_INFO_H
