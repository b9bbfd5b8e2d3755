/**
 * @file
 * StaticInfo construction for the engine-intrinsic instrumentation
 * mode (DESIGN.md §13): the same branch-target / br_table / block-end
 * side tables the instrumenter records while rewriting, but computed
 * by a plain abstract-interpretation walk with no code emission — the
 * module is left untouched and `hooks` stays empty (there are no
 * low-level hook imports in intrinsic mode).
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
 * @p kinds needs: brTargets/brTables/blockEnds keyed by original
 * locations (recorded at the same sites, under the same liveness
 * rules, as `instrument()` records them), `instrumentedHooks` set to
 * @p kinds, and @p m itself as the original module (shared, not
 * copied). @p m must validate.
 */
std::shared_ptr<StaticInfo>
buildIntrinsicInfo(std::shared_ptr<const wasm::Module> m, HookSet kinds);

/** Convenience: as above, on a copy of @p m. */
std::shared_ptr<StaticInfo> buildIntrinsicInfo(const wasm::Module &m,
                                               HookSet kinds);

} // namespace wasabi::core

#endif // WASABI_CORE_INTRINSIC_INFO_H
