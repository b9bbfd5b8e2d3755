/**
 * @file
 * Static resolution of the (at most one, MVP) function table's element
 * layout: which function occupies which slot after instantiation, and
 * whether that layout is exact enough to refine `call_indirect` sites.
 *
 * Rather than silently folding every segment into one function set,
 * this resolver reports structured diagnostics
 * (lint.table.* codes) for out-of-range function indices, overlapping
 * or duplicate segments, and non-constant offsets — and records
 * whether the table is host-visible (imported or exported), in which
 * case the host may mutate it via `Table.set` and no slot content is
 * trustworthy for narrowing.
 */

#ifndef WASABI_STATIC_INTERPROC_TABLE_LAYOUT_H
#define WASABI_STATIC_INTERPROC_TABLE_LAYOUT_H

#include <cstdint>
#include <optional>
#include <vector>

#include "static/diagnostics.h"
#include "wasm/module.h"

namespace wasabi::static_analysis::interproc {

/** Stable lint codes for element-segment findings. @{ */
inline constexpr const char *kLintTableFuncOutOfRange =
    "lint.table.func-out-of-range";
inline constexpr const char *kLintTableOverlap = "lint.table.overlap";
inline constexpr const char *kLintTableNonConstOffset =
    "lint.table.non-const-offset";
inline constexpr const char *kLintTableSegmentOutOfRange =
    "lint.table.segment-out-of-range";
/** @} */

/** The statically resolved element layout of table 0. */
struct TableLayout {
    /** The module declares a table. */
    bool hasTable = false;

    /** The table is imported or exported: the host can observe and
     * mutate it (`Table.get`/`Table.set`), so slot contents are not
     * trustworthy for call_indirect narrowing. */
    bool hostVisible = false;

    /** Every active segment had a constant in-range offset, so
     * `slots` is the exact post-instantiation layout. */
    bool exact = true;

    /** Slot -> defined/imported function index (nullopt = null entry).
     * Sized to the table's declared minimum; meaningful iff `exact`. */
    std::vector<std::optional<uint32_t>> slots;

    /** Every valid function index referenced by any segment (sorted,
     * deduplicated) — the conservative whole-table target set. */
    std::vector<uint32_t> segmentFuncs;

    /** Structured lint.table.* findings (never errors: a hostile or
     * unvalidated module degrades precision, not correctness). */
    Diagnostics diags;
};

/** Resolve the element layout of @p m (validated or not; invalid
 * segment data is diagnosed and dropped rather than trusted). */
TableLayout computeTableLayout(const wasm::Module &m);

} // namespace wasabi::static_analysis::interproc

#endif // WASABI_STATIC_INTERPROC_TABLE_LAYOUT_H
