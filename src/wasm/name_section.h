/**
 * @file
 * Support for the standard "name" custom section: decoding function
 * names into Function::debugName and re-encoding them. Wasabi keeps
 * names across instrumentation so analyses can report human-readable
 * function names (e.g. the paper's Figure 2 `func_name(loc.func)`).
 *
 * Beyond the function-name shortcut, the full section is exposed as
 * structured NameSectionData (module name, function names, and the
 * local-/label-name subsections keyed by function index) so the
 * instrumenter can remap *all* subsections when function indices
 * shift, instead of silently dropping local and label names.
 */

#ifndef WASABI_WASM_NAME_SECTION_H
#define WASABI_WASM_NAME_SECTION_H

#include <optional>
#include <utility>

#include "wasm/module.h"

namespace wasabi::wasm {

/** Sentinel in a remapNameData() map: the old index has no new home. */
inline constexpr uint32_t kDeletedIndex = 0xFFFFFFFFu;

/**
 * Parse the "name" custom section of @p m (if present) and fill
 * Function::debugName for named functions. Returns the number of
 * function names applied. Unknown subsections are ignored, as the
 * spec requires. Malformed name payloads are ignored rather than
 * rejected (they are non-semantic).
 */
size_t applyNameSection(Module &m);

/**
 * Build (or replace) the "name" custom section from the module's
 * debugNames. Functions with empty debugName are omitted. If no
 * function has a name, any existing name section is removed.
 * Note: this keeps only function names; use setNameSection with
 * parsed NameSectionData to preserve local/label subsections.
 */
void buildNameSection(Module &m);

/** Best-effort human-readable name of a function: debug name, first
 * export name, or "f<idx>". */
std::string functionName(const Module &m, uint32_t func_idx);

// ---------------------------------------------------------------------
// Structured access to the full section (all standard subsections).

/** An index -> name association list, kept sorted by index. */
using NameMap = std::vector<std::pair<uint32_t, std::string>>;

/** Function index -> inner NameMap (locals or labels of that
 * function). Inner indices are opaque to remapNameData(): they refer
 * to locals (params first) or label positions *within* the function
 * and survive any edit that does not touch that function's
 * body/locals. */
using IndirectNameMap = std::vector<std::pair<uint32_t, NameMap>>;

/** Decoded "name" section: subsections 0 (module), 1 (functions),
 * 2 (locals), and 3 (labels). Unknown subsection ids are dropped on
 * re-encode (they are non-semantic and cannot be remapped safely). */
struct NameSectionData {
    std::optional<std::string> moduleName;
    NameMap funcNames;
    IndirectNameMap localNames;
    IndirectNameMap labelNames;

    bool
    empty() const
    {
        return !moduleName && funcNames.empty() && localNames.empty() &&
               labelNames.empty();
    }
};

/**
 * Parse the "name" custom section of @p m into structured form.
 * Best-effort: a malformed subsection is skipped, well-formed ones
 * before it are kept. Returns empty data when no section exists.
 */
NameSectionData parseNameSection(const Module &m);

/**
 * Replace the "name" custom section of @p m with a canonical encoding
 * of @p data (subsections in increasing id order, entries sorted by
 * index, canonical LEB128). Removes the section when @p data is
 * empty. parse -> set roundtrips byte-identically for sections this
 * encoder produced.
 */
void setNameSection(Module &m, const NameSectionData &data);

/**
 * Rewrite all function indices in @p data through @p func_map
 * (old index -> new index; wasm::kDeletedIndex drops the entry, as do
 * old indices >= func_map.size()). Entries of deleted functions are
 * removed from every subsection; surviving entries are re-sorted by
 * their new index. An empty map is the identity.
 */
void remapNameData(NameSectionData &data,
                   const std::vector<uint32_t> &func_map);

} // namespace wasabi::wasm

#endif // WASABI_WASM_NAME_SECTION_H
