/**
 * @file
 * Full WebAssembly MVP validation: module-level checks (index bounds,
 * import ordering, at most one table/memory, constant initializer
 * expressions) and the standard type-checking algorithm over function
 * bodies, including unreachable-code stack polymorphism.
 *
 * This is the repository's equivalent of WABT's wasm-validate, used by
 * the faithfulness experiments (RQ2) to check instrumented binaries.
 */

#ifndef WASABI_WASM_VALIDATOR_H
#define WASABI_WASM_VALIDATOR_H

#include <optional>
#include <stdexcept>
#include <string>

#include "wasm/module.h"

namespace wasabi::wasm {

/** Error thrown when a module fails validation. */
class ValidationError : public std::runtime_error {
  public:
    ValidationError(const std::string &what, uint32_t func_idx,
                    size_t instr_idx)
        : std::runtime_error("validation error (func " +
                             std::to_string(func_idx) + ", instr " +
                             std::to_string(instr_idx) + "): " + what),
          funcIdx(func_idx), instrIdx(instr_idx)
    {
    }

    /** Module-level error attributable to one function but no
     * particular instruction (e.g. a bad type index). */
    ValidationError(const std::string &what, uint32_t func_idx)
        : std::runtime_error("validation error (func " +
                             std::to_string(func_idx) + "): " + what),
          funcIdx(func_idx), instrIdx(0)
    {
    }

    explicit ValidationError(const std::string &what)
        : std::runtime_error("validation error: " + what), funcIdx(0),
          instrIdx(0)
    {
    }

    uint32_t funcIdx;
    size_t instrIdx;
};

/**
 * Validate a whole module; throws ValidationError on failure.
 * Function bodies are checked on @p workers workers
 * (support::workerCount; 0 = one per CPU); the error is the lowest
 * function's, whatever the count.
 */
void validateModule(const Module &m, unsigned workers = 1);

/**
 * Validate and return the error message instead of throwing;
 * nullopt means the module is valid.
 */
std::optional<std::string> validationError(const Module &m,
                                           unsigned workers = 1);

} // namespace wasabi::wasm

#endif // WASABI_WASM_VALIDATOR_H
