/**
 * @file
 * Module loading on top of the checked file I/O layer: bytes →
 * wasm::Module with content-based binary/WAT routing and precise
 * diagnostics for truncated or non-file inputs (file_io.h). Shared by
 * the CLI and the serve daemon so both report identical errors.
 */

#ifndef WASABI_SUPPORT_MODULE_IO_H
#define WASABI_SUPPORT_MODULE_IO_H

#include <string>
#include <vector>

#include "support/file_io.h"
#include "wasm/decoder.h"
#include "wasm/name_section.h"
#include "wasm/wat_parser.h"

namespace wasabi::support {

/**
 * Decode (binary) or parse (WAT) @p bytes into a Module, applying the
 * name section. @p origin labels diagnostics; a binary's function
 * bodies are decoded on @p workers workers (wasm::decodeModule).
 * @throws IoError for empty/truncated/garbage inputs,
 * wasm::DecodeError / wat parse errors for malformed-but-classified
 * ones.
 */
inline wasm::Module
loadModuleFromBytes(const std::vector<uint8_t> &bytes,
                    const std::string &origin, unsigned workers = 1)
{
    wasm::Module m;
    if (classifyModuleBytes(bytes, origin) == ModuleBytesKind::WasmBinary)
        m = wasm::decodeModule(bytes, workers);
    else
        m = wasm::parseWat(std::string(bytes.begin(), bytes.end()));
    wasm::applyNameSection(m);
    return m;
}

/** Load a module from a .wasm / .wat file (content-routed). */
inline wasm::Module
loadModuleFromFile(const std::string &path, unsigned workers = 1)
{
    return loadModuleFromBytes(readBinaryFile(path), path, workers);
}

} // namespace wasabi::support

#endif // WASABI_SUPPORT_MODULE_IO_H
