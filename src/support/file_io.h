/**
 * @file
 * Checked file I/O shared by the CLI, the benches, and the serve
 * daemon.
 *
 * Two failure classes historically went undetected here:
 *
 *  - Writers opened the stream, wrote, and never looked at the stream
 *    state again. On a full disk (ENOSPC) or an I/O error (EIO) the
 *    artifact — an instrumented binary, a manifest, a profile, a
 *    bench JSON — was silently truncated while the tool printed
 *    success and exited 0. Every writer below checks the stream after
 *    write *and* after close (close flushes the tail of the buffer,
 *    so a short write can surface only there) and throws IoError.
 *
 *  - Readers treated "opened" as "is a readable file". On Linux,
 *    opening a directory with std::ifstream succeeds and reads zero
 *    bytes, so `wasabi run some/dir` surfaced as a baffling WAT parse
 *    error on empty input. readBinaryFile stats the path first and
 *    reports "is a directory" / "not a regular file" precisely.
 *
 * IoError derives from std::runtime_error, so existing catch blocks
 * (the CLI's exit-1 handler) keep working; callers that want the
 * structured code can catch IoError explicitly.
 */

#ifndef WASABI_SUPPORT_FILE_IO_H
#define WASABI_SUPPORT_FILE_IO_H

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace wasabi::support {

/** A failed file read or write, with the path and a stable
 * machine-checkable code ("io.read" / "io.write" / "io.short-write"). */
class IoError : public std::runtime_error {
  public:
    IoError(std::string code, std::string path, const std::string &detail)
        : std::runtime_error(code + ": " + path + ": " + detail),
          code_(std::move(code)), path_(std::move(path))
    {
    }

    const std::string &code() const { return code_; }
    const std::string &path() const { return path_; }

  private:
    std::string code_;
    std::string path_;
};

/**
 * Read a whole regular file. Throws IoError("io.read") with a precise
 * diagnostic when the path does not exist, is a directory (which an
 * ifstream would happily "open" and read 0 bytes from), is not a
 * regular file, or the read fails mid-way.
 */
inline std::vector<uint8_t>
readBinaryFile(const std::string &path)
{
    struct ::stat st {};
    if (::stat(path.c_str(), &st) != 0)
        throw IoError("io.read", path, std::strerror(errno));
    if (S_ISDIR(st.st_mode))
        throw IoError("io.read", path,
                      "is a directory, not a file");
    if (!S_ISREG(st.st_mode))
        throw IoError("io.read", path,
                      "not a regular file");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw IoError("io.read", path, "cannot open");
    // One bulk read of the size stat reported. The file may have
    // changed since: a short read means it shrank, and whatever is
    // left after the full size means it grew.
    std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<size_t>(in.gcount()));
    char tail[4096];
    while (in) {
        in.read(tail, sizeof tail);
        bytes.insert(bytes.end(), tail, tail + in.gcount());
    }
    if (in.bad())
        throw IoError("io.read", path, "read error");
    return bytes;
}

namespace detail {

/** Write @p n bytes and verify the stream survived write + flush +
 * close; @p what names the failure mode in the diagnostic. */
inline void
writeAllChecked(const std::string &path, const char *data, size_t n)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw IoError("io.write", path, "cannot open for writing");
    out.write(data, static_cast<std::streamsize>(n));
    out.flush();
    bool ok = out.good();
    out.close(); // close can flush the buffer tail: re-check below
    ok = ok && !out.fail();
    if (!ok)
        throw IoError("io.short-write", path,
                      "write failed (disk full or I/O error) — file "
                      "is missing or incomplete");
}

} // namespace detail

/** Write @p bytes to @p path, failing loudly on any short write. */
inline void
writeBinaryFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    detail::writeAllChecked(
        path, reinterpret_cast<const char *>(bytes.data()), bytes.size());
}

/** Write @p text to @p path, failing loudly on any short write. */
inline void
writeTextFile(const std::string &path, const std::string &text)
{
    detail::writeAllChecked(path, text.data(), text.size());
}

/** How module bytes should be interpreted (see classifyModuleBytes). */
enum class ModuleBytesKind {
    WasmBinary, ///< starts with the full \\0asm magic
    WatText,    ///< plausible text — hand to the WAT parser
};

/**
 * Decide whether @p bytes are a wasm binary or WAT text, throwing
 * IoError("io.module") with a precise diagnostic for inputs that are
 * clearly neither: empty files, binaries truncated inside the magic
 * or the version word, and NUL-leading garbage. Historically all of
 * these fell through to the WAT parser and surfaced as a baffling
 * "parse error at byte 0" instead of naming the real problem.
 * @p origin labels the input (a path, or e.g. "<request>") in the
 * diagnostic.
 */
inline ModuleBytesKind
classifyModuleBytes(const std::vector<uint8_t> &bytes,
                    const std::string &origin)
{
    static constexpr uint8_t kMagic[4] = {0x00, 0x61, 0x73, 0x6D};
    if (bytes.empty())
        throw IoError("io.module", origin,
                      "empty file — not a WebAssembly module");
    size_t prefix = 0;
    while (prefix < bytes.size() && prefix < 4 &&
           bytes[prefix] == kMagic[prefix])
        ++prefix;
    if (prefix == 4) {
        if (bytes.size() < 8)
            throw IoError("io.module", origin,
                          "truncated WebAssembly binary (" +
                              std::to_string(bytes.size()) +
                              " bytes — magic present but version "
                              "missing)");
        return ModuleBytesKind::WasmBinary;
    }
    if (prefix == bytes.size()) // proper prefix of the magic
        throw IoError("io.module", origin,
                      "truncated WebAssembly binary (" +
                          std::to_string(bytes.size()) +
                          " bytes — file ends inside the \\0asm "
                          "magic)");
    if (bytes[0] == 0x00)
        throw IoError("io.module", origin,
                      "not a WebAssembly binary (bad magic) and not "
                      "WAT text (leading NUL byte)");
    return ModuleBytesKind::WatText;
}

} // namespace wasabi::support

#endif // WASABI_SUPPORT_FILE_IO_H
