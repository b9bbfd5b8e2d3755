/**
 * @file
 * LEB128 variable-length integer encoding and decoding, as used
 * throughout the WebAssembly binary format.
 */

#ifndef WASABI_WASM_LEB128_H
#define WASABI_WASM_LEB128_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace wasabi::wasm {

/** Error thrown when decoding malformed binary input. */
class DecodeError : public std::runtime_error {
  public:
    explicit DecodeError(const std::string &what)
        : std::runtime_error("decode error: " + what)
    {
    }
};

/** Append an unsigned LEB128 encoding of @p value to @p out. */
void encodeULEB(std::vector<uint8_t> &out, uint64_t value);

/** Append a signed LEB128 encoding of @p value to @p out. */
void encodeSLEB(std::vector<uint8_t> &out, int64_t value);

/** Number of bytes encodeULEB writes for @p value. */
constexpr size_t
ulebSize(uint64_t value)
{
    size_t n = 1;
    while (value >>= 7)
        ++n;
    return n;
}

/**
 * A bounds-checked byte cursor over an input buffer, with LEB128 and
 * fixed-width primitives. All read methods throw DecodeError on
 * truncated or malformed input.
 */
class ByteReader {
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    size_t pos() const { return pos_; }
    size_t size() const { return size_; }
    bool done() const { return pos_ >= size_; }
    size_t remaining() const { return size_ - pos_; }

    uint8_t readByte();
    /** Peek at the next byte without consuming it. */
    uint8_t peekByte() const;
    void readBytes(uint8_t *dst, size_t n);
    std::vector<uint8_t> readBytes(size_t n);
    /** Advance @p n bytes without copying them. */
    void skip(size_t n);
    /** The unread bytes (remaining() of them). */
    const uint8_t *cursor() const { return data_ + pos_; }

    /** Unsigned LEB128, at most @p max_bits significant bits. */
    uint64_t readULEB(int max_bits = 32);
    uint32_t readU32() { return static_cast<uint32_t>(readULEB(32)); }

    /** Signed LEB128, at most @p max_bits significant bits. */
    int64_t readSLEB(int max_bits = 32);
    int32_t readS32() { return static_cast<int32_t>(readSLEB(32)); }
    int64_t readS64() { return readSLEB(64); }

    /** Little-endian fixed-width reads (f32/f64 payloads). @{ */
    uint32_t readFixedU32();
    uint64_t readFixedU64();
    /** @} */

    /** Length-prefixed UTF-8 name. */
    std::string readName();

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace wasabi::wasm

#endif // WASABI_WASM_LEB128_H
