#include "wasm/leb128.h"

#include <cstring>

namespace wasabi::wasm {

void
encodeULEB(std::vector<uint8_t> &out, uint64_t value)
{
    do {
        uint8_t byte = value & 0x7F;
        value >>= 7;
        if (value != 0)
            byte |= 0x80;
        out.push_back(byte);
    } while (value != 0);
}

void
encodeSLEB(std::vector<uint8_t> &out, int64_t value)
{
    bool more = true;
    while (more) {
        uint8_t byte = value & 0x7F;
        value >>= 7; // arithmetic shift
        bool sign_bit = (byte & 0x40) != 0;
        if ((value == 0 && !sign_bit) || (value == -1 && sign_bit))
            more = false;
        else
            byte |= 0x80;
        out.push_back(byte);
    }
}

uint8_t
ByteReader::readByte()
{
    if (pos_ >= size_)
        throw DecodeError("unexpected end of input");
    return data_[pos_++];
}

uint8_t
ByteReader::peekByte() const
{
    if (pos_ >= size_)
        throw DecodeError("unexpected end of input (peek)");
    return data_[pos_];
}

void
ByteReader::readBytes(uint8_t *dst, size_t n)
{
    if (remaining() < n)
        throw DecodeError("unexpected end of input (bytes)");
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
}

void
ByteReader::skip(size_t n)
{
    if (remaining() < n)
        throw DecodeError("unexpected end of input (bytes)");
    pos_ += n;
}

std::vector<uint8_t>
ByteReader::readBytes(size_t n)
{
    std::vector<uint8_t> v(n);
    if (n > 0)
        readBytes(v.data(), n);
    return v;
}

uint64_t
ByteReader::readULEB(int max_bits)
{
    const int max_bytes = (max_bits + 6) / 7;
    uint64_t result = 0;
    int shift = 0;
    for (int i = 0; i < max_bytes; ++i) {
        uint8_t byte = readByte();
        // Significant bits of the last allowed byte must fit.
        int remaining = max_bits - shift;
        if (remaining < 7 && ((byte & 0x7F) >> remaining) != 0)
            throw DecodeError("ULEB128 value too large");
        result |= static_cast<uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return result;
        shift += 7;
    }
    throw DecodeError("ULEB128 too long");
}

int64_t
ByteReader::readSLEB(int max_bits)
{
    const int max_bytes = (max_bits + 6) / 7;
    int64_t result = 0;
    int shift = 0;
    for (int i = 0; i < max_bytes; ++i) {
        uint8_t byte = readByte();
        // In the last allowed byte only `r` bits carry value (the
        // topmost of them is the sign); the bits above must all equal
        // that sign bit, or the encoding smuggles in extra magnitude
        // (spec: "unused bits must be a sign extension").
        int r = max_bits - shift;
        if (r < 7) {
            uint8_t ext = static_cast<uint8_t>((byte & 0x7F) >> (r - 1));
            if (ext != 0 && ext != (0x7F >> (r - 1)))
                throw DecodeError("SLEB128 value too large");
        }
        if (shift < 64)
            result |= static_cast<int64_t>(byte & 0x7F) << shift;
        shift += 7;
        if ((byte & 0x80) == 0) {
            // Sign-extend from the last byte's sign bit.
            if (shift < 64 && (byte & 0x40))
                result |= static_cast<int64_t>(~uint64_t{0} << shift);
            return result;
        }
    }
    throw DecodeError("SLEB128 too long");
}

uint32_t
ByteReader::readFixedU32()
{
    uint8_t b[4];
    readBytes(b, 4);
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
        (static_cast<uint32_t>(b[2]) << 16) |
        (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t
ByteReader::readFixedU64()
{
    uint64_t lo = readFixedU32();
    uint64_t hi = readFixedU32();
    return lo | (hi << 32);
}

std::string
ByteReader::readName()
{
    uint32_t len = readU32();
    if (remaining() < len)
        throw DecodeError("name length exceeds input");
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

} // namespace wasabi::wasm
