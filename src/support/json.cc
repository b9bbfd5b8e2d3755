#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wasabi::json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::optional<uint64_t>
Value::asUInt(uint64_t max) const
{
    // 2^64 is the first double past the uint64 range.
    if (kind != Kind::Number || !(number >= 0) ||
        number >= 18446744073709551616.0 || std::trunc(number) != number)
        return std::nullopt;
    uint64_t v = static_cast<uint64_t>(number);
    if (v > max)
        return std::nullopt;
    return v;
}

namespace {

class Parser {
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<Value>
    run()
    {
        Value v;
        if (!parseValue(v, 0))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return v;
    }

  private:
    /** Nesting beyond this is rejected (stack-overflow guard). */
    static constexpr int kMaxDepth = 64;

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    fail(const std::string &what)
    {
        if (error_ && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    bool
    expect(char c)
    {
        if (peek() != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (peek() != *p)
                return fail(std::string("bad literal (expected ") +
                            word + ")");
            ++pos_;
        }
        return true;
    }

    /** Read exactly four hex digits into @p cp. */
    bool
    hex4(unsigned &cp)
    {
        cp = 0;
        for (int i = 0; i < 4; ++i) {
            char h = peek();
            if (!std::isxdigit(static_cast<unsigned char>(h)))
                return fail("bad \\u escape");
            cp = cp * 16 +
                 static_cast<unsigned>(h <= '9' ? h - '0'
                                               : (h | 0x20) - 'a' + 10);
            ++pos_;
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xDC00 && cp <= 0xDFFF)
                    return fail("lone low surrogate in \\u escape");
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // A high surrogate must be immediately followed by
                    // a \uDC00-\uDFFF low surrogate; together they
                    // encode one supplementary-plane code point.
                    if (peek() != '\\' || pos_ + 1 >= text_.size() ||
                        text_[pos_ + 1] != 'u')
                        return fail("lone high surrogate in \\u escape");
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("high surrogate not followed by a "
                                    "low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                }
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else if (cp < 0x10000) {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xF0 | (cp >> 18));
                    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(Value &out)
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("expected a digit");
        // JSON forbids leading zeros: the integer part is either a
        // lone "0" or starts with 1-9.
        bool leading_zero = peek() == '0';
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (leading_zero && pos_ - start > (text_[start] == '-' ? 2u : 1u))
            return fail("leading zero in number");
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("expected a fraction digit");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("expected an exponent digit");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        out.kind = Value::Kind::Number;
        out.number = std::strtod(text_.c_str() + start, nullptr);
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        switch (peek()) {
          case '{': {
            ++pos_;
            out.kind = Value::Kind::Object;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.object.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                return expect('}');
            }
          }
          case '[': {
            ++pos_;
            out.kind = Value::Kind::Array;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.array.push_back(std::move(v));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                return expect(']');
            }
          }
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.str);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = Value::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace

std::optional<Value>
parse(const std::string &text, std::string *error)
{
    if (error)
        error->clear();
    return Parser(text, error).run();
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace wasabi::json
