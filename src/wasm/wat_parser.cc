#include "wasm/wat_parser.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <vector>

namespace wasabi::wasm {

namespace {

// =====================================================================
// S-expression reader.

struct SExpr {
    bool list = false;
    bool string = false;   ///< atom was a "quoted string" (decoded)
    std::string atom;      ///< atom text / decoded string bytes
    std::vector<SExpr> items;
    int line = 0;
    int col = 0;

    bool
    isAtom(const char *s) const
    {
        return !list && !string && atom == s;
    }

    /** True for a list whose head atom is @p s. */
    bool
    isForm(const char *s) const
    {
        return list && !items.empty() && items[0].isAtom(s);
    }
};

class Lexer {
  public:
    explicit Lexer(const std::string &text) : text_(text) {}

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ParseError(msg, line_, col());
    }

    SExpr
    parseAll()
    {
        SExpr root = parseOne();
        skipSpace();
        if (!done())
            fail("trailing input after module");
        return root;
    }

  private:
    bool done() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    int
    col() const
    {
        return static_cast<int>(pos_ - line_start_) + 1;
    }

    char
    advance()
    {
        char c = text_[pos_++];
        if (c == '\n') {
            ++line_;
            line_start_ = pos_;
        }
        return c;
    }

    void
    skipSpace()
    {
        while (!done()) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else if (c == ';' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == ';') {
                while (!done() && peek() != '\n')
                    advance();
            } else if (c == '(' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == ';') {
                advance();
                advance();
                int depth = 1;
                while (!done() && depth > 0) {
                    char d = advance();
                    if (d == '(' && !done() && peek() == ';') {
                        advance();
                        ++depth;
                    } else if (d == ';' && !done() && peek() == ')') {
                        advance();
                        --depth;
                    }
                }
                if (depth != 0)
                    fail("unterminated block comment");
            } else {
                return;
            }
        }
    }

    SExpr
    parseOne()
    {
        skipSpace();
        if (done())
            fail("unexpected end of input");
        SExpr e;
        e.line = line_;
        e.col = col();
        char c = peek();
        if (c == '(') {
            if (depth_ == kMaxWatNesting)
                fail("lists nested deeper than " +
                     std::to_string(kMaxWatNesting));
            advance();
            e.list = true;
            ++depth_;
            while (true) {
                skipSpace();
                if (done())
                    fail("unterminated list");
                if (peek() == ')') {
                    advance();
                    --depth_;
                    return e;
                }
                e.items.push_back(parseOne());
            }
        }
        if (c == '"') {
            advance();
            e.string = true;
            while (true) {
                if (done())
                    fail("unterminated string");
                char d = advance();
                if (d == '"')
                    return e;
                if (d == '\\') {
                    if (done())
                        fail("bad escape");
                    char esc = advance();
                    switch (esc) {
                      case 'n': e.atom += '\n'; break;
                      case 't': e.atom += '\t'; break;
                      case 'r': e.atom += '\r'; break;
                      case '\\': e.atom += '\\'; break;
                      case '"': e.atom += '"'; break;
                      case '\'': e.atom += '\''; break;
                      default: {
                        // two-digit hex escape
                        auto hex = [this](char h) -> int {
                            if (h >= '0' && h <= '9')
                                return h - '0';
                            if (h >= 'a' && h <= 'f')
                                return h - 'a' + 10;
                            if (h >= 'A' && h <= 'F')
                                return h - 'A' + 10;
                            fail("bad hex escape");
                        };
                        if (done())
                            fail("bad escape");
                        int v = hex(esc) * 16 + hex(advance());
                        e.atom += static_cast<char>(v);
                        break;
                      }
                    }
                } else {
                    e.atom += d;
                }
            }
        }
        // Plain atom: read until whitespace, paren or quote.
        while (!done()) {
            char d = peek();
            if (d == ' ' || d == '\t' || d == '\n' || d == '\r' ||
                d == '(' || d == ')' || d == '"' || d == ';') {
                break;
            }
            e.atom += advance();
        }
        if (e.atom.empty())
            fail("unexpected character");
        return e;
    }

    const std::string &text_;
    size_t pos_ = 0;
    int line_ = 1;
    size_t line_start_ = 0;
    size_t depth_ = 0; ///< lists open around the current position
};

// =====================================================================
// Numbers.

[[noreturn]] void
failAt(const SExpr &e, const std::string &msg)
{
    throw ParseError(msg + " (got '" + (e.list ? "(...)" : e.atom) + "')",
                     e.line, e.col);
}

std::string
stripUnderscores(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c != '_')
            out += c;
    }
    return out;
}

uint64_t
parseIntBits(const SExpr &e, int bits)
{
    std::string s = stripUnderscores(e.atom);
    bool neg = false;
    size_t i = 0;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
        neg = s[i] == '-';
        ++i;
    }
    int base = 10;
    if (i + 1 < s.size() && s[i] == '0' &&
        (s[i + 1] == 'x' || s[i + 1] == 'X')) {
        base = 16;
        i += 2;
    }
    if (i >= s.size())
        failAt(e, "expected integer");
    uint64_t v = 0;
    for (; i < s.size(); ++i) {
        char c = s[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            failAt(e, "bad digit in integer");
        v = v * base + static_cast<uint64_t>(digit);
    }
    if (neg)
        v = ~v + 1; // two's complement
    if (bits == 32)
        v &= 0xFFFFFFFFull;
    return v;
}

double
parseFloat(const SExpr &e)
{
    std::string s = stripUnderscores(e.atom);
    bool neg = !s.empty() && s[0] == '-';
    std::string mag = (neg || (!s.empty() && s[0] == '+'))
                          ? s.substr(1)
                          : s;
    double v;
    if (mag == "inf") {
        v = std::numeric_limits<double>::infinity();
    } else if (mag == "nan" || mag.rfind("nan:", 0) == 0) {
        v = std::numeric_limits<double>::quiet_NaN();
    } else {
        char *end = nullptr;
        v = std::strtod(mag.c_str(), &end);
        if (end == mag.c_str() || *end != '\0')
            failAt(e, "expected float");
    }
    return neg ? -v : v;
}

std::optional<ValType>
valTypeFromAtom(const SExpr &e)
{
    if (e.list || e.string)
        return std::nullopt;
    if (e.atom == "i32")
        return ValType::I32;
    if (e.atom == "i64")
        return ValType::I64;
    if (e.atom == "f32")
        return ValType::F32;
    if (e.atom == "f64")
        return ValType::F64;
    return std::nullopt;
}

// =====================================================================
// Module parsing.

/** Index space with optional $names. */
class Space {
  public:
    uint32_t
    add(const std::string &name, const SExpr *at = nullptr)
    {
        uint32_t idx = count_++;
        if (!name.empty()) {
            if (names_.count(name) && at != nullptr)
                failAt(*at, "duplicate identifier " + name);
            names_[name] = idx;
        }
        return idx;
    }

    uint32_t
    resolve(const SExpr &e) const
    {
        if (!e.list && !e.string && !e.atom.empty() && e.atom[0] == '$') {
            auto it = names_.find(e.atom);
            if (it == names_.end())
                failAt(e, "unknown identifier " + e.atom);
            return it->second;
        }
        return static_cast<uint32_t>(parseIntBits(e, 32));
    }

    uint32_t count() const { return count_; }

  private:
    std::map<std::string, uint32_t> names_;
    uint32_t count_ = 0;
};

class ModuleParser {
  public:
    Module
    run(const SExpr &root)
    {
        if (!root.isForm("module"))
            failAt(root, "expected (module ...)");
        std::vector<const SExpr *> fields;
        for (size_t i = 1; i < root.items.size(); ++i)
            fields.push_back(&root.items[i]);

        // Pass 1: explicit (type ...) declarations.
        for (const SExpr *f : fields) {
            if (f->isForm("type"))
                parseTypeDecl(*f);
        }
        // Pass 2: declare all entities so forward references resolve.
        for (const SExpr *f : fields)
            declareField(*f);
        // Pass 3: fill in bodies, segments, exports, start.
        for (const SExpr *f : fields)
            defineField(*f);

        return std::move(m_);
    }

  private:
    // ----- types -------------------------------------------------------

    void
    parseTypeDecl(const SExpr &e)
    {
        size_t i = 1;
        std::string name;
        if (i < e.items.size() && !e.items[i].list &&
            !e.items[i].atom.empty() && e.items[i].atom[0] == '$') {
            name = e.items[i].atom;
            ++i;
        }
        if (i >= e.items.size() || !e.items[i].isForm("func"))
            failAt(e, "expected (func ...) in type");
        FuncType type = parseFuncTypeBody(e.items[i], 1, nullptr);
        uint32_t idx = static_cast<uint32_t>(m_.types.size());
        m_.types.push_back(type);
        typeSpace_.add(name, &e);
        (void)idx;
    }

    /** Parse (param ...)* (result ...)* starting at item @p i of @p e;
     * if @p param_names is non-null, records $names of params. */
    FuncType
    parseFuncTypeBody(const SExpr &e, size_t i, Space *param_names)
    {
        FuncType type;
        for (; i < e.items.size(); ++i) {
            const SExpr &f = e.items[i];
            if (f.isForm("param")) {
                size_t j = 1;
                if (j < f.items.size() && !f.items[j].list &&
                    !f.items[j].atom.empty() &&
                    f.items[j].atom[0] == '$') {
                    // Named single param.
                    if (j + 1 >= f.items.size())
                        failAt(f, "named param needs a type");
                    auto t = valTypeFromAtom(f.items[j + 1]);
                    if (!t)
                        failAt(f.items[j + 1], "expected value type");
                    if (param_names)
                        param_names->add(f.items[j].atom, &f);
                    type.params.push_back(*t);
                    continue;
                }
                for (; j < f.items.size(); ++j) {
                    auto t = valTypeFromAtom(f.items[j]);
                    if (!t)
                        failAt(f.items[j], "expected value type");
                    if (param_names)
                        param_names->add("", &f);
                    type.params.push_back(*t);
                }
            } else if (f.isForm("result")) {
                for (size_t j = 1; j < f.items.size(); ++j) {
                    auto t = valTypeFromAtom(f.items[j]);
                    if (!t)
                        failAt(f.items[j], "expected value type");
                    type.results.push_back(*t);
                }
            } else {
                break;
            }
        }
        return type;
    }

    /** Parse a typeuse: optional (type x), then inline params/results.
     * Returns {type index, index of first unconsumed item}. */
    std::pair<uint32_t, size_t>
    parseTypeUse(const SExpr &e, size_t i, Space *param_names)
    {
        std::optional<uint32_t> declared;
        if (i < e.items.size() && e.items[i].isForm("type")) {
            if (e.items[i].items.size() != 2)
                failAt(e.items[i], "(type x) takes one index");
            declared = typeSpace_.resolve(e.items[i].items[1]);
            if (*declared >= m_.types.size())
                failAt(e.items[i], "type index out of range");
            ++i;
        }
        size_t before = i;
        FuncType inline_type = parseFuncTypeBody(e, i, param_names);
        // Advance i past the param/result forms.
        while (i < e.items.size() &&
               (e.items[i].isForm("param") || e.items[i].isForm("result")))
            ++i;
        if (declared) {
            const FuncType &dt = m_.types[*declared];
            if (i != before && inline_type != dt)
                failAt(e, "inline type does not match (type x)");
            if (param_names && i == before) {
                // Params are anonymous; still reserve their slots.
                for (size_t p = 0; p < dt.params.size(); ++p)
                    param_names->add("");
            }
            return {*declared, i};
        }
        return {m_.addType(inline_type), i};
    }

    // ----- pass 2: declarations ---------------------------------------

    static std::string
    optName(const SExpr &e, size_t &i)
    {
        if (i < e.items.size() && !e.items[i].list && !e.items[i].string &&
            !e.items[i].atom.empty() && e.items[i].atom[0] == '$') {
            return e.items[i++].atom;
        }
        return "";
    }

    /** Collect inline (export "n") forms; returns names. */
    std::vector<std::string>
    inlineExports(const SExpr &e, size_t &i)
    {
        std::vector<std::string> names;
        while (i < e.items.size() && e.items[i].isForm("export")) {
            if (e.items[i].items.size() != 2 || !e.items[i].items[1].string)
                failAt(e.items[i], "inline export needs a string");
            names.push_back(e.items[i].items[1].atom);
            ++i;
        }
        return names;
    }

    /** Inline (import "m" "n") form. */
    std::optional<ImportRef>
    inlineImport(const SExpr &e, size_t &i)
    {
        if (i < e.items.size() && e.items[i].isForm("import")) {
            const SExpr &imp = e.items[i];
            if (imp.items.size() != 3 || !imp.items[1].string ||
                !imp.items[2].string)
                failAt(imp, "inline import needs two strings");
            ++i;
            return ImportRef{imp.items[1].atom, imp.items[2].atom};
        }
        return std::nullopt;
    }

    void
    declareField(const SExpr &e)
    {
        if (e.isForm("func")) {
            size_t i = 1;
            std::string name = optName(e, i);
            std::vector<std::string> exports = inlineExports(e, i);
            std::optional<ImportRef> import = inlineImport(e, i);
            Function f;
            Space params; // discarded; real parsing happens in pass 3
            auto [type_idx, next] = parseTypeUse(e, i, &params);
            (void)next;
            f.typeIdx = type_idx;
            f.import = import;
            f.exportNames = exports;
            if (!name.empty())
                f.debugName = name.substr(1);
            if (import && !m_.functions.empty() &&
                !m_.functions.back().imported())
                failAt(e, "imports must precede defined functions");
            m_.functions.push_back(std::move(f));
            funcSpace_.add(name, &e);
        } else if (e.isForm("memory")) {
            size_t i = 1;
            std::string name = optName(e, i);
            std::vector<std::string> exports = inlineExports(e, i);
            std::optional<ImportRef> import = inlineImport(e, i);
            Memory mem;
            mem.import = import;
            mem.exportNames = exports;
            mem.limits = parseLimits(e, i);
            m_.memories.push_back(std::move(mem));
            memSpace_.add(name, &e);
        } else if (e.isForm("table")) {
            size_t i = 1;
            std::string name = optName(e, i);
            std::vector<std::string> exports = inlineExports(e, i);
            std::optional<ImportRef> import = inlineImport(e, i);
            Table t;
            t.import = import;
            t.exportNames = exports;
            t.limits = parseLimits(e, i);
            if (i < e.items.size() && e.items[i].isAtom("funcref"))
                ++i;
            m_.tables.push_back(std::move(t));
            tableSpace_.add(name, &e);
        } else if (e.isForm("global")) {
            size_t i = 1;
            std::string name = optName(e, i);
            std::vector<std::string> exports = inlineExports(e, i);
            std::optional<ImportRef> import = inlineImport(e, i);
            Global g;
            g.import = import;
            g.exportNames = exports;
            if (i >= e.items.size())
                failAt(e, "global needs a type");
            if (e.items[i].isForm("mut")) {
                g.mut = true;
                if (e.items[i].items.size() != 2)
                    failAt(e.items[i], "(mut t)");
                auto t = valTypeFromAtom(e.items[i].items[1]);
                if (!t)
                    failAt(e.items[i], "expected value type");
                g.type = *t;
            } else {
                auto t = valTypeFromAtom(e.items[i]);
                if (!t)
                    failAt(e.items[i], "expected value type");
                g.type = *t;
            }
            m_.globals.push_back(std::move(g));
            globalSpace_.add(name, &e);
        } else if (e.isForm("import")) {
            // Standalone form: (import "m" "n" (func $f (type ...)))
            if (e.items.size() != 4 || !e.items[1].string ||
                !e.items[2].string)
                failAt(e, "(import \"m\" \"n\" <desc>)");
            ImportRef ref{e.items[1].atom, e.items[2].atom};
            const SExpr &desc = e.items[3];
            if (desc.isForm("func")) {
                size_t i = 1;
                std::string name = optName(desc, i);
                Function f;
                Space params;
                auto [type_idx, next] = parseTypeUse(desc, i, &params);
                (void)next;
                f.typeIdx = type_idx;
                f.import = ref;
                if (!name.empty())
                    f.debugName = name.substr(1);
                m_.functions.push_back(std::move(f));
                funcSpace_.add(name, &desc);
            } else if (desc.isForm("memory")) {
                size_t i = 1;
                std::string name = optName(desc, i);
                Memory mem;
                mem.import = ref;
                mem.limits = parseLimits(desc, i);
                m_.memories.push_back(std::move(mem));
                memSpace_.add(name, &desc);
            } else if (desc.isForm("table")) {
                size_t i = 1;
                std::string name = optName(desc, i);
                Table t;
                t.import = ref;
                t.limits = parseLimits(desc, i);
                m_.tables.push_back(std::move(t));
                tableSpace_.add(name, &desc);
            } else if (desc.isForm("global")) {
                size_t i = 1;
                std::string name = optName(desc, i);
                Global g;
                g.import = ref;
                if (i < desc.items.size() && desc.items[i].isForm("mut")) {
                    g.mut = true;
                    auto t = valTypeFromAtom(desc.items[i].items.at(1));
                    if (!t)
                        failAt(desc, "expected value type");
                    g.type = *t;
                } else if (i < desc.items.size()) {
                    auto t = valTypeFromAtom(desc.items[i]);
                    if (!t)
                        failAt(desc, "expected value type");
                    g.type = *t;
                }
                m_.globals.push_back(std::move(g));
                globalSpace_.add(name, &desc);
            } else {
                failAt(desc, "unsupported import description");
            }
        }
        // type/export/start/elem/data are handled in other passes.
    }

    Limits
    parseLimits(const SExpr &e, size_t &i)
    {
        Limits l;
        if (i >= e.items.size())
            return l;
        l.min = static_cast<uint32_t>(parseIntBits(e.items[i], 32));
        ++i;
        if (i < e.items.size() && !e.items[i].list && !e.items[i].string &&
            !e.items[i].atom.empty() &&
            (std::isdigit(static_cast<unsigned char>(e.items[i].atom[0])))) {
            l.max = static_cast<uint32_t>(parseIntBits(e.items[i], 32));
            ++i;
        }
        return l;
    }

    // ----- pass 3: definitions ------------------------------------------

    void
    defineField(const SExpr &e)
    {
        if (e.isForm("func")) {
            defineFunc(e);
        } else if (e.isForm("export")) {
            if (e.items.size() != 3 || !e.items[1].string)
                failAt(e, "(export \"n\" (kind idx))");
            const SExpr &desc = e.items[2];
            const std::string &name = e.items[1].atom;
            if (desc.isForm("func")) {
                m_.functions
                    .at(funcSpace_.resolve(desc.items.at(1)))
                    .exportNames.push_back(name);
            } else if (desc.isForm("memory")) {
                m_.memories.at(memSpace_.resolve(desc.items.at(1)))
                    .exportNames.push_back(name);
            } else if (desc.isForm("table")) {
                m_.tables.at(tableSpace_.resolve(desc.items.at(1)))
                    .exportNames.push_back(name);
            } else if (desc.isForm("global")) {
                m_.globals.at(globalSpace_.resolve(desc.items.at(1)))
                    .exportNames.push_back(name);
            } else {
                failAt(desc, "unsupported export description");
            }
        } else if (e.isForm("start")) {
            m_.start = funcSpace_.resolve(e.items.at(1));
        } else if (e.isForm("elem")) {
            ElementSegment seg;
            size_t i = 1;
            seg.offset = parseConstExprForm(e.items.at(i));
            ++i;
            if (i < e.items.size() && e.items[i].isAtom("func"))
                ++i;
            for (; i < e.items.size(); ++i)
                seg.funcIdxs.push_back(funcSpace_.resolve(e.items[i]));
            m_.elements.push_back(std::move(seg));
        } else if (e.isForm("data")) {
            DataSegment seg;
            size_t i = 1;
            seg.offset = parseConstExprForm(e.items.at(i));
            ++i;
            for (; i < e.items.size(); ++i) {
                if (!e.items[i].string)
                    failAt(e.items[i], "data expects strings");
                seg.bytes.insert(seg.bytes.end(), e.items[i].atom.begin(),
                                 e.items[i].atom.end());
            }
            m_.data.push_back(std::move(seg));
        } else if (e.isForm("global")) {
            // Initializer of a defined global (last child form).
            uint32_t idx = nextGlobal_++;
            Global &g = m_.globals.at(idx);
            if (g.imported())
                return;
            g.init = parseConstExprForm(e.items.back());
        } else if (e.isForm("import")) {
            // Keep the per-kind definition counters aligned with the
            // index spaces built in pass 2.
            const SExpr &desc = e.items.at(3);
            if (desc.isForm("func"))
                ++nextFunc_;
            else if (desc.isForm("global"))
                ++nextGlobal_;
        }
    }

    /** A folded constant expression like (i32.const 7). */
    std::vector<Instr>
    parseConstExprForm(const SExpr &e)
    {
        if (!e.list || e.items.empty())
            failAt(e, "expected a constant expression");
        FuncBodyParser body(*this, nullptr, nullptr);
        body.parseFolded(e);
        body.instrs.push_back(Instr(Opcode::End));
        return std::move(body.instrs);
    }

    void
    defineFunc(const SExpr &e)
    {
        uint32_t func_idx = nextFunc_++;
        Function &f = m_.functions.at(func_idx);
        size_t i = 1;
        (void)optName(e, i);
        (void)inlineExports(e, i);
        if (f.imported())
            return;
        Space locals;
        auto [type_idx, next] = parseTypeUse(e, i, &locals);
        (void)type_idx;
        i = next;
        // Locals.
        while (i < e.items.size() && e.items[i].isForm("local")) {
            const SExpr &l = e.items[i];
            size_t j = 1;
            if (j < l.items.size() && !l.items[j].list &&
                !l.items[j].atom.empty() && l.items[j].atom[0] == '$') {
                if (j + 1 >= l.items.size())
                    failAt(l, "named local needs a type");
                auto t = valTypeFromAtom(l.items[j + 1]);
                if (!t)
                    failAt(l, "expected value type");
                locals.add(l.items[j].atom, &l);
                f.locals.push_back(*t);
            } else {
                for (; j < l.items.size(); ++j) {
                    auto t = valTypeFromAtom(l.items[j]);
                    if (!t)
                        failAt(l.items[j], "expected value type");
                    locals.add("");
                    f.locals.push_back(*t);
                }
            }
            ++i;
        }
        FuncBodyParser body(*this, &locals, nullptr);
        body.parseSeq(e, i, e.items.size());
        body.instrs.push_back(Instr(Opcode::End));
        f.body = std::move(body.instrs);
        f.labelPool = std::move(body.labelPool);
    }

    // ----- instruction parsing -------------------------------------------

    friend class FuncBodyParser;

    class FuncBodyParser {
      public:
        FuncBodyParser(ModuleParser &mp, Space *locals, void *)
            : mp_(mp), locals_(locals)
        {
        }

        std::vector<Instr> instrs;
        /** The br_table labels of instrs (Function::labelPool). */
        std::vector<uint32_t> labelPool;

        /** Parse flat instructions e.items[i, end). */
        void
        parseSeq(const SExpr &e, size_t i, size_t end)
        {
            while (i < end)
                i = parseFlat(e, i, end);
        }

        /** Parse one folded instruction (an s-expr list). */
        void
        parseFolded(const SExpr &e)
        {
            if (!e.list || e.items.empty())
                failAt(e, "expected folded instruction");
            const SExpr &head = e.items[0];
            if (head.atom == "block" || head.atom == "loop") {
                size_t i = 1;
                std::string label = labelName(e, i);
                BlockType bt = parseBlockType(e, i);
                labels_.push_back(label);
                instrs.push_back(Instr::blockStart(
                    head.atom == "block" ? Opcode::Block : Opcode::Loop,
                    bt));
                parseSeq(e, i, e.items.size());
                labels_.pop_back();
                instrs.push_back(Instr(Opcode::End));
                return;
            }
            if (head.atom == "if") {
                size_t i = 1;
                std::string label = labelName(e, i);
                BlockType bt = parseBlockType(e, i);
                // Condition expressions precede (then ...).
                while (i < e.items.size() && !e.items[i].isForm("then"))
                    parseFolded(e.items[i++]);
                labels_.push_back(label);
                instrs.push_back(Instr::blockStart(Opcode::If, bt));
                if (i >= e.items.size())
                    failAt(e, "folded if needs (then ...)");
                parseSeq(e.items[i], 1, e.items[i].items.size());
                ++i;
                if (i < e.items.size() && e.items[i].isForm("else")) {
                    instrs.push_back(Instr(Opcode::Else));
                    parseSeq(e.items[i], 1, e.items[i].items.size());
                    ++i;
                }
                labels_.pop_back();
                instrs.push_back(Instr(Opcode::End));
                if (i != e.items.size())
                    failAt(e, "trailing items in folded if");
                return;
            }
            // Plain op: (op imm* operand*) — operands first, then op.
            auto [instr, i] = parseOpWithImms(e, 0);
            for (; i < e.items.size(); ++i)
                parseFolded(e.items[i]);
            instrs.push_back(std::move(instr));
        }

      private:
        std::string
        labelName(const SExpr &e, size_t &i)
        {
            if (i < e.items.size() && !e.items[i].list &&
                !e.items[i].string && !e.items[i].atom.empty() &&
                e.items[i].atom[0] == '$') {
                return e.items[i++].atom;
            }
            return "";
        }

        BlockType
        parseBlockType(const SExpr &e, size_t &i)
        {
            if (i < e.items.size() && e.items[i].isForm("result")) {
                const SExpr &r = e.items[i];
                if (r.items.size() != 2)
                    failAt(r, "blocks support at most one result");
                auto t = valTypeFromAtom(r.items[1]);
                if (!t)
                    failAt(r, "expected value type");
                ++i;
                return *t;
            }
            return std::nullopt;
        }

        uint32_t
        resolveLabel(const SExpr &e)
        {
            if (!e.list && !e.atom.empty() && e.atom[0] == '$') {
                for (size_t d = 0; d < labels_.size(); ++d) {
                    if (labels_[labels_.size() - 1 - d] == e.atom)
                        return static_cast<uint32_t>(d);
                }
                failAt(e, "unknown label " + e.atom);
            }
            return static_cast<uint32_t>(parseIntBits(e, 32));
        }

        uint32_t
        resolveLocal(const SExpr &e)
        {
            if (locals_ == nullptr)
                failAt(e, "locals not allowed here");
            return locals_->resolve(e);
        }

        /** True if the atom at items[i] looks like a label/index arg. */
        static bool
        isIndexLike(const SExpr &e)
        {
            if (e.list || e.string || e.atom.empty())
                return false;
            char c = e.atom[0];
            return c == '$' || (c >= '0' && c <= '9') || c == '-';
        }

        /**
         * Parse one opcode + its immediates from e.items starting at
         * @p at (the opcode atom). Returns the instruction and the
         * index of the first unconsumed item.
         */
        std::pair<Instr, size_t>
        parseOpWithImms(const SExpr &e, size_t at)
        {
            const SExpr &head = e.items.at(at);
            if (head.list || head.string)
                failAt(head, "expected an instruction mnemonic");
            Opcode op;
            if (auto o = mp_.opcodeByName(head.atom)) {
                op = *o;
            } else {
                failAt(head, "unknown instruction " + head.atom);
            }
            Instr instr(op);
            size_t i = at + 1;
            switch (opInfo(op).imm) {
              case ImmKind::None:
              case ImmKind::MemIdx:
              case ImmKind::BlockType: // handled by callers
                break;
              case ImmKind::Label:
                instr.imm.idx = resolveLabel(e.items.at(i++));
                break;
              case ImmKind::BrTableImm: {
                std::vector<uint32_t> targets;
                while (i < e.items.size() && isIndexLike(e.items[i]))
                    targets.push_back(resolveLabel(e.items[i++]));
                if (targets.empty())
                    failAt(e, "br_table needs at least a default");
                uint32_t def = targets.back();
                targets.pop_back();
                instr = Instr::brTable(labelPool, targets, def);
                break;
              }
              case ImmKind::Func:
                instr.imm.idx = mp_.funcSpace_.resolve(e.items.at(i++));
                break;
              case ImmKind::CallInd: {
                if (i < e.items.size() && e.items[i].isForm("type")) {
                    instr.imm.idx =
                        mp_.typeSpace_.resolve(e.items[i].items.at(1));
                    ++i;
                } else {
                    failAt(e, "call_indirect needs (type x)");
                }
                break;
              }
              case ImmKind::Local:
                instr.imm.idx = resolveLocal(e.items.at(i++));
                break;
              case ImmKind::Global:
                instr.imm.idx =
                    mp_.globalSpace_.resolve(e.items.at(i++));
                break;
              case ImmKind::Mem: {
                // offset=N and align=N in either order.
                while (i < e.items.size() && !e.items[i].list &&
                       (e.items[i].atom.rfind("offset=", 0) == 0 ||
                        e.items[i].atom.rfind("align=", 0) == 0)) {
                    const std::string &a = e.items[i].atom;
                    SExpr num = e.items[i];
                    num.atom = a.substr(a.find('=') + 1);
                    uint32_t v =
                        static_cast<uint32_t>(parseIntBits(num, 32));
                    if (a[0] == 'o') {
                        instr.imm.mem.offset = v;
                    } else {
                        // WAT align is in bytes; encode log2.
                        uint32_t log2 = 0;
                        while ((1u << log2) < v)
                            ++log2;
                        instr.imm.mem.align = log2;
                    }
                    ++i;
                }
                break;
              }
              case ImmKind::I32:
                instr.imm.i32v =
                    static_cast<uint32_t>(parseIntBits(e.items.at(i++), 32));
                break;
              case ImmKind::I64:
                instr.imm.i64v = parseIntBits(e.items.at(i++), 64);
                break;
              case ImmKind::F32:
                instr.imm.f32v =
                    static_cast<float>(parseFloat(e.items.at(i++)));
                break;
              case ImmKind::F64:
                instr.imm.f64v = parseFloat(e.items.at(i++));
                break;
            }
            return {std::move(instr), i};
        }

        /** Parse one flat-form instruction at items[i]; returns the
         * index after it (including any nested flat body). */
        size_t
        parseFlat(const SExpr &e, size_t i, size_t end)
        {
            const SExpr &head = e.items.at(i);
            if (head.list) {
                parseFolded(head);
                return i + 1;
            }
            if (head.atom == "block" || head.atom == "loop" ||
                head.atom == "if") {
                size_t j = i + 1;
                std::string label = labelName(e, j);
                BlockType bt = parseBlockType(e, j);
                Opcode op = head.atom == "block"  ? Opcode::Block
                            : head.atom == "loop" ? Opcode::Loop
                                                  : Opcode::If;
                if (labels_.size() == kMaxWatNesting)
                    failAt(head, "blocks nested deeper than " +
                                     std::to_string(kMaxWatNesting));
                labels_.push_back(label);
                instrs.push_back(Instr::blockStart(op, bt));
                int depth = 1;
                while (j < end && depth > 0) {
                    const SExpr &cur = e.items[j];
                    if (!cur.list &&
                        (cur.atom == "block" || cur.atom == "loop" ||
                         cur.atom == "if")) {
                        // Nested flat block: recurse.
                        j = parseFlat(e, j, end);
                        continue;
                    }
                    if (cur.isAtom("else") && depth == 1) {
                        if (op != Opcode::If)
                            failAt(cur, "else outside an if (in a " +
                                            head.atom + ")");
                        instrs.push_back(Instr(Opcode::Else));
                        ++j;
                        // optional label id after else
                        (void)labelName(e, j);
                        continue;
                    }
                    if (cur.isAtom("end")) {
                        --depth;
                        ++j;
                        (void)labelName(e, j); // optional trailing id
                        continue;
                    }
                    j = parseFlat(e, j, end);
                }
                if (depth != 0)
                    failAt(head, "missing end");
                labels_.pop_back();
                instrs.push_back(Instr(Opcode::End));
                return j;
            }
            if (head.isAtom("end") || head.isAtom("else"))
                failAt(head, "unexpected " + head.atom);
            auto [instr, next] = parseOpWithImms(e, i);
            instrs.push_back(std::move(instr));
            return next;
        }

        ModuleParser &mp_;
        Space *locals_;
        std::vector<std::string> labels_;
    };

    std::optional<Opcode>
    opcodeByName(const std::string &name)
    {
        if (opcodeNames_.empty()) {
            for (Opcode op : allOpcodes())
                opcodeNames_[wasm::name(op)] = op;
            // Accept the pre-1.0 mnemonics too (the paper uses them).
            opcodeNames_["get_local"] = Opcode::LocalGet;
            opcodeNames_["set_local"] = Opcode::LocalSet;
            opcodeNames_["tee_local"] = Opcode::LocalTee;
            opcodeNames_["get_global"] = Opcode::GlobalGet;
            opcodeNames_["set_global"] = Opcode::GlobalSet;
            opcodeNames_["current_memory"] = Opcode::MemorySize;
            opcodeNames_["grow_memory"] = Opcode::MemoryGrow;
        }
        auto it = opcodeNames_.find(name);
        if (it == opcodeNames_.end())
            return std::nullopt;
        return it->second;
    }

    Module m_;
    Space typeSpace_, funcSpace_, globalSpace_, tableSpace_, memSpace_;
    uint32_t nextFunc_ = 0;
    uint32_t nextGlobal_ = 0;
    std::map<std::string, Opcode> opcodeNames_;
};

} // namespace

Module
parseWat(const std::string &text)
{
    Lexer lexer(text);
    SExpr root = lexer.parseAll();
    return ModuleParser().run(root);
}

} // namespace wasabi::wasm
