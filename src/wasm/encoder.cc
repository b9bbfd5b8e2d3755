#include "wasm/encoder.h"

#include <bit>

#include "wasm/leb128.h"

namespace wasabi::wasm {

namespace {

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    encodeULEB(out, v);
}

void
putFixedU32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(v & 0xFF);
    out.push_back((v >> 8) & 0xFF);
    out.push_back((v >> 16) & 0xFF);
    out.push_back((v >> 24) & 0xFF);
}

void
putFixedU64(std::vector<uint8_t> &out, uint64_t v)
{
    putFixedU32(out, static_cast<uint32_t>(v));
    putFixedU32(out, static_cast<uint32_t>(v >> 32));
}

void
putName(std::vector<uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

void
putValType(std::vector<uint8_t> &out, ValType t)
{
    out.push_back(binaryByte(t));
}

void
putLimits(std::vector<uint8_t> &out, const Limits &l)
{
    if (l.max) {
        out.push_back(0x01);
        putU32(out, l.min);
        putU32(out, *l.max);
    } else {
        out.push_back(0x00);
        putU32(out, l.min);
    }
}

void
putExpr(std::vector<uint8_t> &out, const std::vector<Instr> &expr,
        std::span<const uint32_t> pool = {})
{
    for (const Instr &i : expr)
        encodeInstr(out, i, pool);
}

/** Append a section with the given id; empty payloads are skipped. */
void
putSection(std::vector<uint8_t> &out, uint8_t id,
           const std::vector<uint8_t> &payload)
{
    if (payload.empty())
        return;
    out.push_back(id);
    putU32(out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
}

/** Export entries collected across all index spaces. */
struct ExportEntry {
    std::string name;
    uint8_t kind;
    uint32_t idx;
};

/** Append the run-length encoded local declarations of a code entry. */
void
putLocals(std::vector<uint8_t> &out, const std::vector<ValType> &locals)
{
    size_t runs = 0;
    for (size_t i = 0; i < locals.size(); ++i)
        runs += i == 0 || locals[i] != locals[i - 1];
    putU32(out, static_cast<uint32_t>(runs));
    for (size_t i = 0; i < locals.size();) {
        size_t j = i;
        while (j < locals.size() && locals[j] == locals[i])
            ++j;
        putU32(out, static_cast<uint32_t>(j - i));
        putValType(out, locals[i]);
        i = j;
    }
}

/**
 * Append the code section: every defined function's entry size,
 * locals header and the instructions @p bodies writes. The sizes are
 * computed first, so the section goes straight into @p out, which is
 * reserved for it and @p tail_bytes more.
 */
void
putCodeSection(std::vector<uint8_t> &out, const Module &m,
               BodyWriter &bodies, size_t tail_bytes)
{
    std::vector<uint32_t> entry_sizes;
    std::vector<uint8_t> locals;
    size_t payload = 0;
    for (uint32_t i = 0; i < m.numFunctions(); ++i) {
        const Function &f = m.functions[i];
        if (f.imported())
            continue;
        locals.clear();
        putLocals(locals, f.locals);
        size_t entry = locals.size() + bodies.size(i);
        entry_sizes.push_back(static_cast<uint32_t>(entry));
        payload += ulebSize(entry) + entry;
    }
    if (entry_sizes.empty()) {
        out.reserve(out.size() + tail_bytes);
        return;
    }
    payload += ulebSize(entry_sizes.size());
    out.reserve(out.size() + 1 + ulebSize(payload) + payload + tail_bytes);
    out.push_back(10);
    putU32(out, static_cast<uint32_t>(payload));
    const size_t end = out.size() + payload;
    putU32(out, static_cast<uint32_t>(entry_sizes.size()));
    size_t k = 0;
    for (uint32_t i = 0; i < m.numFunctions(); ++i) {
        const Function &f = m.functions[i];
        if (f.imported())
            continue;
        putU32(out, entry_sizes[k++]);
        putLocals(out, f.locals);
        bodies.write(out, i);
    }
    if (out.size() != end)
        throw EncodeError("function bodies differ from their sizes");
}

/** The body writer of encodeModule(m): encodes Function::body. */
class EncodedBodies final : public BodyWriter {
  public:
    explicit EncodedBodies(const Module &m)
        : m_(m), spans_(m.functions.size())
    {
    }

    size_t
    size(uint32_t func_idx) override
    {
        const Function &f = m_.functions[func_idx];
        size_t start = bytes_.size();
        putExpr(bytes_, f.body, f.labelPool);
        spans_[func_idx] = {start, bytes_.size() - start};
        return spans_[func_idx].second;
    }

    void
    write(std::vector<uint8_t> &out, uint32_t func_idx) override
    {
        auto [start, n] = spans_[func_idx];
        out.insert(out.end(), bytes_.begin() + start,
                   bytes_.begin() + start + n);
    }

  private:
    const Module &m_;
    std::vector<uint8_t> bytes_;
    std::vector<std::pair<size_t, size_t>> spans_;
};

} // namespace

void
encodeInstr(std::vector<uint8_t> &out, const Instr &instr,
            std::span<const uint32_t> pool)
{
    const OpInfo &info = opInfo(instr.op);
    if (!info.valid())
        throw EncodeError("invalid opcode");
    out.push_back(static_cast<uint8_t>(instr.op));
    switch (info.imm) {
      case ImmKind::None:
        break;
      case ImmKind::BlockType:
        out.push_back(instr.blockByte);
        break;
      case ImmKind::Label:
      case ImmKind::Func:
      case ImmKind::Local:
      case ImmKind::Global:
        putU32(out, instr.imm.idx);
        break;
      case ImmKind::CallInd:
        putU32(out, instr.imm.idx);
        out.push_back(0x00);
        break;
      case ImmKind::BrTableImm: {
        std::span<const uint32_t> labels = brTableLabels(pool, instr);
        if (labels.empty())
            throw EncodeError("br_table without default target");
        putU32(out, static_cast<uint32_t>(labels.size() - 1));
        for (uint32_t label : labels)
            putU32(out, label);
        break;
      }
      case ImmKind::Mem:
        putU32(out, instr.imm.mem.align);
        putU32(out, instr.imm.mem.offset);
        break;
      case ImmKind::MemIdx:
        out.push_back(0x00);
        break;
      case ImmKind::I32:
        encodeSLEB(out, static_cast<int32_t>(instr.imm.i32v));
        break;
      case ImmKind::I64:
        encodeSLEB(out, static_cast<int64_t>(instr.imm.i64v));
        break;
      case ImmKind::F32:
        putFixedU32(out, std::bit_cast<uint32_t>(instr.imm.f32v));
        break;
      case ImmKind::F64:
        putFixedU64(out, std::bit_cast<uint64_t>(instr.imm.f64v));
        break;
    }
}

std::vector<uint8_t>
encodeModule(const Module &m)
{
    EncodedBodies bodies(m);
    return encodeModule(m, bodies);
}

std::vector<uint8_t>
encodeModule(const Module &m, BodyWriter &bodies)
{
    std::vector<uint8_t> out;
    putFixedU32(out, 0x6D736100);
    putFixedU32(out, 1);

    // --- Type section.
    {
        std::vector<uint8_t> sec;
        if (!m.types.empty()) {
            putU32(sec, static_cast<uint32_t>(m.types.size()));
            for (const FuncType &t : m.types) {
                sec.push_back(0x60);
                putU32(sec, static_cast<uint32_t>(t.params.size()));
                for (ValType p : t.params)
                    putValType(sec, p);
                putU32(sec, static_cast<uint32_t>(t.results.size()));
                for (ValType r : t.results)
                    putValType(sec, r);
            }
        }
        putSection(out, 1, sec);
    }

    // --- Import section, gathered from all index spaces.
    {
        std::vector<uint8_t> entries;
        uint32_t count = 0;
        for (const Function &f : m.functions) {
            if (!f.imported())
                break;
            putName(entries, f.import->module);
            putName(entries, f.import->name);
            entries.push_back(0x00);
            putU32(entries, f.typeIdx);
            ++count;
        }
        for (const Table &t : m.tables) {
            if (!t.imported())
                break;
            putName(entries, t.import->module);
            putName(entries, t.import->name);
            entries.push_back(0x01);
            entries.push_back(0x70);
            putLimits(entries, t.limits);
            ++count;
        }
        for (const Memory &mem : m.memories) {
            if (!mem.imported())
                break;
            putName(entries, mem.import->module);
            putName(entries, mem.import->name);
            entries.push_back(0x02);
            putLimits(entries, mem.limits);
            ++count;
        }
        for (const Global &g : m.globals) {
            if (!g.imported())
                break;
            putName(entries, g.import->module);
            putName(entries, g.import->name);
            entries.push_back(0x03);
            putValType(entries, g.type);
            entries.push_back(g.mut ? 0x01 : 0x00);
            ++count;
        }
        std::vector<uint8_t> sec;
        if (count > 0) {
            putU32(sec, count);
            sec.insert(sec.end(), entries.begin(), entries.end());
        }
        putSection(out, 2, sec);
    }

    // Check import-before-defined invariant in every index space.
    auto checkOrder = [](auto const &vec, const char *what) {
        bool seen_defined = false;
        for (const auto &e : vec) {
            if (e.imported() && seen_defined) {
                throw EncodeError(std::string(what) +
                                  ": import after defined entity");
            }
            if (!e.imported())
                seen_defined = true;
        }
    };
    checkOrder(m.functions, "functions");
    checkOrder(m.tables, "tables");
    checkOrder(m.memories, "memories");
    checkOrder(m.globals, "globals");

    // --- Function section (type indices of defined functions).
    {
        std::vector<uint8_t> sec;
        uint32_t count = 0;
        std::vector<uint8_t> entries;
        for (const Function &f : m.functions) {
            if (f.imported())
                continue;
            putU32(entries, f.typeIdx);
            ++count;
        }
        if (count > 0) {
            putU32(sec, count);
            sec.insert(sec.end(), entries.begin(), entries.end());
        }
        putSection(out, 3, sec);
    }

    // --- Table section.
    {
        std::vector<uint8_t> sec;
        uint32_t count = 0;
        std::vector<uint8_t> entries;
        for (const Table &t : m.tables) {
            if (t.imported())
                continue;
            entries.push_back(0x70);
            putLimits(entries, t.limits);
            ++count;
        }
        if (count > 0) {
            putU32(sec, count);
            sec.insert(sec.end(), entries.begin(), entries.end());
        }
        putSection(out, 4, sec);
    }

    // --- Memory section.
    {
        std::vector<uint8_t> sec;
        uint32_t count = 0;
        std::vector<uint8_t> entries;
        for (const Memory &mem : m.memories) {
            if (mem.imported())
                continue;
            putLimits(entries, mem.limits);
            ++count;
        }
        if (count > 0) {
            putU32(sec, count);
            sec.insert(sec.end(), entries.begin(), entries.end());
        }
        putSection(out, 5, sec);
    }

    // --- Global section.
    {
        std::vector<uint8_t> sec;
        uint32_t count = 0;
        std::vector<uint8_t> entries;
        for (const Global &g : m.globals) {
            if (g.imported())
                continue;
            putValType(entries, g.type);
            entries.push_back(g.mut ? 0x01 : 0x00);
            putExpr(entries, g.init);
            ++count;
        }
        if (count > 0) {
            putU32(sec, count);
            sec.insert(sec.end(), entries.begin(), entries.end());
        }
        putSection(out, 6, sec);
    }

    // --- Export section.
    {
        std::vector<ExportEntry> exports;
        for (size_t i = 0; i < m.functions.size(); ++i) {
            for (const std::string &n : m.functions[i].exportNames)
                exports.push_back({n, 0x00, static_cast<uint32_t>(i)});
        }
        for (size_t i = 0; i < m.tables.size(); ++i) {
            for (const std::string &n : m.tables[i].exportNames)
                exports.push_back({n, 0x01, static_cast<uint32_t>(i)});
        }
        for (size_t i = 0; i < m.memories.size(); ++i) {
            for (const std::string &n : m.memories[i].exportNames)
                exports.push_back({n, 0x02, static_cast<uint32_t>(i)});
        }
        for (size_t i = 0; i < m.globals.size(); ++i) {
            for (const std::string &n : m.globals[i].exportNames)
                exports.push_back({n, 0x03, static_cast<uint32_t>(i)});
        }
        std::vector<uint8_t> sec;
        if (!exports.empty()) {
            putU32(sec, static_cast<uint32_t>(exports.size()));
            for (const ExportEntry &e : exports) {
                putName(sec, e.name);
                sec.push_back(e.kind);
                putU32(sec, e.idx);
            }
        }
        putSection(out, 7, sec);
    }

    // --- Start section.
    if (m.start) {
        std::vector<uint8_t> sec;
        putU32(sec, *m.start);
        putSection(out, 8, sec);
    }

    // --- Element section.
    if (!m.elements.empty()) {
        std::vector<uint8_t> sec;
        putU32(sec, static_cast<uint32_t>(m.elements.size()));
        for (const ElementSegment &seg : m.elements) {
            putU32(sec, seg.tableIdx);
            putExpr(sec, seg.offset);
            putU32(sec, static_cast<uint32_t>(seg.funcIdxs.size()));
            for (uint32_t f : seg.funcIdxs)
                putU32(sec, f);
        }
        putSection(out, 9, sec);
    }

    // The data and custom sections follow the code section. Encode
    // them first, so that the output is allocated once at its final
    // size and the code section is written straight into it.
    std::vector<uint8_t> tail;

    // --- Data section.
    if (!m.data.empty()) {
        std::vector<uint8_t> sec;
        putU32(sec, static_cast<uint32_t>(m.data.size()));
        for (const DataSegment &seg : m.data) {
            putU32(sec, seg.memIdx);
            putExpr(sec, seg.offset);
            putU32(sec, static_cast<uint32_t>(seg.bytes.size()));
            sec.insert(sec.end(), seg.bytes.begin(), seg.bytes.end());
        }
        putSection(tail, 11, sec);
    }

    // --- Custom sections, appended at the end.
    for (const CustomSection &c : m.customs) {
        std::vector<uint8_t> sec;
        putName(sec, c.name);
        sec.insert(sec.end(), c.bytes.begin(), c.bytes.end());
        putSection(tail, 0, sec);
    }

    putCodeSection(out, m, bodies, tail.size());
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

std::vector<SectionSize>
sectionSizes(const std::vector<uint8_t> &bytes)
{
    static const char *kSectionNames[] = {
        "custom", "type",   "import", "function", "table",  "memory",
        "global", "export", "start",  "element",  "code",   "data",
    };
    std::vector<SectionSize> sizes;
    ByteReader r(bytes);
    r.readBytes(8); // magic + version
    while (!r.done()) {
        size_t header_start = r.pos();
        uint8_t id = r.readByte();
        uint32_t payload = r.readU32();
        SectionSize s;
        s.id = id;
        s.name = id < 12 ? kSectionNames[id] : "unknown";
        if (id == 0) {
            size_t name_start = r.pos();
            ByteReader nr(bytes.data() + name_start, payload);
            s.name = nr.readName();
            r.readBytes(payload);
        } else {
            r.readBytes(payload);
        }
        s.bytes = r.pos() - header_start;
        sizes.push_back(std::move(s));
    }
    return sizes;
}

} // namespace wasabi::wasm
