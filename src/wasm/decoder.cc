#include "wasm/decoder.h"

#include <bit>
#include <exception>

#include "support/parallel.h"
#include "wasm/leb128.h"

namespace wasabi::wasm {

namespace {

/** Section ids of the binary format. */
enum SectionId : uint8_t {
    kCustom = 0,
    kType = 1,
    kImport = 2,
    kFunction = 3,
    kTable = 4,
    kMemory = 5,
    kGlobal = 6,
    kExport = 7,
    kStart = 8,
    kElement = 9,
    kCode = 10,
    kData = 11,
};

ValType
readValType(ByteReader &r)
{
    auto t = valTypeFromByte(r.readByte());
    if (!t)
        throw DecodeError("invalid value type byte");
    return *t;
}

Limits
readLimits(ByteReader &r)
{
    Limits l;
    uint8_t flag = r.readByte();
    l.min = r.readU32();
    if (flag == 0x01)
        l.max = r.readU32();
    else if (flag != 0x00)
        throw DecodeError("invalid limits flag");
    return l;
}

/** Read one instruction; br_table labels go to @p pool. */
Instr
readInstr(ByteReader &r, std::vector<uint32_t> &pool)
{
    uint8_t byte = r.readByte();
    const OpInfo &info = opInfoByte(byte);
    if (!info.valid())
        throw DecodeError("invalid opcode byte " + std::to_string(byte));

    Instr instr(static_cast<Opcode>(byte));
    switch (info.imm) {
      case ImmKind::None:
        break;
      case ImmKind::BlockType: {
        uint8_t bt = r.readByte();
        if (bt != kEmptyBlockByte && !valTypeFromByte(bt))
            throw DecodeError("invalid block type");
        instr.blockByte = bt;
        break;
      }
      case ImmKind::Label:
      case ImmKind::Func:
      case ImmKind::Local:
      case ImmKind::Global:
        instr.imm.idx = r.readU32();
        break;
      case ImmKind::CallInd: {
        instr.imm.idx = r.readU32();
        if (r.readByte() != 0x00)
            throw DecodeError("call_indirect reserved byte must be 0");
        break;
      }
      case ImmKind::BrTableImm: {
        uint32_t count = r.readU32();
        instr.aux = static_cast<uint32_t>(pool.size());
        for (uint32_t i = 0; i < count; ++i)
            pool.push_back(r.readU32());
        pool.push_back(r.readU32()); // default target
        instr.imm.idx = count + 1;
        break;
      }
      case ImmKind::Mem:
        instr.imm.mem.align = r.readU32();
        instr.imm.mem.offset = r.readU32();
        break;
      case ImmKind::MemIdx:
        if (r.readByte() != 0x00)
            throw DecodeError("memory index byte must be 0");
        break;
      case ImmKind::I32:
        instr.imm.i32v = static_cast<uint32_t>(r.readS32());
        break;
      case ImmKind::I64:
        instr.imm.i64v = static_cast<uint64_t>(r.readS64());
        break;
      case ImmKind::F32:
        instr.imm.f32v = std::bit_cast<float>(r.readFixedU32());
        break;
      case ImmKind::F64:
        instr.imm.f64v = std::bit_cast<double>(r.readFixedU64());
        break;
    }
    return instr;
}

/**
 * Read an expression: instructions up to and including the `end` that
 * closes the expression (nesting-aware). br_table labels go to @p
 * pool.
 */
std::vector<Instr>
readExpr(ByteReader &r, std::vector<uint32_t> &pool)
{
    std::vector<Instr> body;
    int depth = 0;
    while (true) {
        Instr instr = readInstr(r, pool);
        if (isBlockStart(instr.op)) {
            ++depth;
        } else if (instr.op == Opcode::End) {
            if (depth == 0) {
                body.push_back(instr);
                return body;
            }
            --depth;
        }
        body.push_back(instr);
    }
}

/** A constant expression has no label pool; a br_table in one (never
 * valid) reads its labels into a scratch pool. */
std::vector<Instr>
readConstExpr(ByteReader &r)
{
    std::vector<uint32_t> scratch;
    return readExpr(r, scratch);
}

struct Decoder {
    Module m;
    /// Type indices of defined functions (function section), matched
    /// with bodies from the code section.
    std::vector<uint32_t> defined_func_types;

    void
    typeSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            if (r.readByte() != 0x60)
                throw DecodeError("function type must start with 0x60");
            FuncType t;
            uint32_t np = r.readU32();
            for (uint32_t j = 0; j < np; ++j)
                t.params.push_back(readValType(r));
            uint32_t nr = r.readU32();
            for (uint32_t j = 0; j < nr; ++j)
                t.results.push_back(readValType(r));
            m.types.push_back(std::move(t));
        }
    }

    void
    importSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            ImportRef ref;
            ref.module = r.readName();
            ref.name = r.readName();
            uint8_t kind = r.readByte();
            switch (kind) {
              case 0x00: {
                Function f;
                f.typeIdx = r.readU32();
                f.import = ref;
                m.functions.push_back(std::move(f));
                break;
              }
              case 0x01: {
                if (r.readByte() != 0x70)
                    throw DecodeError("table element type must be funcref");
                Table t;
                t.limits = readLimits(r);
                t.import = ref;
                m.tables.push_back(std::move(t));
                break;
              }
              case 0x02: {
                Memory mem;
                mem.limits = readLimits(r);
                mem.import = ref;
                m.memories.push_back(std::move(mem));
                break;
              }
              case 0x03: {
                Global g;
                g.type = readValType(r);
                g.mut = r.readByte() == 0x01;
                g.import = ref;
                m.globals.push_back(std::move(g));
                break;
              }
              default:
                throw DecodeError("invalid import kind");
            }
        }
    }

    void
    functionSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            uint32_t type_idx = r.readU32();
            defined_func_types.push_back(type_idx);
            // Create the entry now so that the export section (which
            // precedes the code section) can reference it.
            Function f;
            f.typeIdx = type_idx;
            m.functions.push_back(std::move(f));
        }
    }

    void
    tableSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            if (r.readByte() != 0x70)
                throw DecodeError("table element type must be funcref");
            Table t;
            t.limits = readLimits(r);
            m.tables.push_back(std::move(t));
        }
    }

    void
    memorySection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            Memory mem;
            mem.limits = readLimits(r);
            m.memories.push_back(std::move(mem));
        }
    }

    void
    globalSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            Global g;
            g.type = readValType(r);
            g.mut = r.readByte() == 0x01;
            g.init = readConstExpr(r);
            m.globals.push_back(std::move(g));
        }
    }

    void
    exportSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            std::string name = r.readName();
            uint8_t kind = r.readByte();
            uint32_t idx = r.readU32();
            auto checked = [&](auto &vec) -> decltype(vec.at(0)) {
                if (idx >= vec.size())
                    throw DecodeError("export index out of range");
                return vec[idx];
            };
            switch (kind) {
              case 0x00:
                checked(m.functions).exportNames.push_back(name);
                break;
              case 0x01:
                checked(m.tables).exportNames.push_back(name);
                break;
              case 0x02:
                checked(m.memories).exportNames.push_back(name);
                break;
              case 0x03:
                checked(m.globals).exportNames.push_back(name);
                break;
              default:
                throw DecodeError("invalid export kind");
            }
        }
    }

    void
    elementSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            ElementSegment seg;
            seg.tableIdx = r.readU32();
            seg.offset = readConstExpr(r);
            uint32_t n = r.readU32();
            for (uint32_t j = 0; j < n; ++j)
                seg.funcIdxs.push_back(r.readU32());
            m.elements.push_back(std::move(seg));
        }
    }

    /**
     * The entries' sizes are read serially first; then the bodies are
     * decoded on @p workers workers, each from its start to the end
     * of the section, so a body that overruns its size reads on
     * exactly as one reader through the section would. The error is
     * the one that reader stops at: the lowest failing body's, else
     * the split's.
     */
    void
    codeSection(ByteReader &r, unsigned workers)
    {
        uint32_t count = r.readU32();
        if (count != defined_func_types.size())
            throw DecodeError("code/function section count mismatch");
        uint32_t first_defined =
            static_cast<uint32_t>(m.functions.size()) - count;

        const uint8_t *entries = r.cursor();
        const size_t size = r.remaining();
        struct Entry {
            size_t begin, end; // body bytes, relative to `entries`
        };
        std::vector<Entry> bodies;
        bodies.reserve(count);
        std::exception_ptr split_error;
        size_t pos = 0;
        try {
            while (bodies.size() < count) {
                ByteReader e(entries + pos, size - pos);
                const uint32_t body_size = e.readU32();
                const size_t begin = pos + e.pos();
                bodies.push_back({begin, begin + body_size});
                // A body that overruns the section fails to decode,
                // and no later entry can be found.
                if (body_size > size - begin)
                    break;
                pos = begin + body_size;
            }
        } catch (const DecodeError &) {
            split_error = std::current_exception();
        }

        support::parallelFor(
            bodies.size(), support::workerCount(workers, bodies.size()),
            [&](size_t i, unsigned) {
                ByteReader b(entries + bodies[i].begin,
                             size - bodies[i].begin);
                Function &f = m.functions.at(first_defined + i);
                uint32_t num_locals = b.readU32();
                for (uint32_t j = 0; j < num_locals; ++j) {
                    uint32_t n = b.readU32();
                    ValType t = readValType(b);
                    // Cap to avoid absurd allocations on corrupt input.
                    if (f.locals.size() + n > kMaxLocals)
                        throw DecodeError("too many locals");
                    f.locals.insert(f.locals.end(), n, t);
                }
                f.labelPool.clear();
                f.body = readExpr(b, f.labelPool);
                if (bodies[i].begin + b.pos() != bodies[i].end)
                    throw DecodeError("code body size mismatch");
            });
        if (split_error)
            std::rethrow_exception(split_error);
        r.skip(pos);
    }

    void
    dataSection(ByteReader &r)
    {
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            DataSegment seg;
            seg.memIdx = r.readU32();
            seg.offset = readConstExpr(r);
            uint32_t n = r.readU32();
            seg.bytes = r.readBytes(n);
            m.data.push_back(std::move(seg));
        }
    }
};

} // namespace

Module
decodeModule(const uint8_t *data, size_t size, unsigned workers)
{
    ByteReader r(data, size);
    if (r.readFixedU32() != 0x6D736100)
        throw DecodeError("bad magic number");
    if (r.readFixedU32() != 1)
        throw DecodeError("unsupported version");

    Decoder d;
    int last_section = -1;
    while (!r.done()) {
        uint8_t id = r.readByte();
        uint32_t sec_size = r.readU32();
        if (r.remaining() < sec_size)
            throw DecodeError("section size exceeds input");
        ByteReader sec(data + r.pos(), sec_size);
        // Non-custom sections must appear in order, at most once.
        if (id != kCustom) {
            if (id <= last_section)
                throw DecodeError("section out of order");
            last_section = id;
        }
        switch (id) {
          case kCustom: {
            CustomSection c;
            c.name = sec.readName();
            c.bytes = sec.readBytes(sec.remaining());
            d.m.customs.push_back(std::move(c));
            break;
          }
          case kType: d.typeSection(sec); break;
          case kImport: d.importSection(sec); break;
          case kFunction: d.functionSection(sec); break;
          case kTable: d.tableSection(sec); break;
          case kMemory: d.memorySection(sec); break;
          case kGlobal: d.globalSection(sec); break;
          case kExport: d.exportSection(sec); break;
          case kStart: d.m.start = sec.readU32(); break;
          case kElement: d.elementSection(sec); break;
          case kCode: d.codeSection(sec, workers); break;
          case kData: d.dataSection(sec); break;
          default:
            throw DecodeError("unknown section id");
        }
        if (id != kCustom && !sec.done())
            throw DecodeError("trailing bytes in section");
        // Advance past the section regardless.
        r.skip(sec_size);
    }
    for (const Function &f : d.m.functions) {
        if (!f.imported() && f.body.empty())
            throw DecodeError("defined function without code body");
    }
    return std::move(d.m);
}

Module
decodeModule(const std::vector<uint8_t> &bytes, unsigned workers)
{
    return decodeModule(bytes.data(), bytes.size(), workers);
}

} // namespace wasabi::wasm
