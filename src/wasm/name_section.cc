#include "wasm/name_section.h"

#include <algorithm>

#include "wasm/leb128.h"

namespace wasabi::wasm {

namespace {

const CustomSection *
findNameSection(const Module &m)
{
    for (const CustomSection &c : m.customs) {
        if (c.name == "name")
            return &c;
    }
    return nullptr;
}

NameMap
readNameMap(ByteReader &r)
{
    NameMap names;
    uint32_t count = r.readU32();
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t idx = r.readU32();
        std::string name = r.readName();
        names.push_back({idx, std::move(name)});
    }
    return names;
}

IndirectNameMap
readIndirectNameMap(ByteReader &r)
{
    IndirectNameMap maps;
    uint32_t count = r.readU32();
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t func_idx = r.readU32();
        maps.push_back({func_idx, readNameMap(r)});
    }
    return maps;
}

void
writeName(std::vector<uint8_t> &out, const std::string &name)
{
    encodeULEB(out, name.size());
    out.insert(out.end(), name.begin(), name.end());
}

void
writeNameMap(std::vector<uint8_t> &out, const NameMap &names)
{
    encodeULEB(out, names.size());
    for (const auto &[idx, name] : names) {
        encodeULEB(out, idx);
        writeName(out, name);
    }
}

void
writeIndirectNameMap(std::vector<uint8_t> &out, const IndirectNameMap &maps)
{
    encodeULEB(out, maps.size());
    for (const auto &[func_idx, names] : maps) {
        encodeULEB(out, func_idx);
        writeNameMap(out, names);
    }
}

void
writeSubsection(std::vector<uint8_t> &payload, uint8_t id,
                const std::vector<uint8_t> &sub)
{
    payload.push_back(id);
    encodeULEB(payload, sub.size());
    payload.insert(payload.end(), sub.begin(), sub.end());
}

} // namespace

size_t
applyNameSection(Module &m)
{
    const CustomSection *section = findNameSection(m);
    if (section == nullptr)
        return 0;

    size_t applied = 0;
    try {
        ByteReader r(section->bytes);
        while (!r.done()) {
            uint8_t id = r.readByte();
            uint32_t size = r.readU32();
            if (id != 1) {
                // Skip module/local/other name subsections.
                r.readBytes(size);
                continue;
            }
            ByteReader sub(section->bytes.data() + r.pos(), size);
            uint32_t count = sub.readU32();
            for (uint32_t i = 0; i < count; ++i) {
                uint32_t func_idx = sub.readU32();
                std::string name = sub.readName();
                if (func_idx < m.functions.size()) {
                    m.functions[func_idx].debugName = std::move(name);
                    ++applied;
                }
            }
            r.readBytes(size);
        }
    } catch (const DecodeError &) {
        // Name payloads are non-semantic; ignore malformed ones.
    }
    return applied;
}

void
buildNameSection(Module &m)
{
    // Collect named functions.
    std::vector<std::pair<uint32_t, const std::string *>> names;
    for (uint32_t i = 0; i < m.functions.size(); ++i) {
        if (!m.functions[i].debugName.empty())
            names.push_back({i, &m.functions[i].debugName});
    }

    // Drop any existing name section.
    std::erase_if(m.customs, [](const CustomSection &c) {
        return c.name == "name";
    });
    if (names.empty())
        return;

    std::vector<uint8_t> payload;
    // Subsection 1: function names.
    std::vector<uint8_t> sub;
    encodeULEB(sub, names.size());
    for (auto [idx, name] : names) {
        encodeULEB(sub, idx);
        encodeULEB(sub, name->size());
        sub.insert(sub.end(), name->begin(), name->end());
    }
    payload.push_back(1);
    encodeULEB(payload, sub.size());
    payload.insert(payload.end(), sub.begin(), sub.end());

    m.customs.push_back({"name", std::move(payload)});
}

std::string
functionName(const Module &m, uint32_t func_idx)
{
    if (func_idx < m.functions.size()) {
        const Function &f = m.functions[func_idx];
        if (!f.debugName.empty())
            return f.debugName;
        if (!f.exportNames.empty())
            return f.exportNames.front();
        if (f.imported())
            return f.import->module + "." + f.import->name;
    }
    return "f" + std::to_string(func_idx);
}

NameSectionData
parseNameSection(const Module &m)
{
    NameSectionData data;
    const CustomSection *section = findNameSection(m);
    if (section == nullptr)
        return data;

    try {
        ByteReader r(section->bytes);
        while (!r.done()) {
            uint8_t id = r.readByte();
            uint32_t size = r.readU32();
            ByteReader sub(section->bytes.data() + r.pos(), size);
            switch (id) {
              case 0:
                data.moduleName = sub.readName();
                break;
              case 1:
                data.funcNames = readNameMap(sub);
                break;
              case 2:
                data.localNames = readIndirectNameMap(sub);
                break;
              case 3:
                data.labelNames = readIndirectNameMap(sub);
                break;
              default:
                break; // unknown subsection: skipped
            }
            r.readBytes(size);
        }
    } catch (const DecodeError &) {
        // Keep whatever parsed cleanly before the malformed part.
    }
    return data;
}

void
setNameSection(Module &m, const NameSectionData &data)
{
    std::erase_if(m.customs, [](const CustomSection &c) {
        return c.name == "name";
    });
    if (data.empty())
        return;

    std::vector<uint8_t> payload;
    std::vector<uint8_t> sub;
    if (data.moduleName) {
        writeName(sub, *data.moduleName);
        writeSubsection(payload, 0, sub);
    }
    if (!data.funcNames.empty()) {
        sub.clear();
        writeNameMap(sub, data.funcNames);
        writeSubsection(payload, 1, sub);
    }
    if (!data.localNames.empty()) {
        sub.clear();
        writeIndirectNameMap(sub, data.localNames);
        writeSubsection(payload, 2, sub);
    }
    if (!data.labelNames.empty()) {
        sub.clear();
        writeIndirectNameMap(sub, data.labelNames);
        writeSubsection(payload, 3, sub);
    }
    m.customs.push_back({"name", std::move(payload)});
}

namespace {

uint32_t
mappedFunc(const std::vector<uint32_t> &func_map, uint32_t old_idx)
{
    if (func_map.empty())
        return old_idx;
    if (old_idx >= func_map.size())
        return kDeletedIndex;
    return func_map[old_idx];
}

void
remapIndirect(IndirectNameMap &maps,
              const std::vector<uint32_t> &func_map)
{
    IndirectNameMap out;
    for (auto &[old_idx, names] : maps) {
        uint32_t new_idx = mappedFunc(func_map, old_idx);
        if (new_idx != kDeletedIndex)
            out.push_back({new_idx, std::move(names)});
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    maps = std::move(out);
}

} // namespace

void
remapNameData(NameSectionData &data, const std::vector<uint32_t> &func_map)
{
    NameMap funcs;
    for (auto &[old_idx, name] : data.funcNames) {
        uint32_t new_idx = mappedFunc(func_map, old_idx);
        if (new_idx != kDeletedIndex)
            funcs.push_back({new_idx, std::move(name)});
    }
    std::sort(funcs.begin(), funcs.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    data.funcNames = std::move(funcs);
    remapIndirect(data.localNames, func_map);
    remapIndirect(data.labelNames, func_map);
}

} // namespace wasabi::wasm
