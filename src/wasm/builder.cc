#include "wasm/builder.h"

#include <stdexcept>

namespace wasabi::wasm {

FunctionBuilder &
FunctionBuilder::emit(Instr instr)
{
    if (finished_)
        throw std::logic_error("FunctionBuilder: emit after finish");
    mb_.m_.functions.at(funcIdx_).body.push_back(std::move(instr));
    return *this;
}

FunctionBuilder &
FunctionBuilder::brTable(const std::vector<uint32_t> &labels,
                         uint32_t default_label)
{
    if (finished_)
        throw std::logic_error("FunctionBuilder: emit after finish");
    Function &f = mb_.m_.functions.at(funcIdx_);
    return emit(Instr::brTable(f.labelPool, labels, default_label));
}

uint32_t
FunctionBuilder::addLocal(ValType t)
{
    Function &f = mb_.m_.functions.at(funcIdx_);
    f.locals.push_back(t);
    return numParams_ + static_cast<uint32_t>(f.locals.size()) - 1;
}

FunctionBuilder &
FunctionBuilder::block(BlockType bt)
{
    ++depth_;
    return emit(Instr::blockStart(Opcode::Block, bt));
}

FunctionBuilder &
FunctionBuilder::loop(BlockType bt)
{
    ++depth_;
    return emit(Instr::blockStart(Opcode::Loop, bt));
}

FunctionBuilder &
FunctionBuilder::if_(BlockType bt)
{
    ++depth_;
    return emit(Instr::blockStart(Opcode::If, bt));
}

FunctionBuilder &
FunctionBuilder::else_()
{
    return emit(Instr(Opcode::Else));
}

FunctionBuilder &
FunctionBuilder::end()
{
    if (depth_ <= 0)
        throw std::logic_error("FunctionBuilder: unbalanced end");
    --depth_;
    return emit(Instr(Opcode::End));
}

FunctionBuilder &
FunctionBuilder::forLoop(uint32_t local, int32_t from, int32_t to,
                         const std::function<void()> &body, int32_t step)
{
    // local = from
    i32Const(from);
    localSet(local);
    block();
    loop();
    // if (local >= to) break
    localGet(local);
    i32Const(to);
    op(Opcode::I32GeS);
    brIf(1);
    body();
    // local += step; continue
    localGet(local);
    i32Const(step);
    op(Opcode::I32Add);
    localSet(local);
    br(0);
    end(); // loop
    end(); // block
    return *this;
}

uint32_t
FunctionBuilder::finish()
{
    if (finished_)
        throw std::logic_error("FunctionBuilder: finish called twice");
    if (depth_ != 0)
        throw std::logic_error("FunctionBuilder: unbalanced blocks");
    emit(Instr(Opcode::End));
    finished_ = true;
    mb_.functionOpen_ = false;
    return funcIdx_;
}

ModuleBuilder::ModuleBuilder() = default;

uint32_t
ModuleBuilder::importFunction(const std::string &module,
                              const std::string &name, const FuncType &type)
{
    for (const Function &f : m_.functions) {
        if (!f.imported()) {
            throw std::logic_error(
                "ModuleBuilder: imports must precede defined functions");
        }
    }
    Function f;
    f.typeIdx = m_.addType(type);
    f.import = ImportRef{module, name};
    m_.functions.push_back(std::move(f));
    return static_cast<uint32_t>(m_.functions.size() - 1);
}

FunctionBuilder
ModuleBuilder::startFunction(const FuncType &type,
                             const std::string &export_name,
                             const std::string &debug_name)
{
    if (functionOpen_) {
        throw std::logic_error(
            "ModuleBuilder: previous function not finished");
    }
    functionOpen_ = true;
    Function f;
    f.typeIdx = m_.addType(type);
    if (!export_name.empty())
        f.exportNames.push_back(export_name);
    f.debugName = debug_name.empty() ? export_name : debug_name;
    m_.functions.push_back(std::move(f));
    return FunctionBuilder(*this,
                           static_cast<uint32_t>(m_.functions.size() - 1),
                           static_cast<uint32_t>(type.params.size()));
}

uint32_t
ModuleBuilder::addFunction(const FuncType &type,
                           const std::string &export_name,
                           const std::function<void(FunctionBuilder &)> &fill)
{
    FunctionBuilder fb = startFunction(type, export_name);
    fill(fb);
    return fb.finish();
}

uint32_t
ModuleBuilder::memory(uint32_t min_pages, std::optional<uint32_t> max_pages,
                      const std::string &export_name)
{
    Memory mem;
    mem.limits = Limits{min_pages, max_pages};
    if (!export_name.empty())
        mem.exportNames.push_back(export_name);
    m_.memories.push_back(std::move(mem));
    return static_cast<uint32_t>(m_.memories.size() - 1);
}

uint32_t
ModuleBuilder::table(uint32_t min, std::optional<uint32_t> max)
{
    Table t;
    t.limits = Limits{min, max};
    m_.tables.push_back(std::move(t));
    return static_cast<uint32_t>(m_.tables.size() - 1);
}

uint32_t
ModuleBuilder::global(ValType t, bool mut, Value init,
                      const std::string &export_name)
{
    Global g;
    g.type = t;
    g.mut = mut;
    Instr c;
    switch (t) {
      case ValType::I32: c = Instr::i32Const(init.i32()); break;
      case ValType::I64: c = Instr::i64Const(init.i64()); break;
      case ValType::F32: c = Instr::f32Const(init.f32()); break;
      case ValType::F64: c = Instr::f64Const(init.f64()); break;
    }
    g.init = {c, Instr(Opcode::End)};
    if (!export_name.empty())
        g.exportNames.push_back(export_name);
    m_.globals.push_back(std::move(g));
    return static_cast<uint32_t>(m_.globals.size() - 1);
}

void
ModuleBuilder::elem(uint32_t offset, std::vector<uint32_t> func_idxs)
{
    ElementSegment seg;
    seg.tableIdx = 0;
    seg.offset = {Instr::i32Const(offset), Instr(Opcode::End)};
    seg.funcIdxs = std::move(func_idxs);
    m_.elements.push_back(std::move(seg));
}

void
ModuleBuilder::data(uint32_t offset, std::vector<uint8_t> bytes)
{
    DataSegment seg;
    seg.memIdx = 0;
    seg.offset = {Instr::i32Const(offset), Instr(Opcode::End)};
    seg.bytes = std::move(bytes);
    m_.data.push_back(std::move(seg));
}

Module
ModuleBuilder::build()
{
    if (functionOpen_)
        throw std::logic_error("ModuleBuilder: unfinished function");
    return std::move(m_);
}

} // namespace wasabi::wasm
