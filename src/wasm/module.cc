#include "wasm/module.h"

#include <stdexcept>

namespace wasabi::wasm {

uint32_t
Module::addType(const FuncType &type)
{
    for (size_t i = 0; i < types.size(); ++i) {
        if (types[i] == type)
            return static_cast<uint32_t>(i);
    }
    types.push_back(type);
    return static_cast<uint32_t>(types.size() - 1);
}

const FuncType &
Module::funcType(uint32_t func_idx) const
{
    return types.at(functions.at(func_idx).typeIdx);
}

uint32_t
Module::numImportedFunctions() const
{
    uint32_t n = 0;
    for (const Function &f : functions) {
        if (f.imported())
            ++n;
        else
            break;
    }
    return n;
}

std::optional<uint32_t>
Module::findFuncExport(const std::string &name) const
{
    for (size_t i = 0; i < functions.size(); ++i) {
        for (const std::string &e : functions[i].exportNames) {
            if (e == name)
                return static_cast<uint32_t>(i);
        }
    }
    return std::nullopt;
}

std::string
Module::defaultEntry() const
{
    return !findFuncExport("main") && findFuncExport("kernel") ? "kernel"
                                                               : "main";
}

size_t
Module::numInstructions() const
{
    size_t n = 0;
    for (const Function &f : functions)
        n += f.body.size();
    return n;
}

} // namespace wasabi::wasm
