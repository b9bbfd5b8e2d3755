/**
 * @file
 * Runtime tests for less-traveled hook paths: the start hook, i64
 * globals through the split ABI, memory.size/grow dynamics, nop and
 * unreachable hooks, hook behavior across traps, binding the hooks
 * once per runtime, and hooks called where they have no site.
 */

#include <gtest/gtest.h>

#include "core/instrument.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "wasm/builder.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"

namespace wasabi::runtime {
namespace {

using core::HookKind;
using core::HookSet;
using core::instrument;
using core::InstrumentResult;
using interp::Interpreter;
using interp::Trap;
using wasm::Module;
using wasm::Value;

/** Analysis recording a flat list of event strings. */
class Recorder final : public Analysis {
  public:
    explicit Recorder(HookSet set) : set_(set) {}
    HookSet hooks() const override { return set_; }

    std::vector<std::string> events;

    void
    onStart(Location loc) override
    {
        events.push_back("start f" + std::to_string(loc.func));
    }
    void onNop(Location) override { events.push_back("nop"); }
    void
    onUnreachable(Location) override
    {
        events.push_back("unreachable");
    }
    void
    onGlobal(Location, wasm::Opcode op, uint32_t idx,
             wasm::Value v) override
    {
        events.push_back(std::string(wasm::name(op)) + " g" +
                         std::to_string(idx) + "=" + toString(v));
    }
    void
    onMemorySize(Location, uint32_t pages) override
    {
        events.push_back("memory.size=" + std::to_string(pages));
    }
    void
    onMemoryGrow(Location, uint32_t delta, uint32_t prev) override
    {
        events.push_back("memory.grow delta=" + std::to_string(delta) +
                         " prev=" + std::to_string(prev));
    }

  private:
    HookSet set_;
};

std::unique_ptr<interp::Instance>
runWith(const Module &m, Analysis &a, WasabiRuntime &rt,
        const char *entry = nullptr)
{
    InstrumentResult r = instrument(m, a.hooks());
    EXPECT_EQ(validationError(r.module), std::nullopt);
    rt = WasabiRuntime(r.info);
    rt.addAnalysis(&a);
    auto inst = rt.instantiate(r.module);
    if (entry != nullptr) {
        Interpreter interp;
        interp.invokeExport(*inst, entry, {});
    }
    return inst;
}

TEST(RuntimeExtra, StartHookFiresDuringInstantiation)
{
    Module m = wasm::parseWat(R"((module
        (global $g (mut i32) (i32.const 0))
        (func $boot i32.const 7 global.set $g)
        (start $boot)))");
    Recorder rec(HookSet{HookKind::Start});
    WasabiRuntime rt(nullptr);
    auto inst = runWith(m, rec, rt);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_EQ(rec.events[0], "start f0");
    EXPECT_EQ(inst->globalGet(0).i32(), 7u);
}

TEST(RuntimeExtra, I64GlobalValueCrossesTheSplitAbi)
{
    Module m = wasm::parseWat(R"((module
        (global $g (mut i64) (i64.const 0))
        (func (export "f")
            i64.const 0x0123456789ABCDEF
            global.set $g
            global.get $g
            drop)))");
    Recorder rec(HookSet{HookKind::Global});
    WasabiRuntime rt(nullptr);
    runWith(m, rec, rt, "f");
    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_EQ(rec.events[0], "global.set g0=i64:81985529216486895");
    EXPECT_EQ(rec.events[1], "global.get g0=i64:81985529216486895");
}

TEST(RuntimeExtra, MemorySizeAndGrowDynamics)
{
    Module m = wasm::parseWat(R"((module
        (memory 1 4)
        (func (export "f")
            memory.size drop
            i32.const 2 memory.grow drop
            memory.size drop
            i32.const 99 memory.grow drop)))"); // fails -> prev = -1
    Recorder rec(HookSet{HookKind::MemorySize, HookKind::MemoryGrow});
    WasabiRuntime rt(nullptr);
    runWith(m, rec, rt, "f");
    ASSERT_EQ(rec.events.size(), 4u);
    EXPECT_EQ(rec.events[0], "memory.size=1");
    EXPECT_EQ(rec.events[1], "memory.grow delta=2 prev=1");
    EXPECT_EQ(rec.events[2], "memory.size=3");
    EXPECT_EQ(rec.events[3],
              "memory.grow delta=99 prev=4294967295"); // -1: failed
}

TEST(RuntimeExtra, NopAndUnreachableHooks)
{
    Module m = wasm::parseWat(R"((module
        (func (export "f") nop nop unreachable)))");
    Recorder rec(HookSet{HookKind::Nop, HookKind::Unreachable});
    InstrumentResult r = instrument(m, rec.hooks());
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    auto inst = rt.instantiate(r.module);
    Interpreter interp;
    EXPECT_THROW(interp.invokeExport(*inst, "f", {}), Trap);
    // The unreachable hook fires *before* the trap (paper Table 2
    // includes it exactly so analyses can observe the abort).
    ASSERT_EQ(rec.events.size(), 3u);
    EXPECT_EQ(rec.events[0], "nop");
    EXPECT_EQ(rec.events[1], "nop");
    EXPECT_EQ(rec.events[2], "unreachable");
}

TEST(RuntimeExtra, HooksBeforeTrappingInstructionStillFire)
{
    Module m = wasm::parseWat(R"((module
        (memory 1)
        (func (export "f") (result i32)
            i32.const 999999999 ;; way out of bounds
            i32.load)))");
    class Counter final : public Analysis {
      public:
        HookSet
        hooks() const override
        {
            return HookSet{HookKind::Load, HookKind::Const};
        }
        int loads = 0;
        int consts = 0;
        void
        onLoad(Location, wasm::Opcode, MemArg, wasm::Value) override
        {
            ++loads;
        }
        void
        onConst(Location, wasm::Opcode, wasm::Value) override
        {
            ++consts;
        }
    } counter;
    InstrumentResult r = instrument(m, counter.hooks());
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&counter);
    auto inst = rt.instantiate(r.module);
    Interpreter interp;
    EXPECT_THROW(interp.invokeExport(*inst, "f", {}), Trap);
    // The const before the load was observed; the load hook was not
    // reached (it sits after the instruction, which trapped).
    EXPECT_EQ(counter.consts, 1);
    EXPECT_EQ(counter.loads, 0);
}

// --- hook-dispatch hardening ----------------------------------------
// Regression: a module whose hook import is mis-typed (fewer params
// than the runtime dispatches with) used to make dispatch() read past
// the caller's argument span. It must now fail loudly instead.

/** Instrument a one-const module so the StaticInfo carries exactly
 * the i32.const hook spec. */
InstrumentResult
constHookInfo()
{
    wasm::ModuleBuilder mb;
    mb.addFunction(wasm::FuncType({}, {wasm::ValType::I32}), "main",
                   [](wasm::FunctionBuilder &f) { f.i32Const(7); });
    return instrument(mb.build(), HookSet::only(HookKind::Const));
}

TEST(DispatchHardening, MistypedHookImportFailsAtLinkTime)
{
    InstrumentResult r = constHookInfo();
    // Tamper: retype the i32.const hook import to (i32) -> () — one
    // param instead of (func, instr, value).
    Module tampered = r.module;
    for (wasm::Function &f : tampered.functions) {
        if (f.imported() && f.import->module == "wasabi")
            f.typeIdx = tampered.addType(
                wasm::FuncType({wasm::ValType::I32}, {}));
    }
    Recorder rec(HookSet::only(HookKind::Const));
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    EXPECT_THROW(rt.instantiate(tampered), interp::LinkError);
    try {
        rt.instantiate(tampered);
        FAIL() << "expected LinkError";
    } catch (const interp::LinkError &e) {
        EXPECT_NE(std::string(e.what()).find("i32.const"),
                  std::string::npos);
    }
}

TEST(DispatchHardening, UnknownHookImportFailsAtLinkTime)
{
    InstrumentResult r = constHookInfo();
    Module tampered = r.module;
    for (wasm::Function &f : tampered.functions) {
        if (f.imported() && f.import->module == "wasabi")
            f.import->name = "no.such.hook";
    }
    Recorder rec(HookSet::only(HookKind::Const));
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    EXPECT_THROW(rt.instantiate(tampered), interp::LinkError);
}

TEST(DispatchHardening, ShortArgumentSpanTrapsInsteadOfOOBRead)
{
    // Bypass the link-time check by binding the hooks into a plain
    // Linker and instantiating a handcrafted module that imports the
    // i32.const hook with only ONE parameter and calls it: the raw
    // argument span at dispatch is shorter than (func, instr, value).
    InstrumentResult r = constHookInfo();
    wasm::ModuleBuilder mb;
    mb.importFunction("wasabi", "i32.const",
                      wasm::FuncType({wasm::ValType::I32}, {}));
    mb.addFunction(wasm::FuncType({}, {}), "main",
                   [](wasm::FunctionBuilder &f) {
                       f.i32Const(7);
                       f.call(0);
                   });
    Module caller = mb.build();
    ASSERT_EQ(validationError(caller), std::nullopt);

    Recorder rec(HookSet::only(HookKind::Const));
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    interp::Linker linker;
    rt.bindHooks(linker);
    auto inst = interp::Instance::instantiate(caller, linker);
    Interpreter interp;
    try {
        interp.invokeExport(*inst, "main", {});
        FAIL() << "expected a trap";
    } catch (const Trap &t) {
        EXPECT_EQ(t.kind(), interp::TrapKind::HostError);
        EXPECT_NE(std::string(t.what()).find("arity"),
                  std::string::npos);
    }
    EXPECT_TRUE(rec.events.empty());
    EXPECT_EQ(rt.hookInvocations(), 0u);
}

TEST(DispatchHardening, OversizedArgumentSpanTrapsToo)
{
    InstrumentResult r = constHookInfo();
    wasm::ModuleBuilder mb;
    mb.importFunction("wasabi", "i32.const",
                      wasm::FuncType({wasm::ValType::I32,
                                      wasm::ValType::I32,
                                      wasm::ValType::I32,
                                      wasm::ValType::I32},
                                     {}));
    mb.addFunction(wasm::FuncType({}, {}), "main",
                   [](wasm::FunctionBuilder &f) {
                       f.i32Const(0).i32Const(0).i32Const(7).i32Const(9);
                       f.call(0);
                   });
    Module caller = mb.build();
    ASSERT_EQ(validationError(caller), std::nullopt);

    Recorder rec(HookSet::only(HookKind::Const));
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    interp::Linker linker;
    rt.bindHooks(linker);
    auto inst = interp::Instance::instantiate(caller, linker);
    Interpreter interp;
    EXPECT_THROW(interp.invokeExport(*inst, "main", {}), Trap);
    EXPECT_EQ(rt.hookInvocations(), 0u);
}

TEST(RuntimeExtra, SecondInstantiateKeepsOneBindingPerHook)
{
    // The dispatch state is bound once per runtime: instantiating
    // again must neither grow it nor break the first instance.
    Module m = wasm::parseWat(R"((module
        (global $g (mut i32) (i32.const 0))
        (func (export "f")
            global.get $g
            i32.const 1
            i32.add
            global.set $g)))");
    Recorder rec(HookSet{HookKind::Global});
    InstrumentResult r = instrument(m, rec.hooks());
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    const size_t hooks = r.info->hooks.size();
    ASSERT_EQ(rt.boundHookCount(), hooks);
    auto first = rt.instantiate(r.module);
    auto second = rt.instantiate(r.module);
    EXPECT_EQ(rt.boundHookCount(), hooks);

    Interpreter interp;
    interp.invokeExport(*first, "f", {});
    interp.invokeExport(*second, "f", {});
    interp.invokeExport(*second, "f", {});
    EXPECT_EQ(rt.hookInvocations(), 6u);
    EXPECT_EQ(rec.events,
              (std::vector<std::string>{
                  "global.get g0=i32:0", "global.set g0=i32:1",
                  "global.get g0=i32:0", "global.set g0=i32:1",
                  "global.get g0=i32:1", "global.set g0=i32:2"}));
    EXPECT_EQ(rt.boundHookCount(), hooks);
}

TEST(RuntimeExtra, HookCalledWhereItHasNoSiteTraps)
{
    // A pre-resolved hook (its global index is a static operand)
    // called at a location where the module has no such site must
    // trap with a diagnostic, not read another site's operand.
    Module m = wasm::parseWat(R"((module
        (global $g (mut i32) (i32.const 0))
        (func (export "f") global.get $g drop)))");
    InstrumentResult r = instrument(m, HookSet::only(HookKind::Global));
    ASSERT_EQ(r.info->hooks.size(), 1u);
    const core::HookSpec &spec = r.info->hooks[0];
    wasm::ModuleBuilder mb;
    mb.importFunction("wasabi", core::mangledName(spec),
                      core::lowLevelType(spec, r.info->splitI64));
    mb.addFunction(wasm::FuncType({}, {}), "main",
                   [](wasm::FunctionBuilder &f) {
                       // func 0, instr 1 is the `drop`.
                       f.i32Const(0).i32Const(1).i32Const(5);
                       f.call(0);
                   });
    Module caller = mb.build();
    ASSERT_EQ(validationError(caller), std::nullopt);

    Recorder rec(HookSet::only(HookKind::Global));
    WasabiRuntime rt(r.info);
    rt.addAnalysis(&rec);
    interp::Linker linker;
    rt.bindHooks(linker);
    auto inst = interp::Instance::instantiate(caller, linker);
    try {
        Interpreter().invokeExport(*inst, "main", {});
        FAIL() << "expected a trap";
    } catch (const Trap &t) {
        EXPECT_EQ(t.kind(), interp::TrapKind::HostError);
        EXPECT_NE(std::string(t.what()).find("no such hook site"),
                  std::string::npos)
            << t.what();
    }
    EXPECT_TRUE(rec.events.empty());
}

} // namespace
} // namespace wasabi::runtime
