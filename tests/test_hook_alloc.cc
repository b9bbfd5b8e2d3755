/**
 * @file
 * Hook dispatch allocates nothing per event. This test binary replaces
 * the global operator new with a counting one and runs hook-heavy
 * workloads with the `mix` analysis (every hook kind) in rewrite mode
 * and in intrinsic mode, both counted (counter probes, DESIGN.md §12)
 * and hooked: after a warm-up run (which translates the code and sizes
 * every buffer), a run of more than 100k hook events must perform
 * only a small, event-independent number of heap allocations.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "analyses/instruction_mix.h"
#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "hook_stream_recorder.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "wasm/validator.h"
#include "wasm/wat_parser.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"

namespace {

/** Heap allocations counted while `counting` is set. */
bool counting = false;
uint64_t allocations = 0;

void *
countedAlloc(std::size_t size)
{
    if (counting)
        ++allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (counting)
        ++allocations;
    const std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace wasabi {
namespace {

using core::HookSet;
using workloads::Workload;

/** Upper bound on the allocations of one warm run, whatever its
 * number of hook events: invokeExport's own argument and result
 * vectors and the like. */
constexpr uint64_t kMaxAllocations = 64;

struct Measured {
    uint64_t hooks = 0;
    uint64_t allocations = 0;
    analyses::InstructionMix mix; ///< of the measured run only
};

enum class Mode { Rewrite, Counted, Hooked };

/** Warm up, then count the heap allocations of one more run of @p w
 * with `mix` attached, in the given mode. */
void
measure(const Workload &w, Mode mode, Measured &out)
{
    ASSERT_EQ(validationError(w.module), std::nullopt);
    const HookSet kinds = HookSet::all();
    core::InstrumentResult r;
    std::shared_ptr<const core::StaticInfo> info;
    if (mode == Mode::Rewrite) {
        r = core::instrument(w.module, kinds);
        info = r.info;
    } else {
        info = core::buildIntrinsicInfo(w.module, kinds);
    }
    runtime::WasabiRuntime rt(info);
    analyses::InstructionMix warm;
    rt.addAnalysis(&warm);
    // A subscriber that counts nothing keeps intrinsic sites hooked.
    tests::HookedShadow shadow(kinds);
    if (mode == Mode::Hooked)
        rt.addAnalysis(&shadow);
    auto inst = mode == Mode::Rewrite ? rt.instantiate(r.module)
                                      : rt.instantiateIntrinsic(w.module);
    if (mode != Mode::Rewrite) {
        EXPECT_EQ(rt.countedKinds(),
                  mode == Mode::Counted ? kinds : HookSet{});
    }
    interp::Interpreter interp;
    interp.invokeExport(*inst, w.entry, w.args);

    // A second runtime on the same instance would need re-attaching;
    // keep the first and attach the measured analysis beside it. It
    // counts every kind too, so the attached translation still holds.
    rt.addAnalysis(&out.mix);
    const uint64_t before = rt.hookInvocations();
    allocations = 0;
    counting = true;
    interp.invokeExport(*inst, w.entry, w.args);
    counting = false;
    out.allocations = allocations;
    out.hooks = rt.hookInvocations() - before;
}

/** Every mode: > 100k events, more than @p min_seen of them
 * @p must_see, and fewer than kMaxAllocations allocations. */
void
expectAllocationFree(const Workload &w, const std::string &what,
                     const char *must_see, uint64_t min_seen)
{
    for (Mode m : {Mode::Rewrite, Mode::Counted, Mode::Hooked}) {
        const std::string mode =
            what + (m == Mode::Rewrite   ? " (rewrite)"
                    : m == Mode::Counted ? " (counted)"
                                         : " (hooked)");
        Measured out;
        measure(w, m, out);
        EXPECT_GT(out.hooks, 100000u) << mode;
        EXPECT_GT(out.mix.count(must_see), min_seen) << mode;
        EXPECT_LT(out.allocations, kMaxAllocations)
            << mode << ": " << out.hooks << " hook events";
    }
}

TEST(HookAlloc, GemmMixAllocatesNothingPerEvent)
{
    expectAllocationFree(workloads::polybench("gemm", 24), "gemm",
                         "f64.mul", 10000);
}

/** A random program run on a larger input: its loops run longer. */
Workload
randomWorkload(workloads::RandomProgramOptions opts, int32_t arg)
{
    Workload w = workloads::randomProgram(opts);
    w.args = {wasm::Value::makeI32(static_cast<uint32_t>(arg))};
    return w;
}

TEST(HookAlloc, BrTableHeavyRandomProgramAllocatesNothingPerEvent)
{
    workloads::RandomProgramOptions opts;
    opts.seed = 3;
    opts.numFunctions = 16;
    opts.stmtsPerFunction = 40;
    expectAllocationFree(randomWorkload(opts, 7), "random br_table",
                         "br_table", 10000);
}

TEST(HookAlloc, CallIndirectLoopAllocatesNothingPerEvent)
{
    // A loop of call_indirects with an i64 argument (split on the
    // rewrite-mode wire) alternating between two table entries.
    Workload w;
    w.module = wasm::parseWat(R"((module
        (type $t (func (param i32 i64) (result i32)))
        (table 2 2 funcref)
        (func $a (type $t) local.get 0)
        (func $b (type $t) local.get 0 i32.const 1 i32.add)
        (elem (i32.const 0) $a $b)
        (func (export "kernel") (result i32) (local $i i32) (local $acc i32)
            loop $l
                local.get $acc
                i64.const 0x123456789
                local.get $i
                i32.const 1
                i32.and
                call_indirect (type $t)
                local.set $acc
                local.get $i
                i32.const 1
                i32.add
                local.tee $i
                i32.const 20000
                i32.lt_u
                br_if $l
            end
            local.get $acc)))");
    expectAllocationFree(w, "call_indirect loop", "call_indirect", 10000);
}

TEST(HookAlloc, CallIndirectHeavyRandomProgramAllocatesNothingPerEvent)
{
    // Random programs make their indirect calls outside loops, so even
    // with one per statement they are a small share of the events.
    workloads::RandomProgramOptions opts;
    opts.seed = 5;
    opts.numFunctions = 24;
    opts.stmtsPerFunction = 40;
    opts.maxParams = 8;
    opts.indirectCallPct = 100;
    expectAllocationFree(randomWorkload(opts, 40), "random call_indirect",
                         "call_indirect", 100);
}

} // namespace
} // namespace wasabi
