/**
 * @file
 * Reproduces **Figure 8** (RQ4, §4.5): binary size increase (percent
 * of the original size) per selectively-instrumented hook, for the
 * PolyBench mean and the two synthetic applications, plus the
 * "all hooks" configuration (paper: 495% - 743%).
 */

#include <array>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"

using namespace wasabi;
using namespace wasabi::bench;

namespace {

double
sizeIncreasePct(const wasm::Module &m, core::HookSet hooks)
{
    size_t base = binarySize(m);
    core::InstrumentResult r = core::instrument(m, hooks);
    size_t inst = binarySize(r.module);
    return 100.0 * (static_cast<double>(inst) - base) / base;
}

} // namespace

int
main(int argc, char **argv)
{
    const int n = argc > 1 ? std::atoi(argv[1]) : 20;

    auto suite = workloads::polybenchSuite(n);
    workloads::Workload pdfkit =
        workloads::syntheticApp(workloads::AppSize::PdfkitLike);
    workloads::Workload unreal =
        workloads::syntheticApp(workloads::AppSize::UnrealLike);

    std::printf("=== Figure 8: binary size increase per instrumented "
                "hook (%% of original size) ===\n\n");
    std::printf("%-12s %16s %16s %16s\n", "hook", "PolyBench(mean)",
                "pspdfkit-like", "unreal-like");

    auto measureSet = [&](core::HookSet set) {
        double poly = 0;
        for (const auto &w : suite)
            poly += sizeIncreasePct(w.module, set);
        poly /= static_cast<double>(suite.size());
        double pdf = sizeIncreasePct(pdfkit.module, set);
        double unr = sizeIncreasePct(unreal.module, set);
        return std::array<double, 3>{poly, pdf, unr};
    };

    for (core::HookKind kind : core::figureOrderHookKinds()) {
        auto v = measureSet(core::HookSet::only(kind));
        std::printf("%-12s %15.1f%% %15.1f%% %15.1f%%\n", name(kind),
                    v[0], v[1], v[2]);
    }
    auto all = measureSet(core::HookSet::all());
    std::printf("%-12s %15.1f%% %15.1f%% %15.1f%%\n", "ALL", all[0],
                all[1], all[2]);
    std::printf("\n(paper: most hooks <10%%; load/store 39-58%%, "
                "begin/end 11-84%%, const 59-71%%, local 128-180%%, "
                "binary 83-190%%; all 495-743%%)\n");
    return 0;
}
