/**
 * @file
 * Figure-9-style overhead comparison of the two instrumentation modes
 * (DESIGN.md §12): for each selectively instrumented hook kind, the
 * runtime of (a) the AOT-rewritten module and (b) the engine-intrinsic
 * run, both relative to the uninstrumented fast-engine baseline, with
 * an empty analysis attached. Intrinsic mode dispatches hooks straight
 * from the fast engine's inner loop — no low-level hook imports, no
 * host-call transitions, no i64 splitting — so its overhead should sit
 * strictly below rewrite mode, most visibly for the memory-access and
 * call hook kinds where rewrite mode pays one host call per event.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/intrinsic_info.h"
#include "wasm/builder.h"

using namespace wasabi;
using namespace wasabi::bench;

namespace {

double
median3(double a, double b, double c)
{
    if (a > b)
        std::swap(a, b);
    if (b > c)
        std::swap(b, c);
    if (a > b)
        std::swap(a, b);
    return b;
}

/** Median-of-3 seconds of the AOT-rewritten module on the fast engine
 * (one instrumentation shared across the repetitions). */
double
rewriteSeconds(const workloads::Workload &w, core::HookSet hooks)
{
    core::InstrumentResult r = core::instrument(w.module, hooks);
    runtime::WasabiRuntime rt(r.info);
    EmptyAnalysis empty(hooks);
    rt.addAnalysis(&empty);
    interp::Interpreter interp;
    interp.engine = interp::EngineKind::Fast;
    auto once = [&] {
        auto inst = rt.instantiate(r.module);
        return timeSeconds(
            [&] { interp.invokeExport(*inst, w.entry, w.args); });
    };
    return median3(once(), once(), once());
}

/** Median-of-3 seconds of the original module with engine-intrinsic
 * hooks (one side-table build shared across the repetitions). */
double
intrinsicSeconds(const workloads::Workload &w, core::HookSet hooks)
{
    auto info = core::buildIntrinsicInfo(w.module, hooks);
    runtime::WasabiRuntime rt(info);
    EmptyAnalysis empty(hooks);
    rt.addAnalysis(&empty);
    interp::Interpreter interp;
    interp.engine = interp::EngineKind::Fast;
    auto once = [&] {
        auto inst = rt.instantiateIntrinsic(w.module);
        return timeSeconds(
            [&] { interp.invokeExport(*inst, w.entry, w.args); });
    };
    return median3(once(), once(), once());
}

/** Median-of-5 uninstrumented fast-engine seconds. */
double
baselineSeconds(const workloads::Workload &w)
{
    std::vector<double> t;
    for (int i = 0; i < 5; ++i)
        t.push_back(runOriginalSeconds(w, interp::EngineKind::Fast));
    std::sort(t.begin(), t.end());
    return t[2];
}

/** A loop that is almost nothing but direct calls — the workload on
 * which the per-call cost of the two modes actually dominates (the
 * PolyBench kernels and even the synthetic app execute too few calls
 * per retired instruction to lift call-hook overhead above noise). */
workloads::Workload
callHeavyWorkload(int iterations)
{
    wasm::ModuleBuilder mb;
    const wasm::FuncType callee_ty({wasm::ValType::I32, wasm::ValType::I32},
                                   {wasm::ValType::I32});
    uint32_t callee =
        mb.addFunction(callee_ty, "", [](wasm::FunctionBuilder &f) {
            f.localGet(0).localGet(1).op(wasm::Opcode::I32Add);
        });
    const wasm::FuncType main_ty({}, {wasm::ValType::I32});
    mb.addFunction(main_ty, "kernel", [&](wasm::FunctionBuilder &f) {
        uint32_t i = f.addLocal(wasm::ValType::I32);
        uint32_t acc = f.addLocal(wasm::ValType::I32);
        f.forLoop(i, 0, iterations, [&] {
            f.localGet(acc).localGet(i).call(callee).localSet(acc);
        });
        f.localGet(acc);
    });
    workloads::Workload w;
    w.name = "call-heavy";
    w.module = mb.build();
    return w;
}

bool
isMemoryAccessKind(core::HookKind kind)
{
    return kind == core::HookKind::Load || kind == core::HookKind::Store ||
           kind == core::HookKind::MemorySize ||
           kind == core::HookKind::MemoryGrow;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::string json_out;
    std::string commit;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--json=", 0) == 0)
            json_out = a.substr(7);
        else if (a.rfind("--commit=", 0) == 0)
            commit = a.substr(9);
        else
            positional.push_back(a);
    }
    const int n = positional.size() > 0 ? std::atoi(positional[0].c_str())
                                        : 40;
    const int poly_subset =
        positional.size() > 1 ? std::atoi(positional[1].c_str()) : 6;

    // A kernel subset spanning blas / solver / stencil categories keeps
    // the 21-hook sweep affordable (same sampling as bench_fig9); the
    // pspdfkit-like app rides along so the call hook kind is measured
    // on a call-dense workload, not just loop-dominated kernels.
    std::vector<workloads::Workload> poly;
    {
        auto names = workloads::polybenchNames();
        for (size_t i = 0;
             i < names.size() &&
             poly.size() < static_cast<size_t>(poly_subset);
             i += names.size() / poly_subset) {
            poly.push_back(workloads::polybench(names[i], n));
        }
    }
    const size_t poly_count = poly.size();
    poly.push_back(workloads::syntheticApp(workloads::AppSize::PdfkitLike));
    poly.push_back(callHeavyWorkload(300000));

    std::printf("=== Instrumentation-mode overhead per hook kind "
                "(empty analysis, fast engine) ===\n");
    std::printf("PolyBench n=%d (%zu kernels) plus pspdfkit-like app "
                "and a call-heavy loop; relative to the uninstrumented "
                "fast engine\n\n",
                n, poly_count);
    std::printf("%-12s %12s %12s %10s\n", "hook", "rewrite",
                "intrinsic", "ratio");
    std::fflush(stdout);

    std::vector<double> base;
    for (const auto &w : poly)
        base.push_back(baselineSeconds(w));

    std::string rows_json;
    std::vector<double> rewrite_all, intrinsic_all;
    std::vector<double> rewrite_mem, intrinsic_mem;
    std::vector<double> rewrite_call, intrinsic_call;
    for (core::HookKind kind : core::figureOrderHookKinds()) {
        core::HookSet set = core::HookSet::only(kind);
        std::vector<double> rw, in;
        for (size_t i = 0; i < poly.size(); ++i) {
            rw.push_back(rewriteSeconds(poly[i], set) / base[i]);
            in.push_back(intrinsicSeconds(poly[i], set) / base[i]);
        }
        double rw_geo = geomean(rw);
        double in_geo = geomean(in);
        rewrite_all.push_back(rw_geo);
        intrinsic_all.push_back(in_geo);
        if (isMemoryAccessKind(kind)) {
            rewrite_mem.push_back(rw_geo);
            intrinsic_mem.push_back(in_geo);
        }
        if (kind == core::HookKind::Call) {
            rewrite_call.push_back(rw_geo);
            intrinsic_call.push_back(in_geo);
        }
        std::printf("%-12s %11.2fx %11.2fx %9.2fx\n", name(kind),
                    rw_geo, in_geo, in_geo > 0 ? rw_geo / in_geo : 0);
        std::fflush(stdout);
        char row[160];
        std::snprintf(row, sizeof row,
                      "%s\n      {\"hook\": \"%s\", \"rewrite\": %.4f, "
                      "\"intrinsic\": %.4f}",
                      rows_json.empty() ? "" : ",", name(kind), rw_geo,
                      in_geo);
        rows_json += row;
    }

    // The "all hooks" row, per mode.
    core::HookSet all = core::HookSet::all();
    std::vector<double> rw_all_rel, in_all_rel;
    for (size_t i = 0; i < poly.size(); ++i) {
        rw_all_rel.push_back(rewriteSeconds(poly[i], all) / base[i]);
        in_all_rel.push_back(intrinsicSeconds(poly[i], all) / base[i]);
    }
    double rw_all = geomean(rw_all_rel);
    double in_all = geomean(in_all_rel);
    std::printf("%-12s %11.2fx %11.2fx %9.2fx\n", "ALL", rw_all, in_all,
                in_all > 0 ? rw_all / in_all : 0);

    double rw_mem_geo = geomean(rewrite_mem);
    double in_mem_geo = geomean(intrinsic_mem);
    double rw_call_geo = geomean(rewrite_call);
    double in_call_geo = geomean(intrinsic_call);
    bool mem_ok = in_mem_geo < rw_mem_geo;
    bool call_ok = in_call_geo < rw_call_geo;
    std::printf("\nmemory-access geomean: rewrite %.2fx, intrinsic "
                "%.2fx  [%s]\n",
                rw_mem_geo, in_mem_geo, mem_ok ? "intrinsic wins" : "!!");
    std::printf("call geomean:          rewrite %.2fx, intrinsic "
                "%.2fx  [%s]\n",
                rw_call_geo, in_call_geo,
                call_ok ? "intrinsic wins" : "!!");
    std::printf("all-kind geomean:      rewrite %.2fx, intrinsic "
                "%.2fx\n",
                geomean(rewrite_all), geomean(intrinsic_all));

    if (!json_out.empty()) {
        char summary[512];
        std::snprintf(
            summary, sizeof summary,
            "{\"rewrite\": {\"all\": %.4f, \"memoryAccess\": %.4f, "
            "\"call\": %.4f}, \"intrinsic\": {\"all\": %.4f, "
            "\"memoryAccess\": %.4f, \"call\": %.4f}}",
            geomean(rewrite_all), rw_mem_geo, rw_call_geo,
            geomean(intrinsic_all), in_mem_geo, in_call_geo);
        char all_row[128];
        std::snprintf(all_row, sizeof all_row,
                      "{\"rewrite\": %.4f, \"intrinsic\": %.4f}", rw_all,
                      in_all);
        writeBenchProfileJson(
            json_out, "intrinsic_overhead",
            {{"host", hostJson(commit)},
             {"n", std::to_string(n)},
             {"polybenchKernels", std::to_string(poly_count)},
             {"extraWorkloads",
              "[\"pspdfkit-like\", \"call-heavy\"]"},
             {"perHook", "[" + rows_json + "\n    ]"},
             {"all", all_row},
             {"geomeans", summary},
             {"intrinsicBelowRewrite",
              std::string("{\"memoryAccess\": ") +
                  (mem_ok ? "true" : "false") +
                  ", \"call\": " + (call_ok ? "true" : "false") + "}"}});
        std::printf("wrote %s\n", json_out.c_str());
    }
    // The acceptance criterion this bench pins: intrinsic dispatch must
    // be strictly cheaper than rewrite-mode host calls for the
    // memory-access and call hook kinds.
    return mem_ok && call_ok ? 0 : 1;
}
