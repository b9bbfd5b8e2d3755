#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload and metric by
metric.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are directories of run records (run.py writes one per
run to .bench_results/) or lists of record files, comma-separated. Run
i of BASE is paired with run i of CHANGE, in the order the runs were
made; alternate which side runs first.

For each workload x end-to-end metric it prints both sides' median and
quartiles, the relative change of the median, the share of pairs the
change wins (ties count for neither side), and a verdict:

  better        the change wins at least 9/10 of the pairs and the
                medians differ by more than the base's own spread;
  unresolved    either side's spread (IQR / median) exceeds the
                metric's bound, so a regression within it cannot be
                told from noise;
  worse         the change's median is worse than the base's by more
                than the bound;
  within bound  none of the above.

Exits 1 if any row is "worse", else 0.
"""

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WIN_SHARE = 0.9


def load_records(spec):
    files = []
    for part in spec.split(","):
        if os.path.isdir(part):
            files += glob.glob(os.path.join(part, "*.json"))
        else:
            files.append(part)
    records = []
    for f in files:
        if f.endswith(".spans.json"):
            continue
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("end_to_end") and not rec.get("trace"):
            records.append(rec)
    records.sort(key=lambda r: r["time"])
    return records


def compare_metric(base, change, better, bound):
    """One comparison row for two lists of values of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = stats.quartiles(base)
    c1, cmed, c3 = stats.quartiles(change)
    worsening = sign * (cmed - bmed) / bmed if bmed else 0.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0) / len(pairs)
    base_spread, change_spread = stats.spread(base), stats.spread(change)
    all_better = all(sign * (c - b) < 0 for b in base for c in change)
    if (wins >= WIN_SHARE and -worsening > base_spread) or all_better:
        verdict = "better"
    elif max(base_spread, change_spread) > bound:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"base": (b1, bmed, b3), "change": (c1, cmed, c3),
            "delta": (cmed - bmed) / bmed if bmed else 0.0,
            "wins": wins, "pairs": len(pairs),
            "spread": (base_spread, change_spread), "verdict": verdict}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, change = load_records(args.base), load_records(args.change)
    worse = False
    print("%-16s %-16s %26s %26s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "verdict"))
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["end_to_end"][name]["value"] for r in base
                  if r["workload"] == wl["name"] and name in r["end_to_end"]]
            cv = [r["end_to_end"][name]["value"] for r in change
                  if r["workload"] == wl["name"] and name in r["end_to_end"]]
            if not bv or not cv:
                continue
            row = compare_metric(bv, cv, metric["better"], metric["bound"])
            worse |= row["verdict"] == "worse"
            fmt = "%.4g [%.4g, %.4g]"
            print("%-16s %-16s %26s %26s %+7.2f%% %3d/%-2d  %s" % (
                wl["name"], name, fmt % (row["base"][1], row["base"][0],
                                         row["base"][2]),
                fmt % (row["change"][1], row["change"][0], row["change"][2]),
                100 * row["delta"], round(row["wins"] * row["pairs"]),
                row["pairs"], row["verdict"]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
