#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each input holds one JSON line per run, as written by
`perfbench/run.py --save FILE` (untraced runs only are compared). For every
workload present in both files and every end-to-end metric, the medians of
the two sides are compared:

  unresolved  the base or the new runs spread wider than the bound
              (quartile distance over the median), so a difference of that
              size cannot be told from noise; not so when every new run is
              worse than every base run, or every new run is better
  regression  otherwise, the new median is worse than the base median by
              more than the metric's bound
  ok          neither

One row is printed per workload, followed by the metrics that were not ok.
The exit status is 1 when any pair regressed, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace", 0) != 0:
                continue
            runs.setdefault(r["workload"], []).append(r)
    return runs


def spread(xs):
    if len(xs) < 2:
        return 0.0
    med = statistics.median(xs)
    if len(xs) < 4:
        return (max(xs) - min(xs)) / med if med else 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / med if med else 0.0


def compare_metric(base, new, bound, higher_better):
    """Returns (verdict, relative change; positive = worse)."""
    b = statistics.median(base)
    n = statistics.median(new)
    if b == 0:
        return "ok", 0.0
    worse = (b - n) / b if higher_better else (n - b) / b
    if higher_better:
        all_better, all_worse = min(new) > max(base), max(new) < min(base)
    else:
        all_better, all_worse = max(new) < min(base), min(new) > max(base)
    noisy = max(spread(base), spread(new)) > bound
    if noisy and not (all_better or all_worse):
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    return "ok", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    base, new = load(args.base), load(args.new)
    regressed = False
    for wl in [w["name"] for w in bench["workloads"]]:
        if wl not in base or wl not in new:
            print(f"{wl:16s} missing from {'base' if wl not in base else 'new'} results")
            continue
        notes, counts = [], {"ok": 0, "regression": 0, "unresolved": 0}
        for m in metrics:
            name = m["name"]
            bs = [r["metrics"][name]["value"] for r in base[wl] if name in r["metrics"]]
            ns = [r["metrics"][name]["value"] for r in new[wl] if name in r["metrics"]]
            if not bs or not ns:
                notes.append(f"    {name}: not measured on both sides")
                counts["unresolved"] += 1
                continue
            verdict, worse = compare_metric(bs, ns, m["bound"], m["better"] == "higher")
            counts[verdict] += 1
            if verdict != "ok":
                moved = (f"{worse * 100:.1f}% worse" if worse > 0
                         else f"{-worse * 100:.1f}% better")
                notes.append(f"    {name}: {verdict}, {moved} "
                             f"(bound {m['bound'] * 100:.0f}%, spread base "
                             f"{spread(bs) * 100:.1f}% new {spread(ns) * 100:.1f}%, "
                             f"runs {len(bs)} vs {len(ns)})")
        regressed = regressed or counts["regression"] > 0
        print(f"{wl:16s} ok {counts['ok']:2d}  regression {counts['regression']:2d}  "
              f"unresolved {counts['unresolved']:2d}  "
              f"(runs: base {len(base[wl])}, new {len(new[wl])})")
        for line in notes:
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
