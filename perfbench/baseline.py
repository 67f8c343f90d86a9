#!/usr/bin/env python3
"""Summarise the runs in perfbench/results/ into perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload and metric it reports the run count, median, quartiles and
spread (interquartile range over median, as ``statistics.quantiles(n=4)``
gives the quartiles), and marks an end-to-end spread at or above a third of
the metric's bound in BENCHMARK.json.  Per-layer metrics from ``--trace 1``
runs are summarised the same way, without bounds.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    runs = {}
    machine = None
    for path in sorted(glob.glob(os.path.join(HERE, "results", "*-trace[01].json"))):
        with open(path) as handle:
            run = json.load(handle)
        machine = machine or run["machine"]
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    if not runs:
        print("perfbench: no runs in perfbench/results/", file=sys.stderr)
        return 1
    out = {"machine": machine, "workloads": {}}
    for (workload, trace), group in sorted(runs.items()):
        entry = out["workloads"].setdefault(workload, {})
        metrics = {name: summary([r["metrics"][name]["value"] for r in group]) for name in group[0]["metrics"]}
        entry["per_layer" if trace else "end_to_end"] = metrics
        entry["seeds" if not trace else "traced_seeds"] = sorted(r["seed"] for r in group)
        if not trace:
            entry["attempted"] = sum(r["attempted"] for r in group)
            entry["failed"] = sum(r["failed"] for r in group)
            entry["all_correct"] = all(r["correct"] for r in group)
            for name, s in metrics.items():
                flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3.0 else "  <-- spread >= bound/3"
                print(f"{workload:14s} {name:12s} n={s['runs']:2d} median={s['median']:.6g} "
                      f"spread={s['spread']:.4f} bound={bounds[name]}{flag}")
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
