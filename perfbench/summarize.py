"""Collect the result files of many runs into one BENCH_<label>.json.

    python3 perfbench/summarize.py --label baseline

Reads .bench_out/*/result.json (one per run.py invocation), groups the runs
by workload, and for every end-to-end metric reports the median over seeds,
its quartiles and the spread (q3 - q1) / median, next to the bound that
BENCHMARK.json fixes for the metric.  Traced runs contribute their per-layer
metrics.  The output also carries the machine block of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--output", type=Path, default=None,
                        help="default perfbench/BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [json.loads(p.read_text())
            for p in sorted(Path(".bench_out").glob("*/result.json"))]
    if not runs:
        print("no result files under .bench_out", file=sys.stderr)
        return 1

    by_workload = defaultdict(lambda: {"end_to_end": defaultdict(list),
                                       "per_layer": defaultdict(list),
                                       "seeds": [], "failed": 0,
                                       "attempted": 0})
    for run in runs:
        group = by_workload[run["workload"]]
        group["attempted"] += run["attempted"]
        group["failed"] += run["failed"]
        kind = "per_layer" if run["trace"] else "end_to_end"
        if not run["trace"]:
            group["seeds"].append(run["seed"])
        for name, metric in run["metrics"].items():
            group[kind][name].append(metric["value"])

    workloads, steady = {}, True
    for workload, group in sorted(by_workload.items()):
        entry = {"seeds": sorted(group["seeds"]),
                 "attempted": group["attempted"], "failed": group["failed"],
                 "end_to_end": {}, "per_layer": {}}
        for name, values in group["end_to_end"].items():
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "runs": len(values),
                "spread": spread, "bound": bounds.get(name)}
            flag = ""
            if name != "setup_s" and name in bounds and spread > bounds[name] / 3:
                flag, steady = "  > bound/3", False
            print(f"{workload:9s} {name:15s} median {median:.6g}  "
                  f"spread {spread:.3f} (bound {bounds.get(name)}) "
                  f"over {len(values)} runs{flag}")
        for name, values in group["per_layer"].items():
            entry["per_layer"][name] = {"median": statistics.median(values),
                                        "runs": len(values)}
        workloads[workload] = entry

    output = args.output or HERE / f"BENCH_{args.label}.json"
    output.write_text(json.dumps({"label": args.label,
                                  "machine": runs[-1]["machine"],
                                  "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {output}; every spread within a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
