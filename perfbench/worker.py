"""One benchmark pass in a fresh interpreter; run.py starts one per pass.

Protocol: after set-up the worker prints "ready".  It then reads one line
from stdin: "go" runs the pass and prints one JSON result line; anything else
ends the worker without a pass.  The package's own prints are captured so
that stdout carries only these lines.

With --trace the pass runs under the tracer and its spans are written to
<out>/spans.json.  The pseudo-workload "layers" runs the layer
microbenchmarks and the transform counts instead of a workload pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scan-workers", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--layer-budget", type=float, default=4.0)
    return parser.parse_args(argv)


def _layers_pass(args, cells, tracer):
    import layers

    t0 = time.perf_counter()
    result = {"layers_ms": layers.time_layers(cells, args.layer_budget)}
    tracer.install()
    try:
        result["transforms"] = layers.count_transforms(cells, tracer)
    finally:
        tracer.uninstall()
    result["wall_s"] = time.perf_counter() - t0
    result["failures"] = []
    return result


def _workload_pass(args, ctx, tracer):
    import workloads

    if tracer is None:
        return workloads.run_pass(ctx)
    origin = time.perf_counter()
    tracer.install()
    try:
        result = workloads.run_pass(ctx)
    finally:
        tracer.uninstall()
    result["trace"] = tracer.summary()
    (args.out / "spans.json").write_text(
        json.dumps(tracer.span_records(origin)))
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "layers":
            import layers
            ctx = layers.setup(args.seed)
        else:
            import workloads
            ctx = workloads.setup(args.workload, args.seed, args.out,
                                  args.scan_workers)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"failures": ["set-up raised; see stderr"]}),
              flush=True)
        return 1
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.trace or args.workload == "layers":
        from tracing import Tracer
        tracer = Tracer()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            if args.workload == "layers":
                result = _layers_pass(args, ctx, tracer)
            else:
                result = _workload_pass(args, ctx, tracer)
    except Exception:
        traceback.print_exc()
        result = {"failures": ["pass raised; see stderr"]}
    (args.out / "stdout.txt").write_text(captured.getvalue())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
