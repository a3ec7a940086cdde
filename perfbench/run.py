"""gmhd2d benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Every
pass runs in a fresh interpreter (perfbench/worker.py), with the thread
variables pinned to 1.  The run prints every metric by name and unit, writes
a result file with the machine block and every pass under
.bench_out/<workload>-seed<seed>-trace<0|1>/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  It exits 1 when any pass
fails its output check, 2 when the checkout has no package to measure.

--trace 0 repeats passes for --seconds and reports the end-to-end metrics:
wall_s, sim_time_per_s, setup_s and peak_rss_mb (medians over passes).
--trace 1 reports the per-layer metrics: layer microbenchmarks and two traced
rounds of every workload, whose exact counts must agree.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
MIN_PASSES = 3
PASS_TIMEOUT_S = 120.0
START_LIMIT_S = 120.0      # no new pass starts after this much of the run
TRACE_COMPARE_PASSES = 3   # untraced passes that the tracing overhead uses
SCAN_WORKERS = 2

END_TO_END_UNITS = {"wall_s": "s", "sim_time_per_s": "sim_s/s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# machine and environment
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_block(env: dict) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({key: _read(str(index / key))
                       for key in ("level", "type", "size")})
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy_present": importlib.util.find_spec("scipy") is not None,
        "scipy": versions["scipy"],
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_workers": {v: env[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts one worker per pass and collects its result."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in THREAD_VARS})
        src = str(root / "src")
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        self.attempted = 0
        self.failed = 0
        self.passes = []

    def spawn(self, workload: str, out: Path, *, trace=False,
              scan_workers=SCAN_WORKERS, go=True, layer_budget=None,
              label=None) -> dict:
        """Run one worker; return its result plus setup_s and failures."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--out", str(out),
               "--scan-workers", str(scan_workers)]
        if trace:
            cmd.append("--trace")
        if layer_budget is not None:
            cmd += ["--layer-budget", repr(layer_budget)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=self.root)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if first.strip() == "ready":
                proc.stdin.write("go\n" if go else "stop\n")
                proc.stdin.close()
                result = _decode(proc.stdout.readline()) if go else {"failures": []}
            else:
                result = _decode(first)
            proc.stdout.close()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result["setup_s"] = setup_s
        result["process_s"] = time.perf_counter() - t0
        result["workload"] = workload
        result["label"] = label or workload
        result["scan_workers"] = scan_workers
        if code != 0:
            result["failures"].append(f"worker exited {code}")
        if go:
            self.passes.append(result)
        return result

    def finish(self, reference: dict | None) -> None:
        """Apply the reference check and count attempted and failed passes."""
        for result in self.passes:
            if reference is not None and "observables" in result:
                result["failures"] += workloads.compare_observables(
                    result["observables"], reference[result["workload"]])
            self.attempted += 1
            self.failed += bool(result["failures"])


def _decode(line: str) -> dict:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return {"failures": ["worker gave no result (crashed or timed out)"]}
    result.setdefault("failures", [])
    return result


def _rss_mb(result: dict) -> float:
    children = result["children_peak_rss_kb"] * (
        result["scan_workers"] if result["workload"] == "scan" else 0)
    return (result["peak_rss_kb"] + children) / 1024.0


def _check_scan_csv(result: dict, out: Path, reference: bytes) -> None:
    got = (out / "run" / "scan.csv").read_bytes()
    if got != reference:
        result["failures"].append(
            "scan.csv differs from the 1-worker run of the same inputs")


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, workload: str, seconds: int, out: Path,
               run_start: float) -> dict:
    runner.spawn(workload, out / "warm", go=False)  # compiles bytecode
    scan_reference = None
    if workload == "scan":
        ref = runner.spawn("scan", out / "scan-w1", scan_workers=1,
                           label="scan-1-worker")
        if "wall_s" in ref:
            scan_reference = (out / "scan-w1" / "run" / "scan.csv").read_bytes()
    measured = []
    start = time.perf_counter()
    while len(measured) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(
                r["process_s"] for r in measured) <= seconds
            and time.perf_counter() - run_start < START_LIMIT_S):
        result = runner.spawn(workload, out / "pass")
        if scan_reference is not None and "wall_s" in result:
            _check_scan_csv(result, out / "pass", scan_reference)
        measured.append(result)

    setups = [r["setup_s"] for r in measured]
    if workload == "scan":
        setups.append(ref["setup_s"])
    timed = [r for r in measured if "wall_s" in r]
    if not timed:
        return {}
    walls = [r["wall_s"] for r in timed]
    return {
        "wall_s": _stats(walls),
        "sim_time_per_s": _stats([r["sim_time"] / r["wall_s"] for r in timed]),
        "setup_s": _stats(setups),
        "peak_rss_mb": _stats([_rss_mb(r) for r in timed]),
    }


def _stats(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced(runner: Runner, workload: str, seconds: int, out: Path) -> dict:
    runner.spawn(workload, out / "warm", go=False)
    compare_workers = 1 if workload == "scan" else SCAN_WORKERS
    untraced = [runner.spawn(workload, out / "untraced",
                             scan_workers=compare_workers,
                             label=f"{workload}-untraced")
                for _ in range(TRACE_COMPARE_PASSES)]
    scan_1w = runner.spawn("scan", out / "scan-w1", scan_workers=1,
                           label="scan-1-worker")
    scan_2w = runner.spawn("scan", out / "scan-w2", scan_workers=SCAN_WORKERS,
                           label="scan-2-workers")
    scan_reference = None
    if "wall_s" in scan_1w:
        scan_reference = (out / "scan-w1" / "run" / "scan.csv").read_bytes()
        if "wall_s" in scan_2w:
            _check_scan_csv(scan_2w, out / "scan-w2", scan_reference)

    rounds = []
    for r in (1, 2):
        base = out / f"round{r}"
        layer = runner.spawn("layers", base / "layers",
                             layer_budget=0.25 * seconds,
                             label=f"layers-round{r}")
        sweep = {w: runner.spawn(w, base / w, trace=True, scan_workers=1,
                                 label=f"{w}-traced-round{r}")
                 for w in workloads.WORKLOADS}
        if scan_reference is not None and "wall_s" in sweep["scan"]:
            _check_scan_csv(sweep["scan"], base / "scan", scan_reference)
        rounds.append((layer, sweep))

    everything = untraced + [scan_1w, scan_2w] + [
        p for layer, sweep in rounds for p in (layer, *sweep.values())]
    if any("wall_s" not in p for p in everything):
        return {}
    return _layer_metrics(rounds, untraced, scan_1w, scan_2w, workload)


def _exact_counts(layer: dict, sweep: dict) -> dict:
    calls, transforms = Counter(), Counter()
    for result in sweep.values():
        calls.update(result["trace"]["calls"])
        transforms.update({k: v for k, v in result["trace"]["transforms"].items()
                           if k != "seconds"})
    return {"layer_transforms": layer["transforms"], "calls": dict(calls),
            "sweep_transforms": dict(transforms),
            "evaluate_norm_distinct": sum(
                r["trace"]["evaluate_norm_distinct"] for r in sweep.values())}


def _layer_metrics(rounds, untraced, scan_1w, scan_2w, workload) -> dict:
    counts = [_exact_counts(layer, sweep) for layer, sweep in rounds]
    if counts[0] != counts[1]:
        for _, sweep in rounds:
            sweep[workload]["failures"].append(
                "exact counts differ between the two traced rounds")

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def mean(values):
        return sum(values) / len(values)

    for key in rounds[0][0]["layers_ms"]:
        put(key, mean([layer["layers_ms"][key] for layer, _ in rounds]), "ms")
    probe = counts[0]["layer_transforms"]
    put("spectral.transforms_per_step", probe["step"]["planes"], "count")
    put("spectral.transforms_per_tendency", probe["tendency"]["planes"], "count")
    put("spectral.transforms_per_record", probe["record"]["planes"], "count")
    put("spectral.fft_calls_per_step", probe["step"]["calls"], "count")
    put("spectral.bytes_per_transform.computed",
        probe["step"]["bytes_computed"] / probe["step"]["planes"], "B")
    for n in (64, 128, 256):
        step = metrics[f"dynamics.step.ms.n{n}"]["value"]
        transform = metrics[f"spectral.to_physical.ms.n{n}"]["value"]
        record = metrics[f"diagnostics.compute_record.ms.n{n}"]["value"]
        put(f"dynamics.step.floor_ratio.n{n}",
            step / (probe["step"]["planes"] * transform), "ratio")
        put(f"diagnostics.record_step_ratio.n{n}", record / step, "ratio")

    def seconds(*names):
        return mean([sum(r["trace"]["seconds"].get(name, 0.0)
                         for r in sweep.values() for name in names)
                     for _, sweep in rounds])

    calls = counts[0]["calls"]
    put("spectral.transform_s", mean([
        sum(r["trace"]["transforms"]["seconds"] for r in sweep.values())
        for _, sweep in rounds]), "s")
    put("spectral.field_gen_s", seconds("spectral.random_band_limited_field"), "s")
    for name in ("dynamics.step", "dynamics.cfl_dt", "diagnostics.compute_record"):
        put(f"{name}.s", seconds(name), "s")
        put(f"{name}.calls", calls.get(name, 0), "count")
    put("dynamics.identities.s", seconds(
        "dynamics.current_identity_residual",
        "dynamics.forcing_identity_residual",
        "dynamics.advection_cancellations"), "s")
    for name in ("diagnostics.direction_field_norms", "diagnostics.write_csv",
                 "dynamics.save_snapshot", "inequalities.check_inequality",
                 "inequalities.log_inequality_check",
                 "inequalities.check_positivity",
                 "cli.classifier_grid_violations"):
        put(f"{name}.s", seconds(name), "s")
    norm_calls = calls.get("inequalities.evaluate_norm", 0)
    put("inequalities.evaluate_norm.calls", norm_calls, "count")
    put("inequalities.evaluate_norm.distinct_ratio",
        counts[0]["evaluate_norm_distinct"] / max(norm_calls, 1), "ratio")
    put("analysis.classify_regime.calls",
        calls.get("analysis.classify_regime", 0), "count")
    for suite in workloads.VERIFY_SUITES:
        put(f"cli.verify.{suite}.s",
            mean([sweep["verify"]["suite_s"][suite] for _, sweep in rounds]), "s")
    put("cli.scan.parallel_efficiency",
        scan_1w["wall_s"] / (SCAN_WORKERS * scan_2w["wall_s"]), "ratio")
    traced_wall = mean([sweep[workload]["wall_s"] for _, sweep in rounds])
    put("trace.overhead_s", traced_wall - statistics.median(
        [r["wall_s"] for r in untraced]), "s")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    run_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "gmhd2d" / "__init__.py").is_file():
        print("error: run from the root of a gmhd2d checkout "
              "(src/gmhd2d not found)", file=sys.stderr)
        return 2
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    runner = Runner(root, args.seed)
    if args.trace:
        stats = metrics = traced(runner, args.workload, args.seconds, out)
    else:
        stats = end_to_end(runner, args.workload, args.seconds, out, run_start)
        metrics = {k: {"value": s["value"], "unit": END_TO_END_UNITS[k]}
                   for k, s in stats.items()}
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE_FILE.read_text())
    runner.finish(reference)
    correct = runner.failed == 0 and bool(metrics)

    machine = machine_block(runner.env)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine,
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_rate": runner.failed / max(runner.attempted, 1),
        "metrics": stats,
        "run_s": time.perf_counter() - run_start,
        "passes": runner.passes,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))

    print(f"machine: {machine['nproc']} CPUs ({machine['cpu_model']}), "
          f"Python {machine['python']}, numpy {machine['numpy']}, scipy "
          f"{'present' if machine['scipy_present'] else 'absent'}, "
          f"thread variables pinned to 1")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} passes, {runner.failed} failed, "
          f"fail_rate = {record['fail_rate']:g}")
    for result in runner.passes:
        for failure in result["failures"]:
            print(f"  FAIL [{result['label']}] {failure}")
    for name, metric in metrics.items():
        line = f"  {name:44s} {metric['value']:.6g} {metric['unit']}"
        if not args.trace:
            s = stats[name]
            line += f"  (median of {s['samples']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    print(f"result file: {out / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
