"""Command-line harness: single runs, parameter-plane scans, verification
suites, and regime classification.

Exit codes: 0 success, 1 configuration/usage error or failed verification,
2 blow-up signal (partial artifacts are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .analysis import (
    classify_regime,
    fit_gronwall_constant,
    gronwall_check,
    verdict_ranks,
)
from .config import RunConfig, load_run_config, make_initial_state
from .diagnostics import write_csv
from .dynamics import (
    Params,
    initial_condition,
    run,
    save_snapshot,
    structure_identities,
)
from .inequalities import (
    Corpus,
    DEFAULT_INEQUALITY_SPECS,
    check_inequalities,
    check_positivity,
    log_inequality_check,
)
from .spectral import ParameterError, get_grid

__all__ = ["main", "cmd_run", "cmd_scan", "cmd_verify", "cmd_classify",
           "SCAN_CSV_HEADER", "VERIFY_SUITES"]

SCAN_CSV_HEADER = "alpha,beta,verdict,max_h2,bkm_accum,blowup"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _write_run_summary(path: Path, config: RunConfig, result) -> None:
    p = config.params
    rec = result.records[-1]
    max_h2 = float(np.max([r.h2 for r in result.records]))
    lines = [
        f"generated_at = {_timestamp()}",
        f"initial = {config.initial.kind}",
        f"alpha = {_fmt(p.alpha)}",
        f"beta = {_fmt(p.beta)}",
        f"nu = {_fmt(p.nu)}",
        f"kappa = {_fmt(p.kappa)}",
        f"n = {p.n}",
        f"t_end = {_fmt(p.t_end)}",
        f"regime = {classify_regime(p.alpha, p.beta).describe()}",
        f"records = {len(result.records)}",
        f"final_t = {_fmt(rec.t)}",
        f"final_energy = {_fmt(rec.energy)}",
        f"final_h1 = {_fmt(rec.h1)}",
        f"max_h2 = {_fmt(max_h2)}",
        f"bkm_accum = {_fmt(rec.bkm_accum)}",
        f"blow_up = {'yes' if result.blew_up else 'no'}",
    ]
    if result.blew_up:
        lines.append(f"blow_up_time = {_fmt(result.blow_up_time)}")
    path.write_text("\n".join(lines) + "\n")


def cmd_run(config: RunConfig) -> int:
    """Simulate one configuration and write its artifacts.

    Writes snapshot_initial.bin, diagnostics.csv, snapshot_final.bin, and
    summary.txt into the output directory (plus timed snapshots when
    snapshot_every is set).  Returns 2 when the run ends in a blow-up
    signal; partial artifacts are still written.
    """
    state = make_initial_state(config)  # rejects bad input before any write
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    save_snapshot(out / "snapshot_initial.bin", state, config.params)
    result = run(state, config.params, config.sample_every,
                 fixed_dt=config.fixed_dt,
                 snapshot_every=config.snapshot_every,
                 p_list=config.p_list, eps_bhat=config.eps_bhat)
    write_csv(out / "diagnostics.csv", result.records)
    if config.snapshot_every is not None:
        for snap in result.snapshots:
            save_snapshot(out / f"snapshot_t{snap.t:.6f}.bin", snap,
                          config.params)
    save_snapshot(out / "snapshot_final.bin", result.final_state,
                  config.params)
    _write_run_summary(out / "summary.txt", config, result)
    return 2 if result.blew_up else 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _parse_range(text: str, name: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"{name} must have the form start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParameterError(f"{name} must be numeric start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0:
        raise ParameterError(f"{name} needs finite bounds and a positive step")
    if stop < start:
        raise ParameterError(f"{name} range is empty")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _scan_point(task):
    """Run one (alpha, beta) grid point of a scan; top-level for pickling."""
    config, state, alpha, beta = task
    verdict = classify_regime(alpha, beta).verdict
    try:
        params = dataclasses.replace(config.params, alpha=alpha, beta=beta)
        result = run(state, params, config.sample_every,
                     fixed_dt=config.fixed_dt, p_list=config.p_list,
                     eps_bhat=config.eps_bhat)
        max_h2 = float(np.max([r.h2 for r in result.records]))
        bkm = result.records[-1].bkm_accum
        blew_up, failed = int(result.blew_up), 0
    except Exception as exc:  # record the failure, keep scanning
        print(f"scan point alpha={alpha} beta={beta} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        max_h2, bkm, blew_up, failed = float("nan"), float("nan"), 0, 1
    return (alpha, beta, verdict, max_h2, bkm, blew_up, failed)


def cmd_scan(config: RunConfig, alpha_values, beta_values,
             workers: int = 1) -> int:
    """Run the (alpha, beta) product grid and write scan.csv + summary.txt.

    Rows are ordered by (alpha, beta) regardless of worker count, so the CSV
    content is deterministic.  A point that blows up or raises sets the
    blowup flag and the scan continues; the exit status stays 0.
    summary.txt counts the two apart: blow_ups the runs that reported a
    blow-up, errors the points that raised.  The initial state, the same
    at every point, is built (and checked) once.
    """
    if workers < 1:
        raise ParameterError("workers must be a positive integer")
    state = make_initial_state(config)
    tasks = [(config, state, a, b) for a in alpha_values for b in beta_values]
    pool_size = min(workers, len(tasks))  # the pool forks them all at once
    if pool_size > 1:
        # imported here: the pool loads multiprocessing, socket and subprocess
        # (2 MiB), which no other command needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            rows = list(pool.map(_scan_point, tasks))
    else:
        rows = [_scan_point(t) for t in tasks]

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = [SCAN_CSV_HEADER]
    for alpha, beta, verdict, max_h2, bkm, blew_up, failed in rows:
        lines.append(f"{_fmt(alpha)},{_fmt(beta)},{verdict},"
                     f"{_fmt(max_h2)},{_fmt(bkm)},{blew_up | failed}")
    (out / "scan.csv").write_text("\n".join(lines) + "\n")

    verdict_counts = Counter(row[2] for row in rows)
    summary = [
        f"generated_at = {_timestamp()}",
        f"alpha_values = {', '.join(_fmt(a) for a in alpha_values)}",
        f"beta_values = {', '.join(_fmt(b) for b in beta_values)}",
        f"points = {len(rows)}",
        f"workers = {workers}",
        f"pool_size = {pool_size}",
        f"blow_ups = {sum(r[5] for r in rows)}",
        f"errors = {sum(r[6] for r in rows)}",
    ]
    summary += [f"verdict[{k}] = {v}" for k, v in sorted(verdict_counts.items())]
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------
# Each suite returns (rows, text_lines); a row is (check, value, bound, kind)
# with kind "max" (pass iff value <= bound) or "min" (pass iff value >= bound).

def _suite_identities(count):
    count = count or 50
    grid = get_grid(128)
    rows = []
    for seed in range(1, count + 1):
        st = initial_condition("random_band_limited", grid, seed=seed, k_max=16)
        rep = structure_identities(st)
        rows += [(f"{name}_identity_residual[seed={seed}]",
                  getattr(rep, name), 1e-9, "max")
                 for name in ("current", "forcing")]
        rows += [(f"{name}[seed={seed}]", getattr(rep, name), 1e-10, "max")
                 for name in ("self_transport_omega", "self_transport_current",
                              "lorentz_exchange")]
    worst = max(r[1] for r in rows)
    return rows, [f"identities: {count} seeded states, worst value {worst:.3e}"]


def _suite_inequalities(count):
    corpus = Corpus(count=count or 200)
    reports = check_inequalities(DEFAULT_INEQUALITY_SPECS, corpus)
    reports.append(log_inequality_check(corpus))
    rows = [(f"max_ratio_growth[{r.name}]", r.growth, 0.05, "max")
            for r in reports]
    return rows, [r.summary() for r in reports]


def _suite_positivity(count):
    fields = Corpus(count=count or 200).fields(128)
    reports = check_positivity((0.25, 0.5, 1.0), (2, 4, 6), fields)
    rows = [(f"positivity_min[alpha={r.alpha:g};p={r.p}]",
             r.min_normalized, -1e-10, "min") for r in reports]
    return rows, [r.summary() for r in reports]


def _suite_gronwall(count):
    # strong vorticity dissipation, undamped potential: fit the smallest
    # constant making the discrete hypothesis hold, then audit the
    # integrated conclusion along the trajectory
    params = Params(nu=1.0, kappa=1.0, alpha=2.0, beta=0.0, n=64, t_end=0.5)
    state = initial_condition("orszag_tang", get_grid(64))
    result = run(state, params, sample_every=0.02)
    t = np.array([r.t for r in result.records])
    eta = np.array([r.h1 for r in result.records])
    psi = 2.0 * params.nu * np.array([r.diss_omega for r in result.records])
    base = np.array([r.grad_u_linf for r in result.records])
    c = fit_gronwall_constant(t, eta, psi, base)
    # the fit is tight at its argmax interval; a one-part-in-1e9 pad keeps
    # the re-check from tripping on the rounding of c * base
    c *= 1.0 + 1e-9
    rep = gronwall_check(t, eta, psi, c * base)
    coverage = float(np.mean(rep.checked))
    rows = [
        ("gronwall_hypothesis_coverage", coverage, 1.0, "min"),
        ("gronwall_conclusion_holds", 1.0 if rep.passed else 0.0, 1.0, "min"),
    ]
    text = [f"gronwall: fitted constant {c:.6g} over {t.size} samples, "
            f"min margin {float(np.min(rep.margin)):.3e}"]
    return rows, text


_CLASSIFIER_SAMPLES = (
    (0.5, 1.0, "ProvenRegular", "AlphaGeHalfBetaGeOne"),
    (0.25, 1.6, "ProvenRegular", "TwoAlphaPlusBetaGtTwo"),
    (2.0, 0.0, "ProvenRegular", "AlphaGeTwoBetaZero"),
    (1.0, 1.0, "ProvenRegular", "AlphaGeOneSumGeTwo"),
    (0.0, 2.0, "ConditionallyRegular", "ZeroAlphaBetaGtOne"),
    (0.0, 1.5, "ConditionallyRegular", "ZeroAlphaBetaGtOne"),
    (0.0, 2.5, "ProvenRegular", "TwoAlphaPlusBetaGtTwo"),
    (0.1, 1.0, "Open", None),
)


def classifier_grid_violations(max_exponent: float = 4.0, step: float = 0.01):
    """Count violations of the two classifier grid invariants.

    Returns (monotonicity_violations, coverage_violations) over the
    inclusive grid [0, max_exponent]^2 at the given step: a proven verdict
    must never turn Open when alpha or beta increases, and alpha + beta >= 2
    with alpha > 0 must always be proven.
    """
    count = int(round(max_exponent / step)) + 1
    vals = np.arange(count) * max_exponent / (count - 1)
    a, b = vals[:, None], vals[None, :]
    rank = verdict_ranks(a, b)
    proven = rank == 2
    coverage_violations = int(np.sum((a > 0.0) & (a + b >= 2.0) & ~proven))
    mono = (int(np.sum(proven[:-1, :] & (rank[1:, :] == 0)))
            + int(np.sum(proven[:, :-1] & (rank[:, 1:] == 0))))
    return mono, coverage_violations


def _suite_classifier(count):
    rows = []
    for alpha, beta, verdict, witness in _CLASSIFIER_SAMPLES:
        v = classify_regime(alpha, beta)
        ok = v.verdict == verdict and (witness is None
                                       or witness in v.witnesses)
        rows.append((f"classify[alpha={alpha:g};beta={beta:g}]",
                     1.0 if ok else 0.0, 1.0, "min"))
    mono, coverage = classifier_grid_violations()
    rows.append(("classifier_monotonicity_violations", float(mono), 0.0, "max"))
    rows.append(("classifier_coverage_violations", float(coverage), 0.0, "max"))
    text = [f"classifier: {len(_CLASSIFIER_SAMPLES)} sample points, "
            f"grid violations mono={mono} coverage={coverage}"]
    return rows, text


VERIFY_SUITES = {
    "identities": _suite_identities,
    "inequalities": _suite_inequalities,
    "positivity": _suite_positivity,
    "gronwall": _suite_gronwall,
    "classifier": _suite_classifier,
}


def cmd_verify(suite: str, count: int | None = None, output=None) -> int:
    """Run a named verification suite, write its report CSV, print a summary.

    count, when given, must be >= 1 and overrides the corpus or state count
    of the identities, inequalities and positivity suites; gronwall and
    classifier ignore it.  Returns 0 iff every check passed.
    """
    if suite not in VERIFY_SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; expected one of "
            f"{', '.join(sorted(VERIFY_SUITES))}")
    if count is not None and count < 1:
        raise ParameterError(f"count must be a positive integer, got {count}")
    rows, text = VERIFY_SUITES[suite](count)
    out = Path(output) if output is not None else Path(f"verify_{suite}.csv")
    passed = [bool(value <= bound) if kind == "max" else bool(value >= bound)
              for _, value, bound, kind in rows]
    out.write_text("check,value,bound,kind,passed\n" + "".join(
        f"{check},{_fmt(value)},{_fmt(bound)},{kind},{int(ok)}\n"
        for (check, value, bound, kind), ok in zip(rows, passed)))
    for line in text:
        print(line)
    for (check, value, bound, kind), ok in zip(rows, passed):
        if not ok:
            print(f"FAIL {check}: value {_fmt(value)} vs bound {_fmt(bound)} "
                  f"({kind})")
    all_passed = all(passed)
    print(f"suite {suite}: {'PASS' if all_passed else 'FAIL'} "
          f"({len(rows)} checks) -> {out}")
    return 0 if all_passed else 1


def cmd_classify(alpha: float, beta: float) -> int:
    """Print the regime verdict for one exponent pair."""
    print(classify_regime(alpha, beta).describe())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParameterError (exit 1)."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmhd2d",
                     description="Pseudo-spectral 2D MHD lab with fractional "
                                 "dissipation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("--config", required=True, help="config file path")

    p_scan = sub.add_parser("scan", help="sweep the (alpha, beta) plane")
    p_scan.add_argument("--config", required=True, help="base config file")
    p_scan.add_argument("--alpha", required=True, metavar="A0:A1:DA",
                        help="alpha range start:stop:step")
    p_scan.add_argument("--beta", required=True, metavar="B0:B1:DB",
                        help="beta range start:stop:step")
    p_scan.add_argument("--workers", type=int, default=1,
                        help="concurrent runs (default 1)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          help=f"one of: {', '.join(sorted(VERIFY_SUITES))}")
    p_verify.add_argument("--count", type=int, default=None,
                          help="override the corpus/state count of the "
                               "identities, inequalities and positivity "
                               "suites (gronwall and classifier ignore it)")
    p_verify.add_argument("--output", default=None,
                          help="report CSV path (default verify_<suite>.csv)")

    p_classify = sub.add_parser("classify", help="classify one (alpha, beta)")
    p_classify.add_argument("--alpha", type=float, required=True)
    p_classify.add_argument("--beta", type=float, required=True)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(load_run_config(args.config))
        if args.command == "scan":
            return cmd_scan(load_run_config(args.config),
                            _parse_range(args.alpha, "--alpha"),
                            _parse_range(args.beta, "--beta"),
                            args.workers)
        if args.command == "verify":
            return cmd_verify(args.suite, args.count, args.output)
        return cmd_classify(args.alpha, args.beta)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
