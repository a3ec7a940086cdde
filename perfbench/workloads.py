"""The four benchmark workloads: inputs from a seed, set-up, one timed pass,
and the output checks each pass must satisfy.

Every pass runs in a fresh interpreter (see worker.py), the way a user of the
command line pays for it.  ``setup`` is what happens before the first timed
call: the package import, the config parse, grid and dissipation-multiplier
construction and the initial state.  ``run_pass`` times one call of a public
entry point and then checks what it produced.

Why these workloads (each stresses a different layer; see README.md):

- stepping: ideal run at n = 256, two diagnostics records, dt from cfl_dt
  capped by a dt_max that binds (the uncapped step is 1.5e-3 to 1.9e-3 over
  seeds 0-39), so each pass takes the same 12 steps.  About 90% of the pass is dynamics.step and cfl_dt: transform and
  tendency work.
- sampled: dissipative run at n = 128 through cli.cmd_run with a record at
  every step, plus CSV and snapshot output: diagnostics and I/O work.
- verify: the five cli.cmd_verify suites at a reduced corpus count: the
  inequality corpus, identities and classifier grid, almost no stepping.
- scan: 3x3 (alpha, beta) cli.cmd_scan at n = 64 with 2 workers: many small
  runs where per-call overhead and pool start-up outweigh transform time.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import types
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("stepping", "sampled", "verify", "scan")

# Gate bounds: the acceptance battery's bounds for the same quantities.
IDEAL_DRIFT_BOUND = 1e-6        # criterion 3, ideal invariants
ENERGY_RESIDUAL_BOUND = 1e-6    # criterion 3, dissipative energy law

STEPPING_CONFIG = """\
params.nu = 0
params.kappa = 0
params.n = 256
params.t_end = 0.012
params.dt_max = 0.001
initial.kind = random_band_limited
initial.seed = {seed}
initial.k_max = 16
sample_every = 0.012
output_dir = {out}
"""

SAMPLED_CONFIG = """\
params.nu = 0.1
params.kappa = 0.1
params.alpha = 1
params.beta = 1
params.n = 128
params.t_end = 0.03
initial.kind = random_band_limited
initial.seed = {seed}
initial.k_max = 8
sample_every = 0.001
fixed_dt = 0.001
snapshot_every = 0.01
output_dir = {out}
"""

SCAN_CONFIG = """\
params.nu = 1
params.kappa = 1
params.n = 64
params.t_end = 0.1
params.dt_max = 0.005
initial.kind = random_band_limited
initial.seed = {seed}
initial.k_max = 8
sample_every = 0.02
output_dir = {out}
"""
SCAN_VALUES = (0.5, 1.0, 1.5)

VERIFY_SUITES = ("identities", "inequalities", "positivity", "gronwall",
                 "classifier")
VERIFY_COUNT = 8
# cmd_verify's gronwall suite integrates one fixed n = 64 run to t = 0.5; it is
# the only time stepping in a verify pass.
VERIFY_SIM_TIME = 0.5

_CONFIGS = {"stepping": STEPPING_CONFIG, "sampled": SAMPLED_CONFIG,
            "scan": SCAN_CONFIG}


@dataclasses.dataclass
class Context:
    workload: str
    out: Path
    scan_workers: int
    config: object = None
    state: object = None


def setup(workload: str, seed: int, out: Path, scan_workers: int = 2) -> Context:
    """Import the package and build everything the pass needs before timing."""
    from gmhd2d import cli, dynamics
    from gmhd2d.config import load_run_config, make_initial_state
    from gmhd2d.spectral import get_grid

    out.mkdir(parents=True, exist_ok=True)
    ctx = Context(workload, out, scan_workers)
    if workload == "verify":
        from gmhd2d.inequalities import DEFAULT_RESOLUTIONS, Corpus
        for n in DEFAULT_RESOLUTIONS:
            get_grid(n)
        # cmd_verify has no seed argument; the seed reaches the corpus as
        # the first_seed of every Corpus the verify suites build.
        cli.Corpus = functools.partial(Corpus, first_seed=seed)
        return ctx
    path = out / f"{workload}.cfg"
    path.write_text(_CONFIGS[workload].format(seed=seed, out=out / "run"))
    ctx.config = load_run_config(path)
    ctx.state = make_initial_state(ctx.config)
    # builds the dissipation multipliers (and the transform plans) for n
    dynamics.nonlinear_rhs(ctx.state, ctx.config.params)
    return ctx


def run_pass(ctx: Context) -> dict:
    """Time one pass of the workload and check its outputs.

    Returns wall_s, sim_time (simulated time integrated in the pass),
    observables (values compared with the stored reference for the default
    seed), failures (gate violations) and, for verify, per-suite seconds.
    """
    return _PASSES[ctx.workload](ctx)


def _stepping(ctx):
    from gmhd2d.dynamics import run

    cfg = ctx.config
    t0 = time.perf_counter()
    result = run(ctx.state, cfg.params, cfg.sample_every,
                 fixed_dt=cfg.fixed_dt, p_list=cfg.p_list,
                 eps_bhat=cfg.eps_bhat)
    wall = time.perf_counter() - t0

    failures = []
    r0, last = result.records[0], result.records[-1]
    drift = max(
        max(abs(r.energy - r0.energy) / r0.energy,
            abs(r.cross_helicity - r0.cross_helicity) / abs(r0.cross_helicity),
            abs(r.a_l2 ** 2 - r0.a_l2 ** 2) / r0.a_l2 ** 2)
        for r in result.records[1:])
    if result.blew_up:
        failures.append("run blew up")
    if not drift < IDEAL_DRIFT_BOUND:
        failures.append(f"ideal invariant drift {drift:.3e} >= {IDEAL_DRIFT_BOUND}")
    if last.t != cfg.params.t_end:
        failures.append(f"run ended at t = {last.t}, not {cfg.params.t_end}")
    observables = {name: getattr(last, name) for name in (
        "energy", "cross_helicity", "a_l2", "h2", "omega_linf", "j_linf",
        "grad_u_linf", "bhat_w1inf", "bhat_w2inf")}
    return {"wall_s": wall, "sim_time": cfg.params.t_end - ctx.state.t,
            "observables": observables, "failures": failures}


def _sampled(ctx):
    from gmhd2d.cli import cmd_run
    from gmhd2d.diagnostics import energy_balance_residual, read_csv
    from gmhd2d.dynamics import load_snapshot

    cfg = ctx.config
    t0 = time.perf_counter()
    code = cmd_run(cfg)
    wall = time.perf_counter() - t0

    failures = []
    if code != 0:
        failures.append(f"cmd_run exited {code}")
    _, rows = read_csv(cfg.output_dir / "diagnostics.csv")
    series = [types.SimpleNamespace(**row) for row in rows]
    resid = energy_balance_residual(series, cfg.params)
    if not resid < ENERGY_RESIDUAL_BOUND:
        failures.append(f"energy_balance_residual {resid:.3e} >= "
                        f"{ENERGY_RESIDUAL_BOUND}")
    summary = (cfg.output_dir / "summary.txt").read_text()
    if "blow_up = no" not in summary.splitlines():
        failures.append("summary.txt does not report blow_up = no")
    final, _ = load_snapshot(cfg.output_dir / "snapshot_final.bin")
    if final.t != cfg.params.t_end:
        failures.append(f"final snapshot at t = {final.t}, not {cfg.params.t_end}")
    # energy_residual is roundoff-sized, so it is held to its bound only
    observables = {name: rows[-1][name] for name in (
        "energy", "diss_u", "diss_b", "omega_l2", "j_l2", "omega_linf",
        "j_linf", "grad_u_linf", "h1", "h2", "bkm_accum", "bhat_w1inf",
        "bhat_w2inf")}
    observables["records"] = len(rows)
    return {"wall_s": wall, "sim_time": cfg.params.t_end - ctx.state.t,
            "observables": observables, "failures": failures}


def _verify(ctx):
    from gmhd2d.cli import cmd_verify

    codes, suite_s = {}, {}
    t0 = time.perf_counter()
    for suite in VERIFY_SUITES:
        s0 = time.perf_counter()
        codes[suite] = cmd_verify(suite, VERIFY_COUNT,
                                  ctx.out / f"verify_{suite}.csv")
        suite_s[suite] = time.perf_counter() - s0
    wall = time.perf_counter() - t0

    failures = [f"suite {s} exited {c}" for s, c in codes.items() if c != 0]
    observables = {}
    for suite in VERIFY_SUITES:
        lines = (ctx.out / f"verify_{suite}.csv").read_text().splitlines()
        observables[f"{suite}.checks"] = len(lines) - 1
        if suite == "identities":
            continue  # roundoff-sized residuals: checked against bounds only
        for line in lines[1:]:
            check, value = line.split(",")[:2]
            observables[f"{suite}.{check}"] = float(value)
    return {"wall_s": wall, "sim_time": VERIFY_SIM_TIME,
            "observables": observables, "failures": failures,
            "suite_s": suite_s}


def _scan(ctx):
    from gmhd2d.cli import SCAN_CSV_HEADER, cmd_scan

    cfg = ctx.config
    t0 = time.perf_counter()
    code = cmd_scan(cfg, SCAN_VALUES, SCAN_VALUES, ctx.scan_workers)
    wall = time.perf_counter() - t0

    failures = []
    if code != 0:
        failures.append(f"cmd_scan exited {code}")
    lines = (cfg.output_dir / "scan.csv").read_text().splitlines()
    if lines[0] != SCAN_CSV_HEADER:
        failures.append(f"scan.csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(SCAN_VALUES) ** 2:
        failures.append(f"scan.csv has {len(rows)} rows")
    observables = {}
    for alpha, beta, verdict, max_h2, bkm, blowup in rows:
        key = f"alpha={alpha};beta={beta}"
        if blowup != "0":
            failures.append(f"blow-up flag at {key}")
        if not (math.isfinite(float(max_h2)) and math.isfinite(float(bkm))):
            failures.append(f"non-finite norms at {key}")
        observables[f"{key}.verdict"] = verdict
        observables[f"{key}.max_h2"] = float(max_h2)
        observables[f"{key}.bkm_accum"] = float(bkm)
    sim_time = len(rows) * (cfg.params.t_end - ctx.state.t)
    return {"wall_s": wall, "sim_time": sim_time,
            "observables": observables, "failures": failures}


_PASSES = {"stepping": _stepping, "sampled": _sampled, "verify": _verify,
           "scan": _scan}


def compare_observables(observed: dict, reference: dict,
                        rtol: float = 1e-9, atol: float = 1e-12) -> list[str]:
    """Differences between a pass's observables and the stored reference.

    Numbers must agree to rtol/atol (roundoff from a reordered computation
    passes; a changed result does not); strings and key sets must match.
    """
    problems = []
    if set(observed) != set(reference):
        missing = sorted(set(reference) - set(observed))
        extra = sorted(set(observed) - set(reference))
        problems.append(f"observable keys differ: missing {missing}, extra {extra}")
    for key in sorted(set(observed) & set(reference)):
        got, want = observed[key], reference[key]
        if isinstance(want, str) or isinstance(got, str):
            ok = got == want
        else:
            ok = abs(got - want) <= atol + rtol * abs(want)
        if not ok:
            problems.append(f"{key}: {got!r} differs from reference {want!r}")
    return problems
