"""Acceptance battery: one test per shipped guarantee.

Each test ends with a single [criterion NN] PASS line (visible with -s);
under plain `pytest -v` the per-test PASSED/FAILED verdicts serve as the
one-line-per-criterion report.  Criteria 3 and 9 integrate trajectories at
n = 128..256 and dominate the runtime (about a minute combined).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gmhd2d
from gmhd2d.analysis import classify_regime, weak_dissipation_exponents
from gmhd2d.cli import SCAN_CSV_HEADER, classifier_grid_violations
from gmhd2d.diagnostics import (
    energy_balance_residual,
    lp_vorticity_bound_check,
)
from gmhd2d.dynamics import (
    Params,
    initial_condition,
    run,
    structure_identities,
)
from gmhd2d.inequalities import (
    Corpus,
    DEFAULT_INEQUALITY_SPECS,
    check_inequalities,
    check_positivity,
    log_inequality_check,
)
from gmhd2d.spectral import (
    fractional_power,
    get_grid,
    spectral_l2,
    to_physical,
    to_spectral,
)


def _line(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS: {detail}")


def test_criterion_01_fractional_multiplier_exact_on_pure_modes():
    t0 = time.perf_counter()
    n = 128
    g = get_grid(n)
    modes = [(1, 0), (0, 1), (2, 3), (5, 5), (-7, 4), (13, -29),
             (42, 0), (0, 42), (-42, 21), (42, 42)]
    worst = 0.0
    for s in (0.5, 1.0, 1.3, 2.0, 4.0):
        for k1, k2 in modes:
            # pure cosine mode written directly as a band spectrum: the
            # entries of (k1, k2) and (-k1, -k2) that land in columns
            # 0..K = 42 (both when k2 = 0)
            c = np.zeros((n, g.dealias_k + 1), dtype=complex)
            for p, q in ((k1, k2), (-k1, -k2)):
                if q >= 0:
                    c[p % n, q] += 0.5
            out = fractional_power(g, c, s)
            factor = float(k1 * k1 + k2 * k2) ** (s / 2.0)
            rel = (np.max(np.abs(out - factor * c))
                   / (factor * np.max(np.abs(c))))
            worst = max(worst, rel)
            assert rel <= 1e-12, (s, k1, k2, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, f"50 (s, mode) pairs, worst relative error {worst:.2e} "
             f"in {elapsed:.2f}s")


def test_criterion_02_structure_identities_on_seeded_states():
    t0 = time.perf_counter()
    g = get_grid(128)
    worst_resid = 0.0
    worst_cancel = 0.0
    for seed in range(1, 51):
        st = initial_condition("random_band_limited", g, seed=seed, k_max=16)
        rep = structure_identities(st)
        worst_resid = max(worst_resid, rep.current, rep.forcing)
        worst_cancel = max(worst_cancel, rep.self_transport_omega,
                           rep.self_transport_current, rep.lorentz_exchange)
    elapsed = time.perf_counter() - t0
    assert worst_resid < 1e-9
    assert worst_cancel < 1e-10
    assert elapsed < 30.0
    _line(2, f"50 states: residuals <= {worst_resid:.2e}, "
             f"cancellations <= {worst_cancel:.2e} in {elapsed:.1f}s")


def test_criterion_03_energy_law_and_ideal_invariants():
    # dissipative closure: energy drop must equal the integrated dissipation
    # cadence 0.002: the trapezoid residual scales with cadence^2 and the
    # 0.005 default sits just above the 1e-6 gate during the early transient
    p = Params(nu=1.0, kappa=1.0, alpha=1.0, beta=1.0, n=128, t_end=1.0)
    res = run(initial_condition("orszag_tang", get_grid(128)), p,
              sample_every=0.002, fixed_dt=1e-3)
    resid = energy_balance_residual(res.records, p)
    assert resid < 1e-6

    # undamped run: the three quadratic invariants must hold to roundoff scale
    p0 = Params(nu=0.0, kappa=0.0, alpha=1.0, beta=1.0, n=256, t_end=0.5)
    res0 = run(initial_condition("orszag_tang", get_grid(256)), p0,
               sample_every=0.005)
    r0 = res0.records[0]
    drift = 0.0
    for r in res0.records[1:]:
        drift = max(
            drift,
            abs(r.energy - r0.energy) / r0.energy,
            abs(r.cross_helicity - r0.cross_helicity) / abs(r0.cross_helicity),
            abs(r.a_l2**2 - r0.a_l2**2) / r0.a_l2**2,
        )
    assert drift < 1e-6
    _line(3, f"energy-balance residual {resid:.2e}; ideal invariant drift "
             f"{drift:.2e} over t in [0, 0.5] at n = 256")


def test_criterion_04_closed_form_decay_and_rk4_order():
    # parallel shear carries no nonlinearity; each alpha must reproduce the
    # exact exponential factor of its unit-wavenumber mode
    g32 = get_grid(32)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        p = Params(nu=1.0, kappa=0.0, alpha=alpha, beta=1.0, n=32, t_end=1.0)
        st = initial_condition("shear", g32)
        res = run(st, p, sample_every=1.0, fixed_dt=0.05)
        w0 = to_physical(g32, st.omega_hat)
        w1 = to_physical(g32, res.final_state.omega_hat)
        rel = float(np.max(np.abs(w1 - math.exp(-1.0) * w0))
                    / np.max(np.abs(w0)))
        worst = max(worst, rel)
        assert rel <= 1e-10, (alpha, rel)

    # step-halving self-convergence on the nonlinear benchmark
    g = get_grid(64)
    finals = []
    for dt in (0.005, 0.0025, 0.00125):
        p = Params(nu=1.0, kappa=1.0, alpha=1.0, beta=1.0, n=64, t_end=0.25)
        res = run(initial_condition("orszag_tang", g), p,
                  sample_every=0.25, fixed_dt=dt)
        finals.append(res.final_state)
    e1 = (spectral_l2(g, finals[0].omega_hat - finals[1].omega_hat)
          + spectral_l2(g, finals[0].a_hat - finals[1].a_hat))
    e2 = (spectral_l2(g, finals[1].omega_hat - finals[2].omega_hat)
          + spectral_l2(g, finals[1].a_hat - finals[2].a_hat))
    order = math.log2(e1 / e2)
    assert order >= 3.8
    _line(4, f"shear decay error <= {worst:.2e} at t = 1; "
             f"step-halving order {order:.2f}")


def test_criterion_05_fractional_positivity_over_corpus():
    t0 = time.perf_counter()
    reports = check_positivity((0.25, 0.5, 1.0), (2, 4, 6),
                               Corpus().fields(128))
    assert len(reports) == 9
    worst = math.inf
    for rep in reports:
        worst = min(worst, rep.min_normalized)
        assert rep.min_normalized >= -1e-10, (rep.alpha, rep.p)
        assert rep.corpus_size == 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(5, f"9 (alpha, p) pairs x 200 fields: min normalized integral "
             f"{worst:.3e} in {elapsed:.1f}s")


def test_criterion_06_interpolation_constants_stable_under_refinement():
    corpus = Corpus()
    reports = check_inequalities(DEFAULT_INEQUALITY_SPECS, corpus)
    reports.append(log_inequality_check(corpus))
    assert len(reports) == 14
    for rep in reports:
        assert rep.passed, rep.summary()
        assert rep.growth < 0.05, rep.summary()
    worst = max(r.growth for r in reports)
    _line(6, f"14 inequalities: worst max-ratio growth on the final "
             f"refinement {worst:+.2%}")


def test_criterion_07_weak_dissipation_exponent_algebra():
    e = weak_dissipation_exponents(0.4, 5.0)
    assert e.xi == pytest.approx(0.2, rel=1e-12)
    assert e.eta == pytest.approx(0.5, rel=1e-12)
    assert e.a == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert e.p == pytest.approx(25.0 / 9.0, rel=1e-12)

    worst = 0.0
    points = 0
    for alpha in np.linspace(0.05, 0.45, 10):
        for mult in np.linspace(1.1, 30.0, 10):
            p1 = mult / alpha
            e = weak_dissipation_exponents(alpha, p1)
            lhs = alpha - 1.0 / e.p
            rhs = ((1.0 - 3.0 * alpha / (alpha + 1.0))
                   / (1.0 - 2.0 * e.a)) * (alpha - 1.0 / p1)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-12, (alpha, p1)
            assert 0.0 < e.a < 1.0 / 3.0
            assert 1.0 / alpha < e.p < p1
            points += 1
    assert points == 100
    _line(7, f"descent identity holds to {worst:.1e} on 100 points; "
             f"worked point exact")


def test_criterion_08_regime_classifier_points_and_grid():
    t0 = time.perf_counter()
    cases = [
        (0.5, 1.0, "ProvenRegular", "AlphaGeHalfBetaGeOne"),
        (0.25, 1.6, "ProvenRegular", "TwoAlphaPlusBetaGtTwo"),
        (2.0, 0.0, "ProvenRegular", "AlphaGeTwoBetaZero"),
        (1.0, 1.0, "ProvenRegular", "AlphaGeOneSumGeTwo"),
        (0.0, 2.0, "ConditionallyRegular", "ZeroAlphaBetaGtOne"),
        (0.0, 1.5, "ConditionallyRegular", "ZeroAlphaBetaGtOne"),
        (0.0, 2.5, "ProvenRegular", "TwoAlphaPlusBetaGtTwo"),
        (0.1, 1.0, "Open", None),
        (1.9, 0.0, "Open", None),
        (0.0, 1.0, "Open", None),
    ]
    for alpha, beta, verdict, witness in cases:
        v = classify_regime(alpha, beta)
        assert v.verdict == verdict, (alpha, beta, v)
        if witness is not None:
            assert witness in v.witnesses, (alpha, beta, v)
    v02 = classify_regime(0.0, 2.0)
    assert v02.note == "combined-exponent exception at (0, 2)"

    mono, coverage = classifier_grid_violations(max_exponent=4.0, step=0.01)
    assert (mono, coverage) == (0, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line(8, f"{len(cases)} sample points and 401x401 grid invariants "
             f"in {elapsed:.1f}s")


def test_criterion_09_scan_cli_deterministic_smoke(tmp_path):
    # the subprocess imports the same gmhd2d as this test, whether it comes
    # from an install or from pytest's pythonpath setting
    package_root = str(Path(gmhd2d.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    csv_bytes = {}
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        cfg = tmp_path / f"scan_w{workers}.cfg"
        cfg.write_text(
            "params.nu = 1.0\nparams.kappa = 1.0\nparams.n = 64\n"
            "params.t_end = 0.25\ninitial.kind = orszag_tang\n"
            f"sample_every = 0.05\noutput_dir = {out}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "gmhd2d", "scan", "--config", str(cfg),
             "--alpha", "0.5:1.5:0.5", "--beta", "0.5:1.5:0.5",
             "--workers", workers],
            capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        csv_bytes[workers] = (out / "scan.csv").read_bytes()
    assert csv_bytes["1"] == csv_bytes["4"]

    lines = csv_bytes["1"].decode().splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 10
    # beta = 1/2 with alpha < 3/2 admits no witness: the half-dissipation
    # route needs beta >= 1, the weak-alpha route needs 2*alpha + beta > 2,
    # and the combined route needs alpha + beta >= 2
    expected = {
        (0.5, 0.5): "Open", (0.5, 1.0): "ProvenRegular",
        (0.5, 1.5): "ProvenRegular", (1.0, 0.5): "Open",
        (1.0, 1.0): "ProvenRegular", (1.0, 1.5): "ProvenRegular",
        (1.5, 0.5): "ProvenRegular", (1.5, 1.0): "ProvenRegular",
        (1.5, 1.5): "ProvenRegular",
    }
    seen = {}
    for ln in lines[1:]:
        a, b, verdict, max_h2, bkm, blowup = ln.split(",")
        key = (float(a), float(b))
        seen[key] = verdict
        assert verdict == classify_regime(*key).verdict
        assert math.isfinite(float(max_h2))
        assert math.isfinite(float(bkm)) and 0.0 <= float(bkm) < 1e3
        assert blowup == "0"
    assert seen == expected
    proven = sum(1 for v in seen.values() if v == "ProvenRegular")
    _line(9, f"3x3 scan deterministic across workers 1/4, exit 0, "
             f"{proven}/9 proven-regular, no blow-up flags")


def test_criterion_10_lp_growth_bound_audit():
    p = Params(nu=1.0, kappa=1.0, alpha=0.25, beta=1.6, n=128, t_end=1.0)
    res = run(initial_condition("orszag_tang", get_grid(128)), p,
              sample_every=0.01, p_list=(4.0, 6.0))
    assert not res.blew_up
    rep = lp_vorticity_bound_check(res.records, 6.0)
    assert rep.checked_intervals == 100
    assert rep.violations == []
    assert rep.passed
    assert rep.max_excess < 0.0
    _line(10, f"100 intervals audited, max excess {rep.max_excess:.2e} "
              f"(negative margin, no violations), max lhs/rhs "
              f"{rep.max_ratio:.3f}")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
