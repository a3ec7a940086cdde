"""Oracle tests for norms, balance audits, and direction-field machinery.

The Sobolev norm is checked against a gradient-quadrature oracle, lp_norm
against a 4x-oversampled quadrature of the same continuum field, the balance
audits against the closed-form decaying shear, and the unit-field derivatives
against sympy symbolic differentiation away from the zero set of |b|.
"""

from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from gmhd2d.diagnostics import (
    CSV_BASE_COLUMNS,
    DiagnosticsRecord,
    compute_record,
    csv_header,
    direction_field_norms,
    energy_balance_residual,
    lp_vorticity_bound_check,
    read_csv,
    write_csv,
    _BLOCK_POINTS,
    _PAIRS,
    _direction_sups,
    _unit_field_derivatives,
)
from gmhd2d.dynamics import (
    Params,
    cfl_dt,
    initial_condition,
    nonlinear_rhs,
    run,
    step,
    structure_identities,
)
from gmhd2d.inequalities import (
    DEFAULT_INEQUALITY_SPECS,
    Corpus,
    NormTerm,
    check_inequalities,
    check_positivity,
    log_inequality_check,
)
from gmhd2d.cli import cmd_run
from gmhd2d.config import parse_run_config
from gmhd2d.dynamics import load_snapshot
from gmhd2d.spectral import (
    ParameterError,
    get_grid,
    lp_norm,
    magnitude,
    max_magnitude,
    physical_fields,
    random_band_limited_field,
    to_physical,
    to_spectral,
)
from oracles import (
    biot_savart,
    derivative,
    field_from_potential,
    full_spectrum,
    full_to_physical,
    full_to_spectral,
    homogeneous_sobolev_norm,
    norm_of_term,
    overflowing_state,
    traced_peak_planes,
)


def shear_series(nu=1.0, alpha=1.0, t_end=1.0, cadence=0.002, n=32):
    g = get_grid(n)
    st = initial_condition("shear", g)
    p = Params(nu=nu, alpha=alpha, n=n, t_end=t_end)
    return run(st, p, sample_every=cadence), p


class TestSobolevNorm:
    """Spectral Lambda^s norms against eigenmodes and gradient quadrature."""

    def test_eigenmode(self):
        g = get_grid(32)
        c = full_to_spectral(g, np.sin(2 * g.x1))
        base = np.pi * np.sqrt(2)  # ||sin 2x||_2
        assert homogeneous_sobolev_norm(g, c, 1.0) == pytest.approx(2 * base, rel=1e-13)
        assert homogeneous_sobolev_norm(g, c, -1.0) == pytest.approx(base / 2, rel=1e-13)
        assert homogeneous_sobolev_norm(g, c, 0.5) == pytest.approx(
            np.sqrt(2) * base, rel=1e-13)
        # |k|^250 overflows on the empty high modes (|k| <= 16 sqrt 2) but not
        # on the occupied |k| = 2 one (built exactly: no roundoff content)
        exact = np.zeros((32, 32), complex)
        exact[2, 0], exact[-2, 0] = -0.5j, 0.5j
        assert homogeneous_sobolev_norm(g, exact, 250.0) == pytest.approx(
            2.0**250 * base, rel=1e-12)

    def test_s_zero_is_l2(self):
        g = get_grid(64)
        vals = np.random.default_rng(0).standard_normal((64, 64))
        c = full_to_spectral(g, vals)
        assert homogeneous_sobolev_norm(g, c, 0.0) == pytest.approx(
            lp_norm(g, vals, 2), rel=1e-12)

    def test_s_one_is_gradient_norm(self):
        g = get_grid(64)
        c = full_spectrum(g, random_band_limited_field(g, 15, seed=3))
        gx = full_to_physical(g, derivative(g, c, 0))
        gy = full_to_physical(g, derivative(g, c, 1))
        grad_l2 = lp_norm(g, np.hypot(gx, gy), 2)
        assert homogeneous_sobolev_norm(g, c, 1.0) == pytest.approx(grad_l2, rel=1e-10)

    def test_invalid_order(self):
        g = get_grid(16)
        with pytest.raises(ParameterError, match="order"):
            homogeneous_sobolev_norm(g, np.zeros((16, 16), complex), np.nan)


class TestLpOversampled:
    """lp_norm against the same continuum field sampled 4x finer."""

    def test_matches_oversampled_quadrature(self):
        coarse, fine = get_grid(64), get_grid(256)
        for p in (2, 4, 6):
            vc = to_physical(coarse, random_band_limited_field(coarse, 10, seed=21))
            vf = to_physical(fine, random_band_limited_field(fine, 10, seed=21))
            assert lp_norm(coarse, vc, p) == pytest.approx(
                lp_norm(fine, vf, p), rel=1e-10)

    def test_hoelder_on_torus(self):
        # ||f||_p <= (2 pi)^{2(1/p - 1/q)} ||f||_q for p < q
        g = get_grid(64)
        vals = to_physical(g, random_band_limited_field(g, 12, seed=4))
        for p, q in ((1, 2), (2, 4), (2, np.inf), (4, 6)):
            lhs = lp_norm(g, vals, p)
            iq = 0.0 if np.isinf(q) else 1.0 / q
            bound = (2 * np.pi) ** (2 * (1.0 / p - iq)) * lp_norm(g, vals, q)
            assert lhs <= bound * (1 + 1e-10)


class TestComputeRecord:
    """Internal consistency of the per-state record."""

    def test_h1_is_exactly_the_recorded_l2_squares(self):
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        rec = compute_record(st, Params(n=64))
        assert rec.h1 == rec.omega_l2**2 + rec.j_l2**2  # bitwise, by contract

    def test_orszag_tang_closed_forms(self):
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        rec = compute_record(st, Params(n=64), p_list=(4.0,))
        # E = (||u||^2 + ||b||^2)/2 = (4 pi^2 + 4 pi^2)/2
        assert rec.energy == pytest.approx(4 * np.pi**2, rel=1e-12)
        # cross helicity: int u.b = int sin^2 x2 = 2 pi^2
        assert rec.cross_helicity == pytest.approx(2 * np.pi**2, rel=1e-12)
        assert rec.omega_linf == pytest.approx(2.0, rel=1e-12)  # cos x1 + cos x2
        assert rec.j_linf == pytest.approx(3.0, rel=1e-12)      # cos x2 + 2 cos 2x1
        assert rec.bkm_accum == 0.0
        assert rec.energy_residual == 0.0

    def test_dissipation_norms(self):
        # shear: |k| = 1, so int |Lambda^alpha u|^2 = ||u||^2 for any alpha
        g = get_grid(32)
        st = initial_condition("shear", g)
        for alpha in (0.5, 1.0, 1.7):
            rec = compute_record(st, Params(alpha=alpha, n=32))
            assert rec.diss_u == pytest.approx(2 * np.pi**2, rel=1e-12)
            assert rec.diss_omega == pytest.approx(2 * np.pi**2, rel=1e-12)
        assert rec.diss_b == 0.0

    def test_rejects_bad_p(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        with pytest.raises(ParameterError, match="p_list"):
            compute_record(st, Params(n=32), p_list=(0.5,))

    @pytest.mark.parametrize("n, planes", [(64, 19.5), (128, 17), (256, 14)])
    def test_peak_planes(self, n, planes):
        # the three synthesis groups are reduced one after another, and the
        # bhat chain rule runs in row blocks of 8192 points, so one record
        # holds the nine partials of a and about one block of its own (13
        # planes at n = 256, 15 at n = 128).  n = 64 is one block, where a_1
        # and a_2 are dropped before the second partials: 19.2, no more
        g = get_grid(n)
        st = initial_condition("random_band_limited", g, seed=1, k_max=20)
        assert traced_peak_planes(
            lambda: compute_record(st, Params(n=n)), n) <= planes

    def test_row_blocks_meet_at_their_boundaries(self):
        # x1 -> x1 + pi (the spectra times (-1)^k1) rolls every plane by
        # n/2 rows, four of the 32-row blocks at n = 256, so every sup lands
        # in another block
        n = 256
        g = get_grid(n)
        st = initial_condition("random_band_limited", g, seed=3, k_max=20)
        sign = np.where(g.k1 % 2 == 0, 1.0, -1.0)
        shifted = replace(st, omega_hat=sign * st.omega_hat,
                          a_hat=sign * st.a_hat)
        rec, moved = compute_record(st, Params(n=n)), compute_record(
            shifted, Params(n=n))
        for name in ("bhat_w1inf", "bhat_w2inf", "b_linf"):
            assert getattr(moved, name) == pytest.approx(
                getattr(rec, name), rel=1e-9)

    def test_every_row_block_is_read(self):
        # the record's planes rolled by whole blocks carry the sups through
        # every block in turn; each blocked pass must give the sups of one
        # whole-plane chain rule bit for bit, so a skipped block shows
        n = 256
        g = get_grid(n)
        st = initial_condition("random_band_limited", g, seed=3, k_max=20)
        planes = physical_fields(g, st.halves(), "a_2", "a_1", "a_11", "a_12",
                                 "a_22", "a_111", "a_112", "a_122", "a_222")

        def layout(a_2, a_1, a_11, a_12, a_22, a_111, a_112, a_122, a_222):
            return ([a_2, a_1], [[a_12, a_22], [a_11, a_12]],
                    [dict(zip(_PAIRS, (a_112, a_122, a_222))),
                     dict(zip(_PAIRS, (a_111, a_112, a_122)))])

        b, db, d2b = layout(*planes)
        eps = 1e-6 * max_magnitude(*b)
        dbhat, second = _unit_field_derivatives(
            b, magnitude(*b), db, d2b, eps, slice(None))
        whole = (max(np.max(np.abs(v)) for row in dbhat for v in row),
                 max(np.max(np.abs(plane)) for _, _, plane in second))
        rows = _BLOCK_POINTS // n
        for shift in range(0, n, rows):
            rolled = layout(*(np.roll(v, shift, axis=0) for v in planes))
            assert _direction_sups(g, *rolled, eps) == whole

    @staticmethod
    def _scaled_records(s):
        # a large or a small state: squares of its point values overflow
        # (|b| ~ 1e154 and beyond) or underflow (|b| ~ 1e-154 and below),
        # its magnitudes do not; any warning fails the test
        # (filterwarnings = error)
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=67, k_max=8)
        big = replace(st, omega_hat=s * st.omega_hat, a_hat=s * st.a_hat)
        return compute_record(st, Params(n=64)), compute_record(big, Params(n=64))

    @pytest.mark.parametrize("s", [1e155, 1e160, 1e-160, 1e-170])
    def test_grad_u_linf_scales_past_overflowing_squares(self, s):
        # divided back by s: approx's default abs tolerance would pass any
        # value near 1e-160
        rec, big = self._scaled_records(s)
        assert big.grad_u_linf / s == pytest.approx(rec.grad_u_linf, rel=1e-12)
        assert big.b_linf / s == pytest.approx(rec.b_linf, rel=1e-12)

    @pytest.mark.parametrize("s", [1e155, 1e160, 1e-160, 1e-170])
    def test_direction_field_is_scale_invariant(self, s):
        # bhat = b / |b| does not see the scale, and neither does the floor
        rec, big = self._scaled_records(s)
        assert big.bhat_w1inf == pytest.approx(rec.bhat_w1inf, rel=1e-9)
        assert big.bhat_w2inf == pytest.approx(rec.bhat_w2inf, rel=1e-9)

    def test_overflowing_b_records_non_finite_bhat(self):
        # |b| overflows on a finite state: the b-hat floor 1e-6 * max|b| is
        # not finite either, and the record carries inf/nan b-hat columns
        # like its other columns near blow-up, with no error and no warning
        st = overflowing_state()
        assert np.isfinite(st.a_hat).all()
        rec = compute_record(st, Params(n=32))
        assert rec.b_linf == np.inf
        assert not np.isfinite(rec.bhat_w1inf)
        assert not np.isfinite(rec.bhat_w2inf)

    @staticmethod
    def _oracle(st, params, ps, prev=None, e0=None):
        # the record rebuilt from the full-spectrum oracle operators and
        # collocation quadrature (exact: every squared field has degree < n)
        g = st.grid
        wc, ac = full_spectrum(g, st.omega_hat), full_spectrum(g, st.a_hat)
        u1c, u2c = biot_savart(g, wc)
        b1c, b2c, jc = field_from_potential(g, ac)
        w, j = full_to_physical(g, wc), full_to_physical(g, jc)
        u1, u2, b1, b2 = (full_to_physical(g, c) for c in (u1c, u2c, b1c, b2c))
        cell = (2 * np.pi / g.n) ** 2
        du = [full_to_physical(g, derivative(g, c, ax))
              for c in (u1c, u2c) for ax in (0, 1)]
        grad_j = np.hypot(full_to_physical(g, derivative(g, jc, 0)),
                          full_to_physical(g, derivative(g, jc, 1)))
        bhat_w1inf, bhat_w2inf = direction_field_norms(g, b1, b2)
        hs = homogeneous_sobolev_norm
        rec = dict(
            t=st.t,
            energy=0.5 * cell * np.sum(u1**2 + u2**2 + b1**2 + b2**2),
            diss_u=hs(g, u1c, params.alpha)**2 + hs(g, u2c, params.alpha)**2,
            diss_b=hs(g, b1c, params.beta)**2 + hs(g, b2c, params.beta)**2,
            omega_l2=lp_norm(g, w, 2),
            j_l2=lp_norm(g, j, 2),
            omega_linf=lp_norm(g, w, np.inf),
            j_linf=lp_norm(g, j, np.inf),
            grad_u_linf=np.max(np.sqrt(sum(x**2 for x in du))),
            h1=lp_norm(g, w, 2)**2 + lp_norm(g, j, 2)**2,
            h2=(lp_norm(g, w, 2)**2 + hs(g, wc, 1.0)**2
                + lp_norm(g, j, 2)**2 + hs(g, jc, 1.0)**2),
            bhat_w1inf=bhat_w1inf,
            bhat_w2inf=bhat_w2inf,
            omega_lp={p: lp_norm(g, w, p) for p in ps},
            grad_j_lp={p: lp_norm(g, grad_j, p) for p in ps},
            a_l2=lp_norm(g, full_to_physical(g, ac), 2),
            b_linf=np.max(np.hypot(b1, b2)),
            cross_helicity=cell * np.sum(u1 * b1 + u2 * b2),
            diss_omega=hs(g, wc, params.alpha)**2,
        )
        if prev is None:
            rec.update(bkm_accum=0.0, energy_residual=0.0)
        else:
            dt = st.t - prev["t"]
            rec["bkm_accum"] = prev["bkm_accum"] + 0.5 * dt * (
                prev["omega_linf"] + prev["j_linf"]
                + rec["omega_linf"] + rec["j_linf"])
            rate = [params.nu * r["diss_u"] + params.kappa * r["diss_b"]
                    for r in (prev, rec)]
            rec["energy_residual"] = abs(rec["energy"] - prev["energy"]
                                         + 0.5 * dt * sum(rate)) / e0
        return rec

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.3, 2.5)])
    def test_matches_full_spectrum_oracle(self, n, alpha, beta):
        g = get_grid(n)
        st0 = initial_condition("random_band_limited", g, seed=n,
                                k_max=g.dealias_k)
        p = Params(nu=0.1, kappa=0.05, alpha=alpha, beta=beta, n=n)
        ps = (2.0, 4.0, 6.0)
        rec0 = compute_record(st0, p, p_list=ps)
        rec1 = compute_record(step(st0, p, 1e-3), p, p_list=ps, prev=rec0,
                              e0=rec0.energy)
        ref0 = self._oracle(st0, p, ps)
        ref1 = self._oracle(step(st0, p, 1e-3), p, ps, prev=ref0,
                            e0=ref0["energy"])
        for rec, ref in ((rec0, ref0), (rec1, ref1)):
            got = asdict(rec)
            assert set(got) == set(ref)
            for name, want in ref.items():
                if name == "energy_residual":
                    # a difference of O(E) terms over E(0): roundoff is absolute
                    assert got[name] == pytest.approx(want, rel=0, abs=1e-12)
                elif isinstance(want, dict):
                    assert got[name] == pytest.approx(want, rel=1e-12), name
                else:
                    rel = 1e-9 if name == "bhat_w2inf" else 1e-12
                    assert got[name] == pytest.approx(want, rel=rel), name
            # the Parseval L2 norms against their collocation forms
            for name in ("omega_l2", "j_l2", "h1", "h2"):
                assert got[name] == pytest.approx(ref[name], rel=1e-13), name


class TestTransformBudget:
    """The transform counts the benchmark reports, pinned exactly.

    Every 2-D transform of the package is one counted real pass, rfftn or
    irfftn along axis 1, and a complex pass along axis 0 over the columns it
    needs, which is not counted.  A full complex transform (fft2, ifft2,
    fftn, ifftn) would form a whole complex spectrum; none is made.
    """

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = Counter()
        for name in ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2",
                     "rfftn", "irfftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    def test_record_is_twelve_syntheses(self, fft_calls):
        # psi's Hessian and nine partials of a: w and j are their traces
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        compute_record(st, Params(n=64))
        assert fft_calls == {"irfftn": 12}

    def test_direction_field_is_two_analyses_and_ten_syntheses(self, fft_calls):
        g = get_grid(64)
        a2, a1 = physical_fields(g, {"a": random_band_limited_field(g, 8, 1)},
                                 "a_2", "a_1")
        b1, b2 = -a2, a1
        fft_calls.clear()
        direction_field_norms(g, b1, b2)
        assert fft_calls == {"rfftn": 2, "irfftn": 10}

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bad_eps_is_rejected_before_any_transform(self, fft_calls, eps):
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        with pytest.raises(ParameterError, match="eps"):
            compute_record(st, Params(n=64), eps_bhat=eps)
        assert fft_calls == {}

    def test_step_is_twenty_eight_real_transforms(self, fft_calls):
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        step(st, Params(n=64), 1e-3)
        assert fft_calls == {"irfftn": 16, "rfftn": 12}

    def test_tendency_is_seven_real_transforms(self, fft_calls):
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        nonlinear_rhs(st, Params(n=64))
        assert fft_calls == {"irfftn": 4, "rfftn": 3}

    def test_adaptive_run_takes_dt_from_stage_one(self, fft_calls):
        # k CFL-limited steps cost 28 k transforms and each record 12: the
        # CFL speed adds no synthesis of its own
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        p = Params(nu=0.0, kappa=0.0, n=64, t_end=0.1, dt_max=1.0)
        res = run(st, p, sample_every=0.05)
        counts = dict(fft_calls)
        s, steps = st, 0
        for t_target in (0.05, 0.1):
            while s.t < t_target - 1e-12:
                s = step(s, p, min(cfl_dt(s, p), t_target - s.t))
                steps += 1
            s = replace(s, t=t_target)
        assert steps > 4 and len(res.records) == 3
        assert counts == {"irfftn": 16 * steps + 12 * 3, "rfftn": 12 * steps}

    @pytest.mark.parametrize("check, counts", [
        (lambda st: cfl_dt(st, Params(n=64)), {"irfftn": 4}),
        # the 16 distinct planes of the five identities, the 3 analyses of
        # the solver's own stress tendency, and one of each residual's
        # right side
        (structure_identities, {"irfftn": 16, "rfftn": 5}),
    ], ids=["cfl_dt", "identities"])
    def test_state_checks(self, fft_calls, check, counts):
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        fft_calls.clear()
        check(st)
        assert fft_calls == counts

    def test_norm_terms_make_no_complex_transform(self, fft_calls):
        g = get_grid(64)
        f_hat = random_band_limited_field(g, 8, seed=2)
        terms = {t for spec in DEFAULT_INEQUALITY_SPECS
                 for t in [spec.lhs] + [term for term, _ in spec.rhs]}
        for term in terms:
            norm_of_term(g, f_hat, term)
        assert all(fft_calls[name] == 0
                   for name in ("fft2", "ifft2", "fftn", "ifftn"))
        fft_calls.clear()
        # grad^2 b is grad^3 of the potential, up to sign: the four distinct
        # third partials, each synthesized once
        norm_of_term(g, f_hat, NormTerm("b", grad=2, p=4.0))
        assert fft_calls == {"irfftn": 4}

    def test_battery_is_seven_syntheses_per_field(self, fft_calls):
        # 22 distinct terms: the L2 ones are Parseval sums, the rest fall in
        # four (field, grad, lam) families of 1 + 2 + 3 + 1 planes, the sup
        # of grad b being that of the potential's Hessian
        check_inequalities(DEFAULT_INEQUALITY_SPECS, Corpus(count=1),
                           resolutions=(64,))
        assert fft_calls == {"irfftn": 7}

    def test_log_check_is_three_syntheses_per_pair(self, fft_calls):
        # grad u as the stream function's Hessian, whose trace is w
        log_inequality_check(Corpus(count=3), resolutions=(64,))
        assert fft_calls == {"irfftn": 3 * 3}

    def test_package_makes_no_complex_transform(self, fft_calls, tmp_path):
        # one spectral representation: states, snapshots, records and the
        # state checks all use the real transform pair
        g = get_grid(32)
        for kind in ("orszag_tang", "random_band_limited", "shear",
                     "single_mode"):
            initial_condition(kind, g, seed=1, k_max=8)
        cfg = parse_run_config(
            f"params.n = 32\nparams.t_end = 0.02\n"
            f"initial.kind = random_band_limited\ninitial.k_max = 8\n"
            f"sample_every = 0.01\nsnapshot_every = 0.01\n"
            f"output_dir = {tmp_path / 'out'}\n")
        assert cmd_run(cfg) == 0
        st, _ = load_snapshot(tmp_path / "out" / "snapshot_final.bin")
        compute_record(st, Params(n=32))
        structure_identities(st)
        b1, b2 = to_physical(g, st.a_hat), to_physical(g, st.omega_hat)
        direction_field_norms(g, b1, b2)
        assert all(fft_calls[name] == 0
                   for name in ("fft2", "ifft2", "fftn", "ifftn"))
        assert fft_calls["rfftn"] > 0 and fft_calls["irfftn"] > 0

    def test_positivity_is_one_pass_per_field(self, fft_calls):
        # w once per field and Lambda^alpha w once per (field, alpha),
        # shared by every p
        alphas = (0.25, 0.5, 1.0)
        reports = check_positivity(alphas, (2, 4, 6),
                                   Corpus(count=3).fields(64))
        assert len(reports) == 9
        assert fft_calls == {"irfftn": 3 * (1 + len(alphas))}

    def test_corpus_checks_make_no_complex_transform(self, fft_calls):
        corpus = Corpus(count=2)
        check_positivity((1.0,), (4,), corpus.fields(64))
        log_inequality_check(corpus, resolutions=(64,))
        assert all(fft_calls[name] == 0
                   for name in ("fft2", "ifft2", "fftn", "ifftn"))
        assert fft_calls["irfftn"] > 0


class TestEnergyBalance:
    """Balance-law closure on trajectories."""

    def test_decaying_shear_closes(self):
        res, p = shear_series(cadence=0.002)
        assert energy_balance_residual(res.records, p) < 1e-8

    def test_energy_monotone_for_dissipative_runs(self):
        res, _ = shear_series(cadence=0.05, t_end=0.5)
        energies = [r.energy for r in res.records]
        for e1, e2 in zip(energies[:-1], energies[1:]):
            assert e2 <= e1 + 1e-8

    def test_per_record_residual_matches_closed_form_scale(self):
        res, _ = shear_series(cadence=0.002, t_end=0.1)
        assert max(r.energy_residual for r in res.records) < 1e-8

    def test_audit_and_record_share_one_interval_rule(self):
        # criterion 3's audit is the worst per-interval residual the record
        # already carries, bit for bit, on any series run returns: a uniform
        # one, and one whose last interval is short (0, 0.03, 0.06, 0.09, 0.1)
        for n, t_end, sample_every, records in ((64, 0.2, 0.02, 11),
                                                (32, 0.1, 0.03, 5)):
            p = Params(nu=0.1, kappa=0.1, n=n, t_end=t_end)
            res = run(initial_condition("orszag_tang", get_grid(n)), p,
                      sample_every)
            assert len(res.records) == records
            assert energy_balance_residual(res.records, p) == max(
                r.energy_residual for r in res.records[1:])

    def test_ideal_run_at_huge_exponents_has_no_nan(self):
        # |k|^400 overflows on every occupied mode with |k| >~ 5.9, so the
        # dissipation sums read inf; with nu = kappa = 0 they must not leak
        # into the energy residual
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        p = Params(nu=0, kappa=0, alpha=200, beta=200, n=64, t_end=0.01)
        res = run(st, p, 0.005)
        assert len(res.records) == 3 and not res.blew_up
        for rec in res.records:
            values = []
            for v in asdict(rec).values():
                values += list(v.values()) if isinstance(v, dict) else [v]
            assert not np.any(np.isnan(values))
            assert rec.energy_residual < 1e-6
        assert np.isinf(res.records[0].diss_u)

    def test_cadence_and_length_validation(self):
        res, p = shear_series(cadence=0.25, t_end=0.5)
        with pytest.raises(ParameterError, match="increasing"):
            energy_balance_residual(res.records + [res.records[-1]], p)
        with pytest.raises(ParameterError, match="at least"):
            energy_balance_residual(res.records[:1], p)


class TestLpBound:
    """Interval audit of the L^p vorticity growth inequality."""

    def test_pure_dissipation_never_violates(self):
        res, _ = shear_series(cadence=0.05)
        rep = lp_vorticity_bound_check(res.records, 4.0)
        assert rep.passed
        assert rep.violations == []
        assert rep.max_excess < 0
        assert rep.checked_intervals == len(res.records) - 1

    def test_steady_state_holds_with_slack(self):
        g = get_grid(32)
        st = initial_condition("single_mode", g, mode=(1, 0))
        p = Params(nu=0.0, kappa=0.0, n=32, t_end=0.2)
        res = run(st, p, sample_every=0.05)
        rep = lp_vorticity_bound_check(res.records, 6.0)
        assert rep.passed

    def test_max_ratio_of_a_hand_made_series(self):
        # rhs = trapezoid of |b|_inf ||grad j||_4: 1 and 0.5 on the first two
        # intervals, where lhs is 0.5 and 0.3; the third has rhs = 0 and
        # no ratio
        records = [
            DiagnosticsRecord(**dict(dict.fromkeys(CSV_BASE_COLUMNS, 0.0), t=t),
                              omega_lp={4.0: w}, grad_j_lp={4.0: 1.0}, b_linf=b)
            for t, w, b in ((0.0, 1.0, 1.0), (1.0, 1.5, 1.0),
                            (2.0, 1.8, 0.0), (3.0, 1.7, 0.0))]
        rep = lp_vorticity_bound_check(records, 4.0)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(0.6, rel=1e-12)
        rep = lp_vorticity_bound_check(records[2:], 4.0)
        assert rep.max_ratio == -np.inf

    def test_validation(self):
        res, _ = shear_series(cadence=0.1, t_end=0.2)
        with pytest.raises(ParameterError, match="p must be"):
            lp_vorticity_bound_check(res.records, 1.5)
        with pytest.raises(ParameterError, match="recorded"):
            lp_vorticity_bound_check(res.records, 8.0)


class TestBkm:
    """Accumulated L-infinity integral (upper proxy for the criterion)."""

    def test_decaying_shear_closed_form(self):
        # integrand = |w|_inf = e^{-nu t}: integral (1 - e^{-nu t})/nu
        res, _ = shear_series(nu=1.0, cadence=0.005)
        total = res.records[-1].bkm_accum
        assert total == pytest.approx(1 - np.exp(-1.0), abs=1e-5)

    def test_record_field_matches_accumulator(self):
        # the running trapezoid of |w|_inf + |j|_inf, rebuilt from the records
        res, _ = shear_series(cadence=0.05, t_end=0.5)
        acc = 0.0
        for r1, r2 in zip(res.records[:-1], res.records[1:]):
            acc += 0.5 * ((r1.omega_linf + r1.j_linf)
                          + (r2.omega_linf + r2.j_linf)) * (r2.t - r1.t)
            assert r2.bkm_accum == pytest.approx(acc, rel=1e-14, abs=1e-300)

    def test_monotone(self):
        res, _ = shear_series(cadence=0.05, t_end=0.5)
        vals = [r.bkm_accum for r in res.records]
        assert all(v2 >= v1 for v1, v2 in zip(vals[:-1], vals[1:]))


class TestDirectionField:
    """Derivative norms of the unit field of b."""

    def test_constant_field(self):
        # the spectral partials of a constant vanish to roundoff
        g = get_grid(32)
        ones = np.ones((32, 32))
        zeros = np.zeros((32, 32))
        assert max(direction_field_norms(g, ones, zeros)) < 1e-12

    def test_zero_field_has_zero_norms(self):
        # the floor is positive at b = 0, so bhat = 0 there, not 0/0 = nan
        # (any warning fails the test: filterwarnings = error)
        g = get_grid(32)
        z = np.zeros((32, 32))
        assert direction_field_norms(g, z, z) == (0.0, 0.0)

    def test_auto_eps_default(self):
        # b = (c sin x1, 0) vanishes at the grid point x1 = 0, where
        # d1 bhat1 = d1 b1 / eps = c / eps; elsewhere |d1 bhat1| is far
        # smaller.  So w1inf pins the floor eps = 1e-6 * max|b| = 1e-6 c
        g = get_grid(32)
        for c in (2.0, 1e-3):
            w1inf, _ = direction_field_norms(g, c * np.sin(g.x1),
                                             np.zeros((32, 32)))
            assert w1inf == pytest.approx(1e6, rel=1e-12)

    def test_matches_sympy_oracle_away_from_zeros(self):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        b1s = -sympy.sin(x) * sympy.cos(y)
        b2s = sympy.cos(x) * sympy.sin(y)
        rho0 = sympy.sqrt(b1s**2 + b2s**2)
        exprs = {}
        for jc, comp in ((0, b1s), (1, b2s)):
            bh = comp / rho0
            for i, v in ((0, x), (1, y)):
                exprs[("d", jc, i)] = bh.diff(v)
                for k, w in ((0, x), (1, y)):
                    if i <= k:
                        exprs[("d2", jc, i, k)] = bh.diff(v).diff(w)
        fns = {key: sympy.lambdify((x, y), e, "numpy") for key, e in exprs.items()}

        g = get_grid(64)
        b1 = -np.sin(g.x1) * np.cos(g.x2)
        b2 = np.cos(g.x1) * np.sin(g.x2)
        halves = {"b1": to_spectral(g, b1), "b2": to_spectral(g, b2)}
        db = [physical_fields(g, halves, c + "_1", c + "_2") for c in halves]
        d2b = [dict(zip(_PAIRS, physical_fields(
            g, halves, c + "_11", c + "_12", c + "_22"))) for c in halves]
        mag = magnitude(b1, b2)
        dbhat, second = _unit_field_derivatives(
            (b1, b2), mag, db, d2b, 1e-6, slice(None))
        # every streamed plane is one reused buffer: keep a copy of each
        d2bhat = {(jc, ik): plane.copy() for jc, ik, plane in second}
        assert sorted(d2bhat) == sorted((jc, ik) for jc in (0, 1) for ik in _PAIRS)
        mask = mag > 0.1
        # the symbolic reference itself blows up on the zero set of |b|;
        # the mask discards those grid points
        with np.errstate(divide="ignore", invalid="ignore"):
            for jc in (0, 1):
                for i in (0, 1):
                    ref = fns[("d", jc, i)](g.x1, g.x2)
                    err = np.max(np.abs(dbhat[jc][i] - ref)[mask])
                    assert err < 1e-6
            for (jc, (i, k)), vals in d2bhat.items():
                ref = fns[("d2", jc, i, k)](g.x1, g.x2)
                err = np.max(np.abs(vals - ref)[mask])
                assert err < 1e-6

    def test_rescaling_invariance(self):
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        b1c, b2c, _ = field_from_potential(g, full_spectrum(g, st.a_hat))
        b1, b2 = full_to_physical(g, b1c), full_to_physical(g, b2c)
        # the floor 1e-6 * max|b| scales with b, so bhat does not see lam;
        # b vanishes on the grid, where the floor sets both norms and w2inf
        # keeps 1e-9, as in the record's oracle test
        lam = 7.3
        base = direction_field_norms(g, b1, b2)
        scaled = direction_field_norms(g, lam * b1, lam * b2)
        assert scaled[0] == pytest.approx(base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(base[1], rel=1e-9)

    def test_peak_is_at_most_17_planes(self):
        # the record's row-blocked chain rule: the ten partials of b and
        # about one 64-row block of its own (16 planes at n = 128)
        n = 128
        g = get_grid(n)
        a2, a1 = physical_fields(g, {"a": random_band_limited_field(g, 20, 1)},
                                 "a_2", "a_1")
        b1, b2 = -a2, a1
        assert traced_peak_planes(
            lambda: direction_field_norms(g, b1, b2), n) <= 17


class TestCsv:
    """Deterministic CSV round trip with the pinned header."""

    def test_header_literal(self):
        assert csv_header([4.0, 6.0]) == (
            "t,energy,diss_u,diss_b,omega_l2,j_l2,omega_linf,j_linf,"
            "grad_u_linf,h1,h2,bkm_accum,bhat_w1inf,bhat_w2inf,energy_residual,"
            "omega_lp_4,omega_lp_6")

    def test_round_trip_exact(self, tmp_path):
        res, _ = shear_series(cadence=0.1, t_end=0.3)
        path = tmp_path / "diag.csv"
        write_csv(path, res.records)
        names, rows = read_csv(path)
        assert names[: len(CSV_BASE_COLUMNS)] == list(CSV_BASE_COLUMNS)
        assert names[len(CSV_BASE_COLUMNS):] == ["omega_lp_4", "omega_lp_6"]
        assert len(rows) == len(res.records)
        for rec, row in zip(res.records, rows):
            # 17 significant digits reproduce doubles exactly
            assert row["energy"] == rec.energy
            assert row["omega_lp_4"] == rec.omega_lp[4.0]
            assert row["t"] == rec.t

    def test_deterministic_bytes(self, tmp_path):
        res, _ = shear_series(cadence=0.1, t_end=0.3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, res.records)
        write_csv(p2, res.records)
        assert p1.read_bytes() == p2.read_bytes()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
