"""Tests for regime classification, exponent algebra, and Gronwall audits.

The classifier is checked against hand-evaluated sample points and the two
grid invariants (monotone proven region, combined-exponent coverage) at a
coarse resolution; the exponent map against hand-derived rationals; the
Gronwall auditor against saturating and exactly-constructed recursions.
"""

import numpy as np
import pytest

from gmhd2d.analysis import (
    PROVEN_TAGS,
    COMBINED_EXCEPTION_NOTE,
    VERDICT_CONDITIONAL,
    VERDICT_OPEN,
    VERDICT_PROVEN,
    VERDICTS,
    classify_regime,
    fit_gronwall_constant,
    gronwall_check,
    verdict_ranks,
    weak_dissipation_exponents,
)
from gmhd2d.dynamics import Params, initial_condition, run
from gmhd2d.spectral import ParameterError, get_grid


class TestClassifier:
    def test_half_one_point(self):
        v = classify_regime(0.5, 1.0)
        assert v.verdict == VERDICT_PROVEN
        assert "AlphaGeHalfBetaGeOne" in v.witnesses
        assert "SumGeTwoCombined" not in v.witnesses  # sum = 1.5

    def test_weak_alpha_strong_beta_point(self):
        v = classify_regime(0.25, 1.6)
        assert v.verdict == VERDICT_PROVEN
        assert v.witnesses == ("TwoAlphaPlusBetaGtTwo",)

    def test_strong_alpha_no_beta_point(self):
        v = classify_regime(2.0, 0.0)
        assert v.verdict == VERDICT_PROVEN
        assert v.describe() == "ProvenRegular [AlphaGeTwoBetaZero; SumGeTwoCombined]"

    def test_exceptional_corner(self):
        v = classify_regime(0.0, 2.0)
        assert v.verdict == VERDICT_CONDITIONAL
        assert v.witnesses == ("ZeroAlphaBetaGtOne",)
        assert v.note == COMBINED_EXCEPTION_NOTE
        assert v.describe() == (
            "ConditionallyRegular [ZeroAlphaBetaGtOne; "
            "combined-exponent exception at (0, 2)]")

    def test_above_the_exceptional_corner(self):
        # beta > 2 at alpha = 0 re-enters the proven region
        v = classify_regime(0.0, 2.5)
        assert v.verdict == VERDICT_PROVEN
        assert "TwoAlphaPlusBetaGtTwo" in v.witnesses

    def test_one_one_point(self):
        v = classify_regime(1.0, 1.0)
        assert v.verdict == VERDICT_PROVEN
        assert "AlphaGeHalfBetaGeOne" in v.witnesses
        assert "AlphaGeOneSumGeTwo" in v.witnesses
        assert "SumGeTwoCombined" in v.witnesses
        assert v.note is None  # a sourced witness holds too

    def test_unsourced_witness_alone_is_noted(self):
        # 1 <= alpha < 2, 0 < beta < 1: only the fourth, unsourced condition
        # proves the point, and the verdict says so
        v = classify_regime(1.5, 0.5)
        assert v.verdict == VERDICT_PROVEN
        assert v.witnesses == ("AlphaGeOneSumGeTwo", "SumGeTwoCombined")
        assert v.note == "AlphaGeOneSumGeTwo cites no source"
        assert v.describe() == (
            "ProvenRegular [AlphaGeOneSumGeTwo; SumGeTwoCombined; "
            "AlphaGeOneSumGeTwo cites no source]")

    def test_open_point(self):
        v = classify_regime(0.1, 1.0)
        assert v.verdict == VERDICT_OPEN
        assert v.witnesses == ()
        assert v.describe() == "Open"

    def test_conditional_line(self):
        assert classify_regime(0.0, 1.5).verdict == VERDICT_CONDITIONAL
        assert classify_regime(0.0, 1.0).verdict == VERDICT_OPEN  # needs beta > 1

    def test_verdict_matches_witness_invariant(self):
        for a, b in ((0.0, 0.0), (0.3, 1.5), (1.7, 0.4), (0.0, 3.0), (4.0, 4.0)):
            v = classify_regime(a, b)
            has_proven = any(w in PROVEN_TAGS for w in v.witnesses)
            assert (v.verdict == VERDICT_PROVEN) == has_proven

    def test_validation(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            classify_regime(-0.1, 1.0)
        with pytest.raises(ParameterError, match="nonnegative"):
            classify_regime(1.0, -2.0)
        with pytest.raises(ParameterError, match="finite"):
            classify_regime(float("nan"), 1.0)

    def test_coarse_grid_invariants(self):
        # full-resolution versions of these run in the acceptance suite
        rank = {VERDICT_OPEN: 0, VERDICT_CONDITIONAL: 1, VERDICT_PROVEN: 2}
        vals = [i / 10 for i in range(41)]
        grid = np.array([[rank[classify_regime(a, b).verdict] for b in vals]
                         for a in vals])
        proven = grid == 2
        assert not np.any(proven[:-1, :] & (grid[1:, :] == 0))
        assert not np.any(proven[:, :-1] & (grid[:, 1:] == 0))
        for a in vals:
            for b in vals:
                if a > 0 and a + b >= 2:
                    assert classify_regime(a, b).verdict == VERDICT_PROVEN


class TestVerdictRanks:
    """The elementwise verdict rule against scalar rules written out here."""

    @staticmethod
    def oracle_rank(a, b):
        # the source paper's three proven cases, the code's extra case
        # (alpha >= 1, beta > 0, alpha + beta >= 2; beyond the paper), then
        # the paper's conditional nu = 0, beta > 1 result; 2 / 1 / 0 as in
        # VERDICTS
        if a >= 0.5 and b >= 1:
            return 2
        if 0 <= a < 0.5 and 2 * a + b > 2:
            return 2
        if a >= 2 and b == 0:
            return 2
        if a >= 1 and b > 0 and a + b >= 2:
            return 2
        if a == 0 and b > 1:
            return 1
        return 0

    def expected_ranks(self, alphas, betas):
        return np.array([self.oracle_rank(a, b)
                         for a, b in zip(np.ravel(alphas).tolist(),
                                         np.ravel(betas).tolist())],
                        dtype=np.int8)

    def test_full_grid(self):
        # the verify suite's 401 x 401 grid on [0, 4]^2
        vals = np.arange(401) * 4.0 / 400
        assert vals.tolist() == [i * 4.0 / 400 for i in range(401)]
        a, b = np.meshgrid(vals, vals, indexing="ij")
        ranks = verdict_ranks(vals[:, None], vals[None, :])
        assert ranks.dtype == np.int8 and ranks.shape == (401, 401)
        np.testing.assert_array_equal(ranks.ravel(), self.expected_ranks(a, b))

    def test_boundary_lines(self):
        # every line where a condition switches; classify_regime's verdict
        # and witnesses must agree with the same rules
        t = np.linspace(0.0, 4.0, 801)
        lines = [(np.full_like(t, a), t) for a in (0.0, 0.5, 1.0, 2.0)]
        lines += [(t, np.full_like(t, b)) for b in (0.0, 1.0, 2.0)]
        s = np.linspace(0.0, 1.0, 401)
        lines.append((s, 2.0 - 2.0 * s))  # 2 alpha + beta = 2
        for alphas, betas in lines:
            expected = self.expected_ranks(alphas, betas)
            np.testing.assert_array_equal(verdict_ranks(alphas, betas),
                                          expected)
            for a, b, rank in zip(alphas, betas, expected):
                v = classify_regime(a, b)
                assert VERDICTS.index(v.verdict) == rank
                proven = any(w in PROVEN_TAGS for w in v.witnesses)
                assert proven == (rank == 2)
                if rank == 1:
                    assert "ZeroAlphaBetaGtOne" in v.witnesses

    def test_scalar_and_validation(self):
        assert verdict_ranks(0.0, 2.0) == 1
        assert verdict_ranks(0.1, 1.0) == 0
        assert verdict_ranks(2.0, 0.0) == 2
        with pytest.raises(ParameterError, match="finite"):
            verdict_ranks([0.5, np.inf], 1.0)
        with pytest.raises(ParameterError, match="nonnegative"):
            verdict_ranks(1.0, [0.5, -1e-300])


class TestWeakDissipationExponents:
    def test_worked_point(self):
        e = weak_dissipation_exponents(0.4, 5.0)
        assert e.xi == pytest.approx(0.2, rel=1e-12)
        assert e.eta == pytest.approx(0.5, rel=1e-12)
        assert e.a == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert e.p == pytest.approx(25.0 / 9.0, rel=1e-12)

    def test_descent_identity(self):
        for alpha in (0.1, 0.25, 0.4, 0.49):
            for mult in (1.2, 2.0, 5.0, 20.0):
                p1 = mult / alpha
                e = weak_dissipation_exponents(alpha, p1)
                lhs = alpha - 1.0 / e.p
                rhs = ((1.0 - 3.0 * alpha / (alpha + 1.0))
                       / (1.0 - 2.0 * e.a)) * (alpha - 1.0 / p1)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_interval_memberships(self):
        e = weak_dissipation_exponents(0.49, 10.0)
        assert 0.0 < e.a < 1.0 / 3.0
        assert 0.0 < e.xi < 1.0
        assert 0.0 < e.eta < 1.0
        assert 1.0 / 0.49 < e.p < 10.0

    def test_validation(self):
        with pytest.raises(ParameterError, match="alpha"):
            weak_dissipation_exponents(0.5, 10.0)  # boundary excluded
        with pytest.raises(ParameterError, match="alpha"):
            weak_dissipation_exponents(0.0, 10.0)
        with pytest.raises(ParameterError, match="p1"):
            weak_dissipation_exponents(0.4, 2.5)  # exactly 1/alpha
        with pytest.raises(ParameterError, match="p1"):
            weak_dissipation_exponents(0.4, 2.0)


class TestGronwall:
    def test_constant_equality(self):
        t = np.linspace(0.0, 1.0, 11)
        c = np.full(11, 3.0)
        z = np.zeros(11)
        rep = gronwall_check(t, c, z, z)
        assert rep.passed
        assert np.all(rep.checked)
        assert np.max(np.abs(rep.margin)) == 0.0

    def test_pure_decay(self):
        t = np.linspace(0.0, 2.0, 201)
        rep = gronwall_check(t, np.exp(-t), np.zeros_like(t), np.zeros_like(t))
        assert rep.passed
        assert np.all(rep.checked)  # forward differences negative
        assert np.all(rep.margin[1:] > 0.0)

    def test_saturating_exponential(self):
        # forward differences overshoot e^t, so the hypothesis fails on every
        # interval and only the (trivially true) initial sample is checked;
        # the margin shows the conclusion saturating to equality
        t = np.linspace(0.0, 1.0, 101)
        rep = gronwall_check(t, np.exp(t), np.zeros_like(t), np.ones_like(t))
        assert rep.checked[0] and not np.any(rep.checked[1:])
        assert rep.passed
        assert np.max(np.abs(rep.margin)) < 1e-12

    def test_exact_discrete_recursion(self):
        # eta built to satisfy the discrete hypothesis with equality
        dt, n = 0.1, 30
        t = dt * np.arange(n)
        phi = np.ones(n)
        psi = np.full(n, 0.5)
        eta = np.empty(n)
        eta[0] = 2.0
        for i in range(n - 1):
            eta[i + 1] = eta[i] * (1.0 + dt) - psi[i] * dt
        rep = gronwall_check(t, eta, psi, phi)
        assert np.all(rep.checked)
        assert rep.passed

    def test_gate_stops_at_first_violation(self):
        t = np.linspace(0.0, 0.4, 5)
        eta = np.array([1.0, 1.0, 1.0, 5.0, 5.0])
        z = np.zeros(5)
        rep = gronwall_check(t, eta, z, z)
        assert list(rep.checked) == [True, True, True, False, False]
        assert rep.passed  # all checked samples satisfy the conclusion

    def test_fit_constant_on_saturating_series(self):
        t = np.linspace(0.0, 1.0, 101)
        eta = np.exp(t)
        z = np.zeros_like(t)
        c = fit_gronwall_constant(t, eta, z, np.ones_like(t))
        dt = t[1] - t[0]
        assert c == pytest.approx(np.expm1(dt) / dt, rel=1e-6)
        rep = gronwall_check(t, eta, z, c * np.ones_like(t))
        assert np.all(rep.checked)
        assert rep.passed

    def test_fit_constant_infeasible(self):
        t = np.linspace(0.0, 1.0, 5)
        eta = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        z = np.zeros(5)
        assert fit_gronwall_constant(t, eta, z, z) == np.inf

    def test_validation(self):
        t = np.linspace(0.0, 1.0, 5)
        z = np.zeros(5)
        with pytest.raises(ParameterError, match="nonnegative"):
            gronwall_check(t, -np.ones(5), z, z)
        with pytest.raises(ParameterError, match="time grid"):
            gronwall_check(t, z, z, np.zeros(6))
        with pytest.raises(ParameterError, match="increasing"):
            gronwall_check(np.zeros(5), z, z, z)
        with pytest.raises(ParameterError, match="length"):
            gronwall_check([0.0], [1.0], [0.0], [0.0])

    def test_solver_trajectory_with_fitted_constant(self):
        # strong vorticity dissipation, undamped potential: the recorded
        # series eta = h1, psi = 2 nu |Lap w|^2, phi = C |grad u|_inf must
        # satisfy the integrated bound once C is fitted discretely
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        p = Params(nu=1.0, kappa=1.0, alpha=2.0, beta=0.0, n=64, t_end=0.2)
        res = run(st, p, sample_every=0.02)
        t = np.array([r.t for r in res.records])
        eta = np.array([r.h1 for r in res.records])
        psi = 2.0 * p.nu * np.array([r.diss_omega for r in res.records])
        base = np.array([r.grad_u_linf for r in res.records])
        c = fit_gronwall_constant(t, eta, psi, base)
        assert np.isfinite(c) and c < 1e3
        rep = gronwall_check(t, eta, psi, c * base)
        assert rep.passed
        assert np.all(rep.checked)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
