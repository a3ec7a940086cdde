"""Oracle tests for the norm evaluator, inequality battery, and positivity.

Single Fourier modes give closed-form norms (powers of pi), the multiplier
identity ties the curl bound to an exact ratio of 1, and the quadrature
path for p != 2 is cross-checked against the spectral p = 2 shortcut.
"""

import numpy as np
import pytest

from gmhd2d import inequalities
from gmhd2d.inequalities import (
    Corpus,
    DEFAULT_INEQUALITY_SPECS,
    DEFAULT_RESOLUTIONS,
    InequalitySpec,
    NormTerm,
    check_inequalities,
    check_positivity,
    log_inequality_check,
)
from gmhd2d.spectral import (
    ParameterError,
    get_grid,
    lp_norm,
    random_band_limited_field,
    to_spectral,
)
from oracles import (
    derivative,
    field_from_potential,
    fractional_power,
    full_spectrum,
    full_to_physical,
    norm_of_term,
    traced_peak_planes,
)


@pytest.fixture(scope="module")
def sine_mode():
    g = get_grid(64)
    return g, to_spectral(g, np.sin(g.x1))


class TestNormTerm:
    def test_scaling_dimensions(self):
        assert NormTerm("f", 0, 0.0, 2.0).scaling_dimension == -1.0
        assert NormTerm("j", 2, 0.0, 2.0).scaling_dimension == 3.0
        assert NormTerm("b", 1, 0.0, np.inf).scaling_dimension == 2.0
        assert NormTerm("f", 0, 0.4, 5.0).scaling_dimension == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ParameterError, match="field"):
            NormTerm("u", 0, 0.0, 2.0)
        with pytest.raises(ParameterError, match="grad"):
            NormTerm("f", 3, 0.0, 2.0)
        with pytest.raises(ParameterError, match="lam"):
            NormTerm("f", 0, -0.5, 2.0)
        with pytest.raises(ParameterError, match="p"):
            NormTerm("f", 0, 0.0, 0.5)

    def test_single_mode_closed_forms(self, sine_mode):
        g, f_hat = sine_mode
        base = np.pi * np.sqrt(2.0)  # L2 norm of sin over the torus
        for term in (NormTerm("f"), NormTerm("f", grad=1),
                     NormTerm("f", lam=1.0), NormTerm("f", grad=2),
                     NormTerm("j"), NormTerm("b")):
            assert norm_of_term(g, f_hat, term) == pytest.approx(base, rel=1e-12)
        quartic = (1.5 * np.pi ** 2) ** 0.25  # (int sin^4)^(1/4)
        assert norm_of_term(g, f_hat, NormTerm("f", p=4.0)) == pytest.approx(
            quartic, rel=1e-12)
        assert norm_of_term(g, f_hat, NormTerm("f", p=np.inf)) == pytest.approx(
            1.0, rel=1e-12)
        # grad b on the mode has the single entry d1 b2 = -sin
        assert norm_of_term(g, f_hat, NormTerm("b", grad=1, p=np.inf)) == (
            pytest.approx(1.0, rel=1e-12))

    def test_large_lam_on_a_unit_mode(self):
        # Lambda^400 is the identity on |k| = 1; its weight overflows only on
        # empty modes, which must leave the quadrature norm finite
        g = get_grid(64)
        f_hat = np.zeros((64, g.dealias_k + 1), complex)
        f_hat[1, 0], f_hat[-1, 0] = -0.5j, 0.5j  # sin x1
        want = norm_of_term(g, f_hat, NormTerm("f", 0, 0.0, 3.0))
        assert np.isfinite(want)
        assert norm_of_term(g, f_hat, NormTerm("f", 0, 400.0, 3.0)) == want

    def test_large_lam_beyond_float_range_reads_inf(self):
        # Lambda^400 overflows on the field's support: every p reads inf, as
        # the p = 2 Parseval sum does, with no synthesis of an inf spectrum
        g = get_grid(64)
        f_hat = random_band_limited_field(g, 8, 1)
        for term in (NormTerm("f", 0, 400.0, 2.0), NormTerm("f", 0, 400.0, 3.0),
                     NormTerm("b", 1, 400.0, np.inf)):
            assert norm_of_term(g, f_hat, term) == np.inf

    def test_p2_shortcut_matches_quadrature(self):
        g = get_grid(64)
        f_hat = random_band_limited_field(g, 12, seed=9)
        fc = full_spectrum(g, f_hat)
        b1, b2, j = field_from_potential(g, fc)
        base = {"f": [fc], "b": [b1, b2], "j": [j]}
        for term in (NormTerm("f", grad=1), NormTerm("j"),
                     NormTerm("b", grad=1), NormTerm("f", grad=2, lam=0.5)):
            fast = norm_of_term(g, f_hat, term)
            # the magnitude route: same term with an L2 quadrature by hand
            stack = [fractional_power(g, c, term.lam) if term.lam else c
                     for c in base[term.field]]
            for _ in range(term.grad):
                stack = [derivative(g, c, ax) for c in stack for ax in (0, 1)]
            mag = np.sqrt(sum(full_to_physical(g, c) ** 2 for c in stack))
            assert fast == pytest.approx(lp_norm(g, mag, 2.0), rel=1e-10)

    @pytest.mark.parametrize("grad", [0, 1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("p", [4.0, np.inf])
    def test_b_terms_match_quadrature_of_b(self, grad, lam, p):
        # the stack of ordered partials of b1, b2 themselves, from the
        # full-spectrum oracle, not of the potential the norm table uses
        g = get_grid(64)
        f_hat = random_band_limited_field(g, 12, seed=5)
        b1, b2, _ = field_from_potential(g, full_spectrum(g, f_hat))
        stack = [fractional_power(g, c, lam) for c in (b1, b2)]
        for _ in range(grad):
            stack = [derivative(g, c, ax) for c in stack for ax in (0, 1)]
        mag = np.sqrt(sum(full_to_physical(g, c) ** 2 for c in stack))
        assert norm_of_term(g, f_hat, NormTerm("b", grad, lam, p)) == (
            pytest.approx(lp_norm(g, mag, p), rel=1e-12))


class TestInequalitySpec:
    def test_defaults_construct_and_are_distinct(self):
        names = [s.name for s in DEFAULT_INEQUALITY_SPECS]
        assert len(names) == len(set(names)) == 13

    def test_rejects_bad_weights(self):
        with pytest.raises(ParameterError, match="sum to 1"):
            InequalitySpec("broken", NormTerm("f", p=4.0),
                           ((NormTerm("f"), 0.4), (NormTerm("f", lam=1.0), 0.4)))
        with pytest.raises(ParameterError, match="positive"):
            InequalitySpec("broken", NormTerm("f"),
                           ((NormTerm("f"), 2.0), (NormTerm("f"), -1.0)))

    def test_rejects_scaling_mismatch(self):
        with pytest.raises(ParameterError, match="scaling-consistent"):
            InequalitySpec("broken", NormTerm("f", p=4.0),
                           ((NormTerm("f"), 1.0),))

    def test_ratio_is_scale_invariant(self):
        g = get_grid(64)
        f_hat = random_band_limited_field(g, 10, seed=3)
        spec = DEFAULT_INEQUALITY_SPECS[1]  # three-norm interpolation

        def ratio(c):
            rhs = 1.0
            for term, theta in spec.rhs:
                rhs *= norm_of_term(g, c, term) ** theta
            return norm_of_term(g, c, spec.lhs) / rhs

        assert ratio(7.3 * f_hat) == pytest.approx(ratio(f_hat), rel=1e-12)


class TestCorpus:
    def test_fields_are_drawn_one_at_a_time(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return random_band_limited_field(*args, **kwargs)

        monkeypatch.setattr(inequalities, "random_band_limited_field", counted)
        next(iter(Corpus(count=50).fields(64)))
        assert calls == [1]
        next(iter(Corpus(count=50).paired_fields(64)))
        assert calls == [1, 1, 10_001]

    def test_same_seeded_values(self):
        g = get_grid(64)
        corpus = Corpus(count=3, k_max=8, first_seed=5)
        pairs = list(corpus.paired_fields(64))
        assert len(pairs) == 3
        for seed, f_hat, (w_hat, a_hat) in zip(
                (5, 6, 7), corpus.fields(64), pairs):
            want = random_band_limited_field(g, 8, seed)
            np.testing.assert_array_equal(f_hat, want)
            np.testing.assert_array_equal(w_hat, want)
            np.testing.assert_array_equal(
                a_hat, random_band_limited_field(g, 8, seed + 10_000))


class TestCheckInequality:
    def test_single_mode_quartic_ratio(self, sine_mode):
        # Lambda acts as the identity on |k| = 1, so the ratio reduces to
        # |sin|_4 / |sin|_2 = (3 pi^2/2)^(1/4) / (2 pi^2)^(1/2)
        # = (3 / (8 pi^2))^(1/4) with the physical torus measure
        g, f_hat = sine_mode
        spec = DEFAULT_INEQUALITY_SPECS[0]
        rhs = 1.0
        for term, theta in spec.rhs:
            rhs *= norm_of_term(g, f_hat, term) ** theta
        ratio = norm_of_term(g, f_hat, spec.lhs) / rhs
        assert ratio == pytest.approx((3.0 / (8.0 * np.pi ** 2)) ** 0.25,
                                      rel=1e-12)

    def test_curl_bound_ratio_is_exactly_one(self):
        spec = next(s for s in DEFAULT_INEQUALITY_SPECS
                    if s.name == "curl_controls_gradient")
        rep = check_inequalities((spec,), Corpus(count=10),
                                 resolutions=(64, 128))[0]
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert abs(rep.growth) < 1e-12
        assert rep.passed

    def test_small_corpus_stability(self):
        corpus = Corpus(count=30)
        for spec in DEFAULT_INEQUALITY_SPECS[:6]:
            rep = check_inequalities((spec,), corpus,
                                     resolutions=DEFAULT_RESOLUTIONS)[0]
            assert rep.passed, rep.summary()
            assert abs(rep.growth) < 1e-3
            assert rep.max_ratio == rep.trend[-1][1]

    def test_report_determinism(self):
        spec = DEFAULT_INEQUALITY_SPECS[7]
        a = check_inequalities((spec,), Corpus(count=8), resolutions=(64, 128))
        b = check_inequalities((spec,), Corpus(count=8), resolutions=(64, 128))
        assert a == b

    def test_battery_matches_per_spec_checks(self):
        # one norm table per field, shared by every spec, changes no report;
        # the extra spec adds grad-2 and lam > 0 terms of b and j
        extra = InequalitySpec(
            "b_hessian_quartic", NormTerm("b", 2, 0.25, 4.0),
            ((NormTerm("j", 1, 0.5, 2.0), 0.75),
             (NormTerm("j", 2, 0.5, 2.0), 0.25)))
        specs = DEFAULT_INEQUALITY_SPECS + (extra,)
        corpus = Corpus(count=4)
        reports = check_inequalities(specs, corpus, resolutions=(64, 128))
        assert [r.name for r in reports] == [s.name for s in specs]
        for spec, rep in zip(specs, reports):
            assert rep == check_inequalities((spec,), corpus,
                                             resolutions=(64, 128))[0]
        # and the per-field ratios are those of one norm_of_term per term
        for n, worst in reports[-1].trend:
            g = get_grid(n)
            ratios = []
            for f_hat in corpus.fields(n):
                rhs = 1.0
                for term, theta in extra.rhs:
                    rhs *= norm_of_term(g, f_hat, term) ** theta
                ratios.append(norm_of_term(g, f_hat, extra.lhs) / rhs)
            assert worst == max(ratios)

    def test_norm_table_peak_is_at_most_6_5_planes(self):
        # the power spectra are dropped before the first synthesis and each
        # family's spectrum before its magnitude: the order-2 family's three
        # planes, the sum of squares and one square are the peak
        n = 256
        g = get_grid(n)
        f_hat = random_band_limited_field(g, 16, 1)
        terms = tuple(dict.fromkeys(
            t for spec in DEFAULT_INEQUALITY_SPECS
            for t in (spec.lhs, *(r for r, _ in spec.rhs))))
        assert traced_peak_planes(
            lambda: inequalities._norm_table(g, f_hat, terms), n) <= 6.5

    def test_needs_resolutions(self):
        with pytest.raises(ParameterError, match="resolution"):
            check_inequalities(DEFAULT_INEQUALITY_SPECS[:1], Corpus(count=2),
                               resolutions=())


class TestPositivity:
    def test_eigenmode_exact_value(self, sine_mode):
        # int (Lambda^a sin)(sin) = |sin|_2^2 for |k| = 1, any a; normalized
        # by |sin|_2^2 the report minimum is exactly 1
        g, f_hat = sine_mode
        reports = check_positivity((0.25, 1.0, 2.0), (2,), [f_hat])
        assert [r.alpha for r in reports] == [0.25, 1.0, 2.0]
        for rep in reports:
            assert rep.min_normalized == pytest.approx(1.0, rel=1e-12)
            assert rep.passed

    def test_corpus_combinations(self):
        alphas, ps = (0.25, 0.5, 1.0), (2, 4, 6)
        reports = check_positivity(alphas, ps, Corpus(count=30).fields(128))
        assert [(r.alpha, r.p) for r in reports] == [
            (alpha, p) for alpha in alphas for p in ps]
        for rep in reports:
            assert rep.passed, rep.summary()
            assert rep.min_normalized >= -1e-10
            assert rep.corpus_size == 30

    def test_table_matches_single_pairs(self):
        # one pass over the fields changes no report; the grid follows from
        # each field's shape
        fields = list(Corpus(count=5).fields(64))
        table = check_positivity((0.5, 1.0), (2, 6), fields)
        singles = [check_positivity((alpha,), (p,), fields)[0]
                   for alpha in (0.5, 1.0) for p in (2, 6)]
        assert table == singles

    def test_validation(self):
        fields = Corpus(count=2).fields(64)
        with pytest.raises(ParameterError, match="alpha"):
            check_positivity((0.0,), (2,), fields)
        with pytest.raises(ParameterError, match="alpha"):
            check_positivity((1.0, 2.5), (2,), fields)
        with pytest.raises(ParameterError, match="even"):
            check_positivity((1.0,), (2, 3), fields)
        with pytest.raises(ParameterError, match="even"):
            check_positivity((1.0,), (0,), fields)


class TestLogInequality:
    def test_small_corpus(self):
        rep = log_inequality_check(Corpus(count=30), resolutions=(64, 128))
        assert rep.name == "velocity_gradient_log_bound"
        assert rep.passed, rep.summary()
        assert 0.0 < rep.max_ratio < 1.0  # the proxy right side is generous
        assert abs(rep.growth) < 0.02

    def test_summary_format(self):
        rep = log_inequality_check(Corpus(count=4), resolutions=(64,))
        text = rep.summary()
        assert "velocity_gradient_log_bound" in text and "PASS" in text


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
