"""Oracle tests for the GMHD right-hand side, identities, and stepping.

Closed forms (shear decay, the Orszag-Tang tendency, the gradient-coupling
example) are frozen as literals; the nonlinear tendency is cross-checked
against term-by-term physical-space quadrature built directly from analytic
expressions, never through the code under test.
"""

import dataclasses
import struct
import warnings

import numpy as np
import pytest

from gmhd2d import dynamics
from gmhd2d.dynamics import (
    BlowUpSignal,
    GmhdState,
    Params,
    cfl_dt,
    initial_condition,
    load_snapshot,
    nonlinear_rhs,
    project_state,
    run,
    save_snapshot,
    step,
    structure_identities,
)
from gmhd2d.inequalities import Corpus
from gmhd2d.spectral import (
    ParameterError,
    get_grid,
    physical_fields,
    random_band_limited_field,
    spectral_l2,
    to_physical,
    to_spectral,
)
from oracles import (
    biot_savart,
    dealiased_product,
    derivative,
    field_from_potential,
    full_grid,
    full_l2,
    full_spectrum,
    full_to_physical,
    full_to_spectral,
    gradient_coupling,
    overflowing_state,
    traced_peak_planes,
    unpruned_advance,
    widen,
)


def assert_column_zero_hermitian(c):
    # c(-k1, 0) == conj(c(k1, 0)) bit for bit
    col = c[:, 0]
    np.testing.assert_array_equal(col[-np.arange(col.size) % col.size],
                                  np.conj(col))


class TestParams:
    """Validation and the zero-exponent normalization."""

    def test_defaults(self):
        p = Params()
        assert (p.nu, p.kappa, p.alpha, p.beta) == (1.0, 1.0, 1.0, 1.0)
        assert (p.cfl, p.t_end, p.n, p.dt_max) == (0.4, 1.0, 128, 0.01)

    def test_zero_exponent_switches_channel_off(self):
        p = Params(nu=3.0, alpha=0.0)
        assert p.nu == 0.0 and p.alpha == 0.0
        q = Params(kappa=2.0, beta=0.0)
        assert q.kappa == 0.0
        # replace() re-runs the normalization
        r = dataclasses.replace(Params(), alpha=0.0)
        assert r.nu == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError, match="nu"):
            Params(nu=-1.0)
        with pytest.raises(ParameterError, match="alpha"):
            Params(alpha=np.inf)
        with pytest.raises(ParameterError, match="cfl"):
            Params(cfl=0.0)
        with pytest.raises(ParameterError, match="cfl"):
            Params(cfl=1.5)
        with pytest.raises(ParameterError, match="t_end"):
            Params(t_end=-0.5)
        with pytest.raises(ParameterError, match="dt_max"):
            Params(dt_max=0.0)
        with pytest.raises(ParameterError, match="even"):
            Params(n=33)

    def test_t_end_zero_allowed(self):
        assert Params(t_end=0.0).t_end == 0.0


class TestInitialConditions:
    """Canonical states and their exact structural properties."""

    def test_orszag_tang_fields(self):
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        w = to_physical(g, st.omega_hat)
        np.testing.assert_allclose(w, np.cos(g.x1) + np.cos(g.x2), atol=1e-13)
        u1c, u2c = biot_savart(g, full_spectrum(g, st.omega_hat))
        np.testing.assert_allclose(full_to_physical(g, u1c), -np.sin(g.x2),
                                   atol=1e-13)
        np.testing.assert_allclose(full_to_physical(g, u2c), np.sin(g.x1),
                                   atol=1e-13)
        # ||u0||^2 = 4 pi^2 (mean of sin^2 x1 + sin^2 x2 is 1)
        usq = full_l2(g, u1c) ** 2 + full_l2(g, u2c) ** 2
        assert usq == pytest.approx(4 * np.pi**2, rel=1e-13)

    def test_orszag_tang_divergence_free(self):
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        u1c, u2c = biot_savart(g, full_spectrum(g, st.omega_hat))
        div = derivative(g, u1c, 0) + derivative(g, u2c, 1)
        assert np.max(np.abs(div)) < 1e-14

    def test_shear(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        np.testing.assert_allclose(to_physical(g, st.omega_hat), np.cos(g.x2),
                                   atol=1e-14)
        assert np.all(st.a_hat == 0)
        # shear is the single_mode (0, 1) state, bitwise
        mode = initial_condition("single_mode", g, mode=(0, 1))
        assert st.omega_hat.tobytes() == mode.omega_hat.tobytes()
        assert st.a_hat.tobytes() == mode.a_hat.tobytes()

    def test_single_mode(self):
        g = get_grid(32)
        st = initial_condition("single_mode", g, mode=(2, 1))
        np.testing.assert_allclose(to_physical(g, st.omega_hat),
                                   np.cos(2 * g.x1 + g.x2), atol=1e-14)
        with pytest.raises(ParameterError, match="single_mode"):
            initial_condition("single_mode", g, mode=(0, 0))
        with pytest.raises(ParameterError, match="single_mode"):
            initial_condition("single_mode", g, mode=(g.dealias_k + 1, 0))

    def test_random_determinism_and_bounds(self):
        g = get_grid(64)
        s1 = initial_condition("random_band_limited", g, seed=7, k_max=12,
                               amplitude=0.5)
        s2 = initial_condition("random_band_limited", g, seed=7, k_max=12,
                               amplitude=0.5)
        np.testing.assert_array_equal(s1.omega_hat, s2.omega_hat)
        np.testing.assert_array_equal(s1.a_hat, s2.a_hat)
        # omega and a draw from independent spawned streams
        assert np.max(np.abs(s1.omega_hat - s1.a_hat)) > 1e-3
        assert spectral_l2(g, s1.omega_hat) == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(ParameterError, match="k_max"):
            initial_condition("random_band_limited", g, seed=1, k_max=40)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_random_rejects_bad_seed(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            initial_condition("random_band_limited", get_grid(32), seed=seed,
                              k_max=8)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown initial-condition"):
            initial_condition("vortex_pair", get_grid(32))

    @pytest.mark.parametrize("kind", ["orszag_tang", "random_band_limited",
                                      "shear", "single_mode"])
    def test_state_is_half_spectrum_of_real_fields(self, kind):
        # what the benchmark's traced run reads: to_physical of a stored
        # band spectrum (the half spectrum's first dealias_k + 1 columns) is
        # the real n x n field the full spectrum describes
        g = get_grid(32)
        st = initial_condition(kind, g, seed=4, k_max=8)
        for c in (st.omega_hat, st.a_hat):
            assert c.shape == (32, g.dealias_k + 1)
            assert_column_zero_hermitian(c)
            values = to_physical(g, c)
            assert values.shape == (32, 32) and values.dtype == np.float64
            np.testing.assert_allclose(
                values, full_to_physical(g, full_spectrum(g, c)),
                rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(values))))

    SHAPE_SIZES = (8, 66, 90, 256)  # at n = 66 and 90, 3K >= n lowers K

    def test_project_state_rejects_full_spectra(self):
        for n in self.SHAPE_SIZES:
            half = np.zeros((n, n // 2 + 1), complex)
            with pytest.raises(ParameterError, match="band shape"):
                project_state(GmhdState(grid=get_grid(n), omega_hat=half,
                                        a_hat=half))

    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_every_spectrum_is_the_band(self, n, tmp_path):
        # every producer returns the band shape (n, K + 1), and the callers
        # that synthesize a spectrum reject the (n, n/2 + 1) half spectrum,
        # as project_state does
        g = get_grid(n)
        band = (n, g.dealias_k + 1)
        k_max = min(4, g.dealias_k)
        states = [initial_condition(kind, g, seed=1, k_max=k_max)
                  for kind in ("orszag_tang", "random_band_limited", "shear",
                               "single_mode")]
        save_snapshot(tmp_path / "s.bin", states[1], Params(n=n))
        states.append(load_snapshot(tmp_path / "s.bin")[0])
        ten = nonlinear_rhs(states[1], Params(n=n))
        # project_state of band noise: masked to the 2/3 band, column 0
        # Hermitian, zero mean
        rng = np.random.default_rng(n)
        noise = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        states.append(project_state(GmhdState(grid=g, omega_hat=noise,
                                              a_hat=noise)))
        mask = full_grid(g).dealias[:, :band[1]]
        np.testing.assert_array_equal(states[-1].a_hat[:, 1:],
                                      (noise * mask)[:, 1:])
        assert_column_zero_hermitian(states[-1].a_hat)
        assert states[-1].a_hat[0, 0] == 0.0
        spectra = [to_spectral(g, np.cos(g.x1)),
                   random_band_limited_field(g, k_max, seed=2),
                   *Corpus(count=2, k_max=k_max).fields(n),
                   *(c for st in states for c in (st.omega_hat, st.a_hat)),
                   ten.d_omega, ten.d_a, ten.lin_omega, ten.lin_a]
        for c in spectra:
            assert c.shape == band
        half = np.zeros((n, n // 2 + 1), complex)
        with pytest.raises(ParameterError, match="band shape"):
            to_physical(g, half)
        with pytest.raises(ParameterError, match="band shape"):
            physical_fields(g, {"a": half}, "a_1")

    def test_projection_keeps_huge_and_subnormal_pairs_exact(self):
        # c(1, 0) = c(-1, 0) = 1e308: the pair's sum overflows, its mean
        # does not.  c(2, 0) = c(-2, 0) = 3 * 2**-1074: halving each
        # subnormal member first would round it
        g = get_grid(32)
        a_hat = np.zeros((32, g.dealias_k + 1), complex)
        a_hat[1, 0] = a_hat[-1, 0] = 1e308
        a_hat[2, 0] = a_hat[-2, 0] = 3 * 5e-324
        st = project_state(GmhdState(grid=g, omega_hat=np.zeros_like(a_hat),
                                     a_hat=a_hat))
        np.testing.assert_array_equal(st.a_hat, a_hat)

    @pytest.mark.parametrize("n", [32, 66, 128])
    def test_band_state_synthesizes_as_its_widened_state(self, n):
        # to_physical and physical_fields over the band's columns give the
        # bits of irfft2 of the zero-padded half spectrum, its multipliers
        # the oracle grid's
        g = get_grid(n)
        full = full_grid(g)
        st = TestNonlinearRhs.broadband_state(n, seed=5)
        wide = {"w": widen(g, st.omega_hat), "a": widen(g, st.a_hat)}

        def irfft2(c):
            return np.fft.irfft2(c, s=(n, n), norm="forward")

        for name, c in st.halves().items():
            assert to_physical(g, c).tobytes() == irfft2(wide[name]).tobytes()
        h = g.half_cols
        ik1, ik2 = full.ik1, full.ik2[:, :h]
        psi = -full.inv_ksq[:, :h] * wide["w"]
        a = wide["a"]
        wants = (ik1 * psi, ik2 * psi, ik1 * a, ik2 * a, wide["w"],
                 -full.ksq[:, :h] * a, ik1 * (ik2 * a))
        requests = ("psi_1", "psi_2", "a_1", "a_2", "w", "j", "a_12")
        for got, want in zip(physical_fields(g, st.halves(), *requests),
                             wants):
            assert got.tobytes() == irfft2(want).tobytes()


class TestNonlinearRhs:
    """Tendency against closed forms and an independent quadrature oracle."""

    def test_shear_advection_vanishes(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        ten = nonlinear_rhs(st, Params(n=32))
        assert np.max(np.abs(ten.d_omega)) < 1e-15
        assert np.max(np.abs(ten.d_a)) < 1e-15

    def test_zero_velocity_leaves_lorentz_term(self):
        # omega = 0: d_omega = b.grad j with a = -cos x2 - cos(2 x1)/2
        g = get_grid(64)
        a = -np.cos(g.x2) - 0.5 * np.cos(2 * g.x1)
        st = project_state(GmhdState(grid=g, omega_hat=np.zeros((64, 22), complex),
                                     a_hat=to_spectral(g, a), t=0.0))
        ten = nonlinear_rhs(st, Params(n=64))
        expected = 3.0 * np.sin(2 * g.x1) * np.sin(g.x2)  # b.grad j by hand
        np.testing.assert_allclose(to_physical(g, ten.d_omega), expected,
                                   atol=1e-12)
        assert np.max(np.abs(ten.d_a)) < 1e-15

    def test_orszag_tang_tendency_closed_form(self):
        # u.grad omega = 0 at t = 0, so d_omega = b.grad j = 3 sin 2x1 sin x2;
        # d_a = -u.grad a = sin x2 sin 2x1 - sin x1 sin x2
        g = get_grid(128)
        st = initial_condition("orszag_tang", g)
        ten = nonlinear_rhs(st, Params())
        dw = to_physical(g, ten.d_omega)
        da = to_physical(g, ten.d_a)
        # broadband FFT roundoff across the retained band sums to ~1e-11 here
        np.testing.assert_allclose(dw, 3 * np.sin(2 * g.x1) * np.sin(g.x2),
                                   atol=1e-10)
        np.testing.assert_allclose(
            da, np.sin(g.x2) * np.sin(2 * g.x1) - np.sin(g.x1) * np.sin(g.x2),
            atol=1e-10)

    def test_orszag_tang_against_quadrature_oracle(self):
        # term-by-term physical-space evaluation from analytic expressions
        g = get_grid(128)
        u1, u2 = -np.sin(g.x2), np.sin(g.x1)
        b1, b2 = -np.sin(g.x2), np.sin(2 * g.x1)
        wx, wy = -np.sin(g.x1), -np.sin(g.x2)
        jx, jy = -4 * np.sin(2 * g.x1), -np.sin(g.x2)
        ax, ay = np.sin(2 * g.x1), np.sin(g.x2)
        oracle_dw = b1 * jx + b2 * jy - (u1 * wx + u2 * wy)
        oracle_da = -(u1 * ax + u2 * ay)
        st = initial_condition("orszag_tang", g)
        ten = nonlinear_rhs(st, Params())
        scale = np.max(np.abs(oracle_dw))
        assert np.max(np.abs(to_physical(g, ten.d_omega) - oracle_dw)) < 1e-10 * scale
        assert np.max(np.abs(to_physical(g, ten.d_a) - oracle_da)) < 1e-10 * scale

    @staticmethod
    def broadband_state(n, seed):
        # support out to the band edge: column 0, the rim of the 2/3 band and
        # products that alias past the Nyquist line are all exercised
        g = get_grid(n)
        return initial_condition("random_band_limited", g, seed=seed,
                                 k_max=g.dealias_k, amplitude=3.0)

    @staticmethod
    def oracle_tendency(g, w_half, a_half):
        # the same tendency from the full-spectrum oracle operators
        wc, ac = full_spectrum(g, w_half), full_spectrum(g, a_half)
        u1c, u2c = biot_savart(g, wc)
        b1c, b2c, jc = field_from_potential(g, ac)

        def dot(v1, v2, f):
            return (dealiased_product(g, v1, derivative(g, f, 0))
                    + dealiased_product(g, v2, derivative(g, f, 1)))

        dw = dot(b1c, b2c, jc) - dot(u1c, u2c, wc)
        da = -dot(u1c, u2c, ac)
        dw[0, 0] = da[0, 0] = 0.0  # analytically zero: transport of a mean
        return dw, da

    @pytest.mark.parametrize("n", [32, 64])
    def test_broadband_against_complex_oracle(self, n):
        for seed in (1, 2):
            st = self.broadband_state(n, seed)
            ten = nonlinear_rhs(st, Params(n=n))
            dw, da = self.oracle_tendency(st.grid, st.omega_hat, st.a_hat)
            for got, want in ((ten.d_omega, dw), (ten.d_a, da)):
                assert got.shape == (n, st.grid.dealias_k + 1)
                assert (np.linalg.norm(full_spectrum(st.grid, got) - want)
                        <= 1e-13 * np.linalg.norm(want))

    @pytest.mark.parametrize("n", [32, 64])
    def test_stress_form_matches_advective_form(self, n):
        # b.grad j - u.grad w and -u.grad a term by term from the same planes,
        # against the stress-form tendency the solver evaluates
        g = get_grid(n)
        states = [self.broadband_state(n, seed) for seed in (1, 2)]
        states.append(initial_condition("orszag_tang", g))

        def band(values):
            out = (to_spectral(g, values) * g.half_dealias)[:, :g.dealias_k + 1]
            out[0, 0] = 0.0
            return out

        for st in states:
            p1, p2, ax, ay, wx, wy, jx, jy = physical_fields(
                g, st.halves(), "psi_1", "psi_2", "a_1", "a_2", "w_1", "w_2",
                "j_1", "j_2")
            (u1, u2), (b1, b2) = (-p2, p1), (-ay, ax)
            lorentz = band(b1 * jx + b2 * jy)
            transport = band(u1 * wx + u2 * wy)
            advect_a = band(u1 * ax + u2 * ay)
            ten = nonlinear_rhs(st, Params(n=n))
            scale = max(np.linalg.norm(lorentz), np.linalg.norm(transport))
            assert np.linalg.norm(ten.d_omega - (lorentz - transport)) <= 1e-13 * scale
            assert np.linalg.norm(ten.d_a + advect_a) <= 1e-13 * np.linalg.norm(advect_a)

    @pytest.mark.parametrize("n", [32, 64])
    def test_broadband_step_keeps_state_invariant(self, n):
        st = self.broadband_state(n, seed=3)
        g = st.grid
        out = step(st, Params(nu=0.05, kappa=0.05, alpha=1.5, beta=0.5, n=n),
                   1e-3)
        for c in (out.omega_hat, out.a_hat):
            assert c.shape == (n, g.dealias_k + 1)
            assert_column_zero_hermitian(c)
            assert c[0, 0] == 0.0
            assert not np.any(c[~g.half_dealias[:, :g.dealias_k + 1]])
            assert np.linalg.norm(c) > 0.0

    def test_linear_part_is_diagonal_multiplier(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        p = Params(nu=0.7, alpha=0.6, kappa=0.3, beta=1.4, n=32)
        ten = nonlinear_rhs(st, p)
        kabs = g.half_kabs[:, :g.dealias_k + 1]
        np.testing.assert_allclose(ten.lin_omega, -0.7 * kabs**1.2, atol=1e-15)
        np.testing.assert_allclose(ten.lin_a, -0.3 * kabs**2.8, atol=1e-15)

    @pytest.mark.parametrize("n", [8, 32, 66, 90, 128])
    def test_state_and_tendency_hold_band_spectra(self, n):
        # every array of the state and of a Tendency is n x (dealias_k + 1)
        g = get_grid(n)
        band = (n, g.dealias_k + 1)
        st = initial_condition("orszag_tang", g)
        ten = nonlinear_rhs(st, Params(nu=0.1, kappa=0.2, alpha=0.7, n=n))
        out = step(st, Params(n=n), 1e-3)
        for c in (st.omega_hat, st.a_hat, out.omega_hat, out.a_hat,
                  ten.d_omega, ten.d_a, ten.lin_omega, ten.lin_a):
            assert c.shape == band


class TestGradientCoupling:
    """The bilinear grad(u)-grad(b) term of the current equation (the
    oracles' full-spectrum form; the identity residuals use the same
    partials)."""

    def test_zero_velocity(self):
        g = get_grid(32)
        z = np.zeros((32, 32), complex)
        bc1 = full_to_spectral(g, -np.sin(g.x1) * np.cos(g.x2))
        bc2 = full_to_spectral(g, np.cos(g.x1) * np.sin(g.x2))
        assert np.max(np.abs(gradient_coupling(g, z, z, bc1, bc2))) == 0.0

    def test_closed_form_example(self):
        # u = (0, sin x1), b = (-sin x1 cos x2, cos x1 sin x2)
        # -> only 2 d1(b1) d1(u2) survives = -2 cos^2 x1 cos x2
        g = get_grid(64)
        u1c = np.zeros((64, 64), complex)
        u2c = full_to_spectral(g, np.sin(g.x1))
        b1c = full_to_spectral(g, -np.sin(g.x1) * np.cos(g.x2))
        b2c = full_to_spectral(g, np.cos(g.x1) * np.sin(g.x2))
        out = gradient_coupling(g, u1c, u2c, b1c, b2c)
        np.testing.assert_allclose(out, -2 * np.cos(g.x1) ** 2 * np.cos(g.x2),
                                   atol=1e-12)

    def test_self_coupling_vanishes_for_divergence_free(self):
        # with b := u the term collapses to 2 (div u)(d1 u2 + d2 u1) = 0
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=3, k_max=10)
        u1c, u2c = biot_savart(g, full_spectrum(g, st.omega_hat))
        out = gradient_coupling(g, u1c, u2c, u1c, u2c)
        assert np.max(np.abs(out)) < 1e-12


class TestIdentityResiduals:
    """Exactness of the current and forcing reformulations."""

    def test_trivial_zero_cases(self):
        g = get_grid(64)
        z = np.zeros((64, g.dealias_k + 1), complex)
        a_only = project_state(GmhdState(
            grid=g, omega_hat=z,
            a_hat=to_spectral(g, np.sin(g.x1) * np.sin(g.x2)), t=0.0))
        w_only = structure_identities(initial_condition("shear", g))
        assert structure_identities(a_only).current == 0.0
        assert w_only.current == 0.0
        assert w_only.forcing == 0.0

    def test_forcing_single_mode(self):
        g = get_grid(64)
        st = project_state(GmhdState(
            grid=g, omega_hat=np.zeros((64, g.dealias_k + 1), complex),
            a_hat=to_spectral(g, np.sin(g.x1) * np.sin(g.x2)), t=0.0))
        assert structure_identities(st).forcing < 1e-12

    def test_random_band_limited_residuals(self):
        g = get_grid(128)
        st = initial_condition("random_band_limited", g, seed=11, k_max=16)
        rep = structure_identities(st)
        assert rep.current < 1e-9
        assert rep.forcing < 1e-9


class TestCancellations:
    """The three vanishing transport/exchange integrals."""

    def test_zero_and_decoupled_states(self):
        g = get_grid(64)
        rep = structure_identities(initial_condition("shear", g))
        assert rep.self_transport_omega == 0.0
        assert rep.self_transport_current == 0.0
        assert rep.lorentz_exchange == 0.0

    def test_random_states_cancel_to_roundoff(self):
        g = get_grid(128)
        for seed in (1, 7, 42):
            st = initial_condition("random_band_limited", g, seed=seed, k_max=16)
            rep = structure_identities(st)
            assert rep.self_transport_omega < 1e-10
            assert rep.self_transport_current < 1e-10
            assert rep.lorentz_exchange < 1e-10

    def test_orszag_tang(self):
        st = initial_condition("orszag_tang", get_grid(64))
        rep = structure_identities(st)
        assert max(rep.self_transport_omega, rep.self_transport_current,
                   rep.lorentz_exchange) < 1e-12


class TestCflandStep:
    """CFL formula, exact linear decay, steady states, blow-up detection."""

    def test_cfl_closed_forms(self):
        g = get_grid(128)
        zero = project_state(GmhdState(grid=g,
                                       omega_hat=np.zeros((128, 43), complex),
                                       a_hat=np.zeros((128, 43), complex)))
        assert cfl_dt(zero, Params()) == pytest.approx(0.01)  # dt_max cap
        shear = initial_condition("shear", g)  # |u|_inf = 1, b = 0
        assert cfl_dt(shear, Params(cfl=0.4)) == pytest.approx(0.01)  # capped
        assert cfl_dt(shear, Params(cfl=0.1)) == pytest.approx(
            0.1 * 2 * np.pi / 128, rel=1e-12)
        fine = initial_condition("shear", get_grid(256))
        assert cfl_dt(fine, Params(cfl=0.1, n=256)) == pytest.approx(
            0.1 * 2 * np.pi / 256, rel=1e-12)

    def test_cfl_of_huge_finite_state(self):
        # |u|^2 overflows at amplitude 1e200: the speed then comes from
        # np.hypot, so dt stays positive and the run ends in a blow-up, not
        # in a rejected dt of 0
        g = get_grid(32)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8,
                               amplitude=1e200)
        p = Params(nu=0.0, kappa=0.0, n=32, t_end=0.1)
        # u = (-psi_2, psi_1), b = (-a_2, a_1)
        p1, p2, a1, a2 = physical_fields(g, st.halves(), "psi_1", "psi_2",
                                         "a_1", "a_2")
        speed = float(np.max(np.hypot(p2, p1))) + float(np.max(np.hypot(a2, a1)))
        assert np.isfinite(speed) and speed > 1e200
        assert cfl_dt(st, p) == p.cfl * (2.0 * np.pi / 32) / speed > 0.0
        res = run(st, p, sample_every=0.05)
        assert res.blew_up and res.final_state.t == 0.0

    def test_step_exact_linear_decay(self):
        # shear: nonlinear terms vanish identically, |k| = 1, so one step
        # reproduces e^{-nu dt} exactly for any alpha
        g = get_grid(32)
        st = initial_condition("shear", g)
        for alpha in (0.5, 0.73, 2.0):
            p = Params(nu=1.0, alpha=alpha, n=32)
            out = step(st, p, 0.01)
            expected = np.exp(-0.01) * np.cos(g.x2)
            np.testing.assert_allclose(to_physical(g, out.omega_hat), expected,
                                       atol=1e-12)
            assert out.t == pytest.approx(0.01)

    def test_step_steady_euler_mode(self):
        g = get_grid(32)
        st = initial_condition("single_mode", g, mode=(1, 0))
        p = Params(nu=0.0, kappa=0.0, n=32)
        out = step(st, p, 0.01)
        np.testing.assert_allclose(out.omega_hat, st.omega_hat, atol=1e-14)

    def test_step_self_convergence_order(self):
        # Richardson: halving dt must show ~4th order on Orszag-Tang
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        p = Params(n=64, t_end=0.1)

        def advance(dt):
            s = st
            while s.t < 0.1 - 1e-12:
                s = step(s, p, dt)
            return s.omega_hat

        w1, w2, w3 = advance(0.01), advance(0.005), advance(0.0025)
        d1 = spectral_l2(g, w1 - w2)
        d2 = spectral_l2(g, w2 - w3)
        order = np.log2(d1 / d2)
        assert order > 3.5

    def test_step_rejects_bad_dt(self):
        st = initial_condition("shear", get_grid(32))
        with pytest.raises(ParameterError, match="dt"):
            step(st, Params(n=32), 0.0)
        with pytest.raises(ParameterError, match="dt"):
            step(st, Params(n=32), np.nan)

    def test_ideal_run_with_huge_exponent(self):
        # |k|^400 overflows at n = 64; with nu = 0 the channel is off, so the
        # run must not blow up (0 * inf) and must match alpha = 1 exactly
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=5, k_max=12)
        outs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (200.0, 1.0):
                p = Params(nu=0.0, kappa=0.0, alpha=alpha, n=64)
                s = st
                for _ in range(3):
                    s = step(s, p, 1e-3)
                outs.append(s)
        np.testing.assert_array_equal(outs[0].omega_hat, outs[1].omega_hat)
        np.testing.assert_array_equal(outs[0].a_hat, outs[1].a_hat)

    def test_overflowing_decay_is_exact_and_quiet(self):
        # nu > 0: the overflowing multiplier is -inf and exp(-inf dt) = 0
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=5, k_max=12)
        p = Params(nu=1.0, kappa=0.0, alpha=200.0, n=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ten = nonlinear_rhs(st, p)
            out = step(st, p, 1e-3)
        with np.errstate(over="ignore"):
            expected = -(g.half_kabs[:, :g.dealias_k + 1] ** 400.0)
        assert np.isinf(expected).sum() > g.n  # |k| >~ 5.9 overflows
        np.testing.assert_array_equal(ten.lin_omega, expected)
        assert np.all(np.isfinite(out.omega_hat))

    def test_blow_up_signal(self):
        # the stage-1 tendency overflows, so the step ends at its start
        g = get_grid(32)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8,
                               amplitude=1e200)
        with pytest.raises(BlowUpSignal) as info:
            step(st, Params(nu=0.0, kappa=0.0, n=32), 0.01)
        assert info.value.state is st
        assert info.value.time == 0.0

    @pytest.mark.parametrize("make", [
        overflowing_state,
        lambda: initial_condition("random_band_limited", get_grid(32), seed=1,
                                  k_max=8, amplitude=1e200)],
        ids=["overflowing_state", "amplitude_1e200"])
    def test_both_stepping_paths_report_the_same_blow_up_time(self, make):
        # adaptive and fixed dt both stop at the state whose stage-1
        # tendency is not finite, before spending a step on it
        st = make()
        p = Params(nu=0.0, kappa=0.0, n=32, t_end=0.01)
        adaptive = run(st, p, sample_every=0.01)
        fixed = run(st, p, sample_every=0.01, fixed_dt=0.002)
        for res in (adaptive, fixed):
            assert res.blew_up and res.final_state is st
            assert res.blow_up_time == 0.0

    @pytest.mark.parametrize("n", [128, 256])
    def test_step_peak_is_at_most_15_planes(self, n):
        # k1 is scaled and k3 folded into k2 as the stages go, the stage
        # spectra are dropped once synthesized and the stress products are
        # formed in place: a step holds about 14 n x n planes at once
        g = get_grid(n)
        st = initial_condition("random_band_limited", g, seed=1, k_max=20)
        p = Params(n=n)
        assert traced_peak_planes(lambda: step(st, p, 1e-3), n) <= 15


class TestRun:
    """Trajectory driver: sampling, closed-form decay, blow-up handling."""

    def test_zero_span(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        res = run(st, Params(n=32, t_end=0.0), sample_every=0.1)
        assert len(res.records) == 1
        assert res.records[0].t == 0.0
        assert not res.blew_up
        assert res.final_state is st

    def test_decaying_shear_energy_closed_form(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        p = Params(nu=1.0, alpha=1.0, n=32, t_end=1.0)
        res = run(st, p, sample_every=0.1)
        e0 = res.records[0].energy
        assert e0 == pytest.approx(np.pi**2, rel=1e-12)
        for rec in res.records:
            assert rec.energy == pytest.approx(e0 * np.exp(-2 * rec.t), rel=1e-10)
        assert res.records[-1].t == pytest.approx(1.0)

    def test_sampling_grid(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        res = run(st, Params(n=32, t_end=0.25), sample_every=0.1)
        times = [r.t for r in res.records]
        np.testing.assert_allclose(times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)

    def test_snapshot_cadence(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        res = run(st, Params(n=32, t_end=1.0), sample_every=0.25,
                  snapshot_every=0.5)
        snap_times = [s.t for s in res.snapshots]
        np.testing.assert_allclose(snap_times, [0.0, 0.5, 1.0], atol=1e-12)

    def test_blow_up_returns_partial_trajectory(self):
        g = get_grid(32)
        st = initial_condition("random_band_limited", g, seed=2, k_max=8,
                               amplitude=1e160)
        res = run(st, Params(nu=0.0, kappa=0.0, n=32, t_end=1.0),
                  sample_every=0.1)
        assert res.blew_up
        assert res.blow_up_time is not None
        assert len(res.records) >= 1
        assert np.all(np.isfinite(res.final_state.omega_hat))

    def test_overflowing_initial_planes_blow_up_at_t0(self):
        # finite spectra whose planes overflow are not bad input: the first
        # record is taken, and the CFL bound of inf/nan speeds ends the run
        # as a blow-up at the initial time
        st = overflowing_state()
        res = run(st, Params(n=32, t_end=0.01), sample_every=0.01)
        assert res.blew_up
        assert res.blow_up_time == st.t == 0.0
        assert len(res.records) == 1
        assert res.final_state is st

    def test_validation(self):
        g = get_grid(32)
        st = initial_condition("shear", g)
        with pytest.raises(ParameterError, match="sample_every"):
            run(st, Params(n=32), sample_every=0.0)
        with pytest.raises(ParameterError, match="fixed_dt"):
            run(st, Params(n=32), sample_every=0.1, fixed_dt=-0.1)
        with pytest.raises(ParameterError, match="grid"):
            run(st, Params(n=64), sample_every=0.1)
        late = dataclasses.replace(st, t=2.0)
        with pytest.raises(ParameterError, match="t_end"):
            run(late, Params(n=32, t_end=1.0), sample_every=0.1)

    @pytest.mark.parametrize("fixed_dt", [None, 0.01])
    @pytest.mark.parametrize("field", ["omega_hat", "a_hat"])
    def test_non_finite_initial_state_is_bad_input(self, field, fixed_dt):
        # rejected before the first record on both stepping paths, not
        # reported as a bad dt (CFL) or a blow-up at t = dt (fixed dt)
        g = get_grid(32)
        st = initial_condition("random_band_limited", g, seed=1, k_max=8)
        coeffs = getattr(st, field).copy()
        coeffs[1, 2] = np.nan
        bad = dataclasses.replace(st, **{field: coeffs})
        with pytest.raises(ParameterError, match=f"initial state {field}"):
            run(bad, Params(n=32, t_end=0.05), sample_every=0.05,
                fixed_dt=fixed_dt)

    def test_non_finite_initial_time_is_bad_input(self):
        st = initial_condition("shear", get_grid(32))
        for t in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="initial state t"):
                run(dataclasses.replace(st, t=t), Params(n=32, t_end=0.05),
                    sample_every=0.05)

    def test_snapshot_every_validation(self):
        # None or a positive finite cadence
        g = get_grid(32)
        st = initial_condition("shear", g)
        for bad in (-0.01, 0.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="snapshot_every"):
                run(st, Params(n=32, t_end=0.1), sample_every=0.05,
                    snapshot_every=bad)

    def test_cfl_limited_run_matches_hand_loop(self):
        # dt_max does not bind, so every dt is the CFL bound or the time left
        # to a sample; run takes it from the step's own stage-1 planes
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=12)
        p = Params(nu=0.05, kappa=0.05, alpha=1.5, beta=0.5, n=64,
                   t_end=0.05, dt_max=1.0)
        res = run(st, p, sample_every=0.02)
        s, steps = st, 0
        for t_target in (0.02, 0.04, 0.05):
            while s.t < t_target - 1e-12:
                dt = cfl_dt(s, p)
                assert dt < p.dt_max
                s = step(s, p, min(dt, t_target - s.t))
                steps += 1
            s = dataclasses.replace(s, t=t_target)
        assert steps > 3
        np.testing.assert_array_equal(res.final_state.omega_hat, s.omega_hat)
        np.testing.assert_array_equal(res.final_state.a_hat, s.a_hat)
        assert res.final_state.t == s.t

    def test_fixed_dt_run_matches_hand_loop(self):
        # the fixed-dt path steps by min(fixed_dt, time left to the sample)
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=12)
        p = Params(nu=0.05, kappa=0.05, alpha=1.5, beta=0.5, n=64, t_end=0.05)
        h = 0.007
        res = run(st, p, sample_every=0.02, fixed_dt=h)
        s, steps = st, 0
        for t_target in (0.02, 0.04, 0.05):
            while s.t < t_target - 1e-12:
                s = step(s, p, min(h, t_target - s.t))
                steps += 1
            s = dataclasses.replace(s, t=t_target)
        assert steps == 8  # 3 + 3 + 2: each sample shortens its last step
        np.testing.assert_array_equal(res.final_state.omega_hat, s.omega_hat)
        np.testing.assert_array_equal(res.final_state.a_hat, s.a_hat)
        assert res.final_state.t == s.t

    @pytest.mark.parametrize("fixed_dt", [None, 0.007],
                             ids=["adaptive", "fixed_dt"])
    def test_band_columns_equal_unpruned_reference(self, monkeypatch,
                                                   fixed_dt):
        # the stages on the band's columns are the full-column step bit for
        # bit: the state, every record and every snapshot
        g = get_grid(64)
        st = initial_condition("random_band_limited", g, seed=1, k_max=12)
        p = Params(nu=0.05, kappa=0.05, alpha=1.5, beta=0.5, n=64,
                   t_end=0.05, dt_max=1.0)
        band = run(st, p, sample_every=0.02, fixed_dt=fixed_dt,
                   snapshot_every=0.02)
        monkeypatch.setattr(dynamics, "_advance", unpruned_advance)
        ref = run(st, p, sample_every=0.02, fixed_dt=fixed_dt,
                  snapshot_every=0.02)
        assert len(band.snapshots) == len(ref.snapshots) == 4
        assert band.records == ref.records
        for ours, theirs in zip(band.snapshots, ref.snapshots):
            assert ours.t == theirs.t
            np.testing.assert_array_equal(ours.omega_hat, theirs.omega_hat)
            np.testing.assert_array_equal(ours.a_hat, theirs.a_hat)

    def test_zero_cfl_step_raises_instead_of_stalling(self, monkeypatch):
        # an infinite CFL speed gives dt = cfl dx / inf = 0: run must end in
        # a blow-up at the state's time, not loop without advancing t
        monkeypatch.setattr(dynamics, "_cfl", lambda grid, params, *planes: 0.0)
        st = initial_condition("orszag_tang", get_grid(32))
        res = run(st, Params(n=32, t_end=0.1), sample_every=0.05)
        assert res.blew_up
        assert res.blow_up_time == 0.0
        assert len(res.records) == 1

    def test_ideal_invariants_short_run(self):
        # nu = kappa = 0: energy, cross helicity, and ||a||^2 conserved by the
        # dealiased dynamics up to RK4 error
        g = get_grid(64)
        st = initial_condition("orszag_tang", g)
        p = Params(nu=0.0, kappa=0.0, n=64, t_end=0.1)
        res = run(st, p, sample_every=0.05, fixed_dt=0.005)
        r0, rN = res.records[0], res.records[-1]
        assert rN.energy == pytest.approx(r0.energy, rel=1e-9)
        assert rN.cross_helicity == pytest.approx(r0.cross_helicity, abs=1e-9 * r0.energy)
        assert rN.a_l2 == pytest.approx(r0.a_l2, rel=1e-9)

    def test_run_peak_is_at_most_17_planes(self):
        # three CFL-capped steps and two records at n = 256: the step's
        # planes plus the state and the records' scalars (about 16)
        n = 256
        g = get_grid(n)
        st = initial_condition("random_band_limited", g, seed=1, k_max=20)
        p = Params(nu=0.0, kappa=0.0, n=n, t_end=3e-3, dt_max=1e-3)
        assert traced_peak_planes(lambda: run(st, p, sample_every=3e-3),
                                  n) <= 17


class TestSnapshotIO:
    """Binary snapshot persistence."""

    def test_round_trip(self, tmp_path):
        g = get_grid(32)
        st = initial_condition("orszag_tang", g)
        st = dataclasses.replace(st, t=0.375)
        p = Params(nu=0.2, kappa=0.3, alpha=0.8, beta=1.1, n=32)
        path = tmp_path / "state.bin"
        save_snapshot(path, st, p)
        loaded, meta = load_snapshot(path)
        assert loaded.t == 0.375
        assert meta == {"nu": 0.2, "kappa": 0.3, "alpha": 0.8, "beta": 1.1}
        np.testing.assert_allclose(loaded.omega_hat, st.omega_hat, atol=1e-15)
        np.testing.assert_allclose(loaded.a_hat, st.a_hat, atol=1e-15)

    def test_header_layout(self, tmp_path):
        g = get_grid(16)
        st = initial_condition("shear", g)
        path = tmp_path / "state.bin"
        save_snapshot(path, st, Params(n=16))
        blob = path.read_bytes()
        assert blob[:8] == b"GMHD2D\x00\x00"
        assert int.from_bytes(blob[8:12], "little") == 1
        assert int.from_bytes(blob[12:16], "little") == 16
        assert len(blob) == 56 + 2 * 8 * 16 * 16

    def test_rejects_bad_magic_and_version(self, tmp_path):
        g = get_grid(16)
        st = initial_condition("shear", g)
        path = tmp_path / "state.bin"
        save_snapshot(path, st, Params(n=16))
        blob = bytearray(path.read_bytes())
        bad_magic = tmp_path / "bad_magic.bin"
        bad_magic.write_bytes(b"XX" + bytes(blob[2:]))
        with pytest.raises(ParameterError, match="magic"):
            load_snapshot(bad_magic)
        blob[8] = 9
        bad_version = tmp_path / "bad_version.bin"
        bad_version.write_bytes(bytes(blob))
        with pytest.raises(ParameterError, match="version"):
            load_snapshot(bad_version)

    def test_rejects_size_before_allocating(self, tmp_path):
        # a bare header claiming n = 2**20 (16 TiB of fields) is a truncated
        # file, rejected before any n x n array is built
        path = tmp_path / "huge.bin"
        path.write_bytes(b"GMHD2D\x00\x00" + struct.pack("<II", 1, 2**20)
                         + struct.pack("<5d", 0.0, 1.0, 1.0, 1.0, 1.0))
        assert path.stat().st_size == 56
        with pytest.raises(ParameterError, match="truncated"):
            load_snapshot(path)

    @pytest.mark.parametrize("size", [10, 26])
    def test_rejects_short_header(self, tmp_path, size):
        # the magic plus part of the header: bad input, not a struct.error
        path = tmp_path / "short.bin"
        header = (b"GMHD2D\x00\x00" + struct.pack("<II", 1, 16)
                  + struct.pack("<5d", 0.0, 1.0, 1.0, 1.0, 1.0))
        path.write_bytes(header[:size])
        with pytest.raises(ParameterError, match="truncated"):
            load_snapshot(path)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
