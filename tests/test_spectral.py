"""Oracle tests for the spectral toolbox.

Transforms are checked against a brute-force DFT, derivatives against
centered finite differences under grid refinement, and the dealiased product
against a zero-padded exact product on a doubled grid.  Closed-form values
(shear modes, Biot-Savart of a checkerboard vortex) are frozen as literals.
The package works on k2 >= 0 half spectra; the full-spectrum operators of
tests/oracles.py are checked here too, since the other tests lean on them.
"""

import functools
import gc
import pickle
import warnings

import numpy as np
import pytest

from gmhd2d import spectral
from gmhd2d.spectral import (
    Grid,
    ParameterError,
    fractional_power,
    get_grid,
    half_power_sum,
    lp_norm,
    magnitude,
    max_magnitude,
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
    full_spectrum,
    full_to_physical,
    full_to_spectral,
    hermitian_defect,
    hermitian_part,
    homogeneous_sobolev_norm,
    inverse_laplacian,
    laplacian,
    random_band_limited_draw_loop,
    random_band_limited_field_loop,
)


def brute_dft_matrix(n, sign):
    """Explicit DFT synthesis/analysis matrix A[k, i] = exp(sign * i k x_i)."""
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    x = np.arange(n) * (2.0 * np.pi / n)
    return np.exp(sign * 1j * np.outer(k, x))


def random_values(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n))


class TestGrid:
    """Wavenumber layout, dealias cutoff, and validation."""

    def test_wavenumber_layout(self):
        g = Grid(8)
        assert g.k1[:, 0].tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
        assert g.k2[0, :].tolist() == [0, 1, 2, 3, 4]
        assert g.half_ksq[1, 2] == 5.0
        assert g.half_ksq[-1, 4] == 17.0
        assert g.half_kabs[-1, 4] == np.sqrt(17.0)
        assert g.x1[3, 0] == pytest.approx(3 * 2 * np.pi / 8)
        assert g.x2[0, 3] == pytest.approx(3 * 2 * np.pi / 8)

    def test_coordinates_are_views_of_one_axis(self):
        # x1, x2 hold no n x n plane: each is a read-only broadcast of the
        # n grid abscissae, equal to the ij meshgrid of them
        g = Grid(16)
        x = np.arange(16) * (2.0 * np.pi / 16)
        for coord, mesh in zip((g.x1, g.x2), np.meshgrid(x, x, indexing="ij")):
            assert not coord.flags.owndata and not coord.flags.writeable
            assert 0 in coord.strides
            assert np.array_equal(coord, mesh)

    def test_dealias_cutoff(self):
        assert Grid(64).dealias_k == 21
        assert Grid(128).dealias_k == 42
        assert Grid(256).dealias_k == 85
        # 3 divides 96: floor(96/3) = 32 must be reduced to 31
        assert Grid(96).dealias_k == 31
        assert Grid(12).dealias_k == 3

    def test_dealias_mask_band(self):
        g = Grid(64)
        inside = (np.abs(g.k1) <= 21) & (g.k2 <= 21)
        assert np.array_equal(g.half_dealias, inside)
        # alias safety: 2K < n so products of retained modes are representable
        assert 2 * g.dealias_k < g.n
        assert 3 * g.dealias_k < g.n

    def test_nyquist_derivative_multiplier_zeroed(self):
        g = Grid(16)
        assert g.half_ik1[8, 0] == 0
        assert g.half_ik2[0, 8] == 0
        assert g.half_ik1[7, 0] == 7j

    def test_grid_identity(self):
        assert Grid(32) == Grid(32)
        assert Grid(32) != Grid(64)
        assert get_grid(32) is get_grid(32)

    def test_pickles_as_its_size(self):
        # a scan task's state carries its Grid to a worker process: only n
        # travels, and unpickling returns the cached instance
        g = get_grid(64)
        assert pickle.loads(pickle.dumps(g)) is g
        assert len(pickle.dumps(g)) < 200

    def test_invalid_sizes(self):
        with pytest.raises(ParameterError, match="even"):
            Grid(9)
        with pytest.raises(ParameterError, match="even"):
            Grid(4)
        with pytest.raises(ParameterError, match="integer"):
            Grid(16.0)


class TestTransforms:
    """rfft2 conventions pinned against an explicit DFT, and the oracles'
    full-spectrum pair."""

    def test_round_trip(self):
        g = get_grid(32)
        vals = random_values(32, seed=1)
        np.testing.assert_allclose(to_physical(g, to_spectral(g, vals)), vals,
                                   atol=1e-13)

    def test_against_brute_force_dft(self):
        n = 16
        g = get_grid(n)
        vals = random_values(n, seed=2)
        analysis = brute_dft_matrix(n, -1)
        brute = analysis @ vals @ analysis.T / n**2
        np.testing.assert_allclose(to_spectral(g, vals), brute[:, :g.half_cols],
                                   atol=1e-13)
        np.testing.assert_allclose(full_to_spectral(g, vals), brute, atol=1e-13)

    def test_single_mode_coefficients(self):
        # cos(3 x1): coefficient 1/2 at k = (+-3, 0) and nothing else
        g = get_grid(32)
        c = to_spectral(g, np.cos(3 * g.x1))
        assert c[3, 0] == pytest.approx(0.5, abs=1e-14)
        assert c[-3, 0] == pytest.approx(0.5, abs=1e-14)
        c[3, 0] = c[-3, 0] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    def test_real_fields_are_hermitian(self):
        g = get_grid(32)
        vals = random_values(32, seed=3)
        c = full_to_spectral(g, vals)
        assert hermitian_defect(c) < 1e-13 * np.linalg.norm(c)
        assert hermitian_defect(full_spectrum(g, to_spectral(g, vals))) == 0.0

    def test_hermitian_part_is_projection(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = hermitian_part(c)
        assert hermitian_defect(h) < 1e-13
        np.testing.assert_allclose(hermitian_part(h), h, atol=1e-14)

    def test_physical_round_trip_projects(self):
        # taking the real part in physical space IS the Hermitian projection
        g = get_grid(16)
        rng = np.random.default_rng(5)
        c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        np.testing.assert_allclose(full_to_spectral(g, full_to_physical(g, c)),
                                   hermitian_part(c), atol=1e-13)

    def test_shape_mismatch(self):
        g = get_grid(16)
        with pytest.raises(ParameterError, match="shape"):
            to_spectral(g, np.zeros((8, 8)))
        with pytest.raises(ParameterError, match="shape"):
            to_physical(g, np.zeros((8, 8), complex))
        with pytest.raises(ParameterError, match="shape"):
            to_physical(g, np.zeros((16, 16), complex))  # a full spectrum


class TestHalfSpectrum:
    """The half grid and real transforms against the oracles' full-spectrum
    forms, and the oracles' half -> full expansion."""

    @staticmethod
    def random_half(n, seed):
        rng = np.random.default_rng(seed)
        shape = (n, n // 2 + 1)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_half_multipliers_are_column_slices(self):
        g = get_grid(16)
        full = full_grid(g)
        h = g.half_cols
        assert h == 9
        for half, whole in ((g.half_ik1, full.ik1), (g.half_ik2, full.ik2),
                            (g.half_ksq, full.ksq), (g.half_kabs, full.kabs),
                            (g.half_inv_ksq, full.inv_ksq),
                            (g.half_dealias, full.dealias)):
            np.testing.assert_array_equal(
                np.broadcast_to(half, (16, h)),
                np.broadcast_to(whole, (16, 16))[:, :h])

    def test_matches_complex_transforms(self):
        g = get_grid(32)
        vals = random_values(32, seed=6)
        c = full_to_spectral(g, vals)
        half = to_spectral(g, vals)
        np.testing.assert_allclose(half, c[:, :g.half_cols], atol=1e-15)
        np.testing.assert_allclose(to_physical(g, half), vals, atol=1e-13)
        np.testing.assert_allclose(full_to_physical(g, c), vals, atol=1e-13)

    def test_full_spectrum_restores_hermitian_arrays(self):
        g = get_grid(32)
        c = full_to_spectral(g, random_values(32, seed=7))
        np.testing.assert_allclose(full_spectrum(g, c[:, :g.half_cols]), c,
                                   atol=1e-16)

    def test_full_spectrum_is_exactly_hermitian(self):
        # column 0 and the Nyquist column of an arbitrary half are projected;
        # the synthesis sees only that projection, like to_physical
        for n in (8, 16, 18):
            g = get_grid(n)
            half = self.random_half(n, seed=n)
            full = full_spectrum(g, half)
            assert hermitian_defect(full) == 0.0
            np.testing.assert_array_equal(full[:, 1:n // 2], half[:, 1:n // 2])
            np.testing.assert_allclose(to_physical(g, half),
                                       full_to_physical(g, full), atol=1e-14)


class TestPhysicalFields:
    """The half-spectrum field evaluator against full-spectrum oracles."""

    SUFFIXES = ("", "_1", "_2", "_11", "_12", "_21", "_22")

    @staticmethod
    def oracle_spectra(g, w_half, a_half):
        wc, ac = full_spectrum(g, w_half), full_spectrum(g, a_half)
        u1, u2 = biot_savart(g, wc)
        b1, b2, j = field_from_potential(g, ac)
        return {"w": wc, "a": ac, "psi": inverse_laplacian(g, wc), "u1": u1,
                "u2": u2, "b1": b1, "b2": b2, "j": j}

    def test_matches_full_spectrum_oracle(self):
        for n in (32, 64):
            g = get_grid(n)
            wh = random_band_limited_field(g, g.dealias_k, seed=21)
            ah = random_band_limited_field(g, g.dealias_k, seed=22)
            spectra = self.oracle_spectra(g, wh, ah)
            requests = [name + s for name in spectra for s in self.SUFFIXES]
            planes = physical_fields(g, {"w": wh, "a": ah}, *requests)
            for req, plane in zip(requests, planes):
                name, _, digits = req.partition("_")
                c = spectra[name]
                for d in digits:
                    c = derivative(g, c, int(d) - 1)
                want = full_to_physical(g, c)
                err = np.max(np.abs(plane - want)) / np.max(np.abs(want))
                assert err < 1e-12, (n, req, err)

    def test_mixed_partials_and_request_order(self):
        g = get_grid(32)
        halves = {"w": random_band_limited_field(g, 8, seed=23),
                  "a": random_band_limited_field(g, 8, seed=24)}
        requests = ["b1_12", "u2", "j_2", "b1_21", "w_11", "u1_1", "b1"]
        forward = physical_fields(g, halves, *requests)
        np.testing.assert_array_equal(forward[0], forward[3])
        backward = physical_fields(g, halves, *requests[::-1])
        for a, b in zip(forward, backward[::-1]):
            np.testing.assert_array_equal(a, b)
        for req, plane in zip(requests, forward):
            np.testing.assert_array_equal(physical_fields(g, halves, req)[0],
                                          plane)

    def test_given_spectra_are_taken_as_they_are(self):
        # a name present in halves is not derived again, so b1 may be any
        # field, not only -d2 a
        g = get_grid(32)
        c = random_band_limited_field(g, 8, seed=25)
        (b1_2,) = physical_fields(g, {"b1": c}, "b1_2")
        np.testing.assert_allclose(
            b1_2, full_to_physical(g, derivative(g, full_spectrum(g, c), 1)),
            atol=1e-13)

    def test_leaves_no_reference_cycle(self):
        # a cycle keeps the call's spectra alive until the cyclic collector
        # runs; inside the stepper that grew the peak memory of an n = 256
        # run by about 50 MiB
        g = get_grid(32)
        halves = {"w": random_band_limited_field(g, 8, seed=26),
                  "a": random_band_limited_field(g, 8, seed=27)}
        gc.collect()
        gc.disable()
        try:
            physical_fields(g, halves, "u1", "u2_12", "b1", "j_1", "w")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rejects_bad_requests(self):
        g = get_grid(16)
        halves = {"a": np.zeros((16, g.half_cols), complex)}
        for bad in ("b1_3", "b1_", "_1", "b 1"):
            with pytest.raises(ParameterError, match="field request"):
                physical_fields(g, halves, bad)
        with pytest.raises(ParameterError, match="no half spectrum"):
            physical_fields(g, halves, "u1")


class TestMultipliers:
    """Derivatives, Laplacians, and fractional powers."""

    def test_derivative_exact_on_trig_poly(self):
        g = get_grid(64)
        f = np.sin(3 * g.x1) * np.cos(2 * g.x2)
        dfdx1 = 3 * np.cos(3 * g.x1) * np.cos(2 * g.x2)
        dfdx2 = -2 * np.sin(3 * g.x1) * np.sin(2 * g.x2)
        c = full_to_spectral(g, f)
        np.testing.assert_allclose(full_to_physical(g, derivative(g, c, 0)), dfdx1, atol=1e-12)
        np.testing.assert_allclose(full_to_physical(g, derivative(g, c, 1)), dfdx2, atol=1e-12)

    def test_derivative_vs_finite_differences_refinement(self):
        # centered differences converge at second order to the spectral value,
        # so the disagreement must shrink ~4x per refinement
        errs = []
        for n in (64, 128, 256):
            g = get_grid(n)
            f = np.sin(3 * g.x1) * np.cos(2 * g.x2) + 0.5 * np.cos(5 * g.x1 + g.x2)
            h = 2 * np.pi / n
            fd = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)
            sp = full_to_physical(g, derivative(g, full_to_spectral(g, f), 0))
            errs.append(np.max(np.abs(fd - sp)))
        assert errs[0] / errs[1] > 3.4
        assert errs[1] / errs[2] > 3.4

    def test_derivative_keeps_fields_real(self):
        g = get_grid(16)
        c = full_to_spectral(g, random_values(16, seed=6))  # has Nyquist content
        assert hermitian_defect(derivative(g, c, 0)) < 1e-13
        assert hermitian_defect(derivative(g, c, 1)) < 1e-13

    def test_fractional_power_vs_brute_force(self):
        n = 16
        g = get_grid(n)
        vals = random_values(n, seed=7)
        analysis = brute_dft_matrix(n, -1)
        synthesis = brute_dft_matrix(n, +1).T
        c_brute = analysis @ vals @ analysis.T / n**2
        k = np.fft.fftfreq(n, 1.0 / n).astype(int)
        kabs = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
        brute_vals = np.real(synthesis @ (kabs**1.3 * c_brute) @ synthesis.T)
        ours = to_physical(g, fractional_power(g, to_spectral(g, vals), 1.3))
        np.testing.assert_allclose(ours, brute_vals, atol=1e-12)

    def test_fractional_semigroup(self):
        g = get_grid(32)
        c = to_spectral(g, random_values(32, seed=8))
        lhs = fractional_power(g, fractional_power(g, c, 0.5), 0.8)
        rhs = fractional_power(g, c, 1.3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_fractional_identity_and_laplacian(self):
        g = get_grid(32)
        c = to_spectral(g, random_values(32, seed=9) + 3.0)  # nonzero mean
        np.testing.assert_allclose(fractional_power(g, c, 0.0), c, atol=0)
        np.testing.assert_allclose(
            full_spectrum(g, fractional_power(g, c, 2.0)),
            -laplacian(g, full_spectrum(g, c)), atol=1e-13)
        assert abs(fractional_power(g, c, 0.5)[0, 0]) == 0.0  # mean killed

    def test_fractional_large_exponent_weights_only_nonzero_modes(self):
        # |k|^400 overflows beyond |k| = 5.9: empty modes must stay 0 (not
        # inf * 0 = nan) and the overflow must not escape as a warning
        g = get_grid(64)
        f = random_band_limited_field(g, 8, seed=1)
        out = fractional_power(g, f, 400.0)
        assert not np.isnan(out).any()
        np.testing.assert_array_equal(out[f == 0], 0.0)
        low = g.half_kabs < 5.0
        np.testing.assert_array_equal(out[low], g.half_kabs[low] ** 400.0 * f[low])
        assert not np.isfinite(out[(f != 0) & (g.half_kabs > 6.0)]).any()

    def test_fractional_large_exponent_weights_each_part(self):
        # cos(10 x1) has real coefficients: the overflowing weight gives inf
        # in the real part and must leave the zero imaginary part 0, not
        # inf * 0 = nan from a complex product
        g = get_grid(64)
        f = np.zeros((64, g.half_cols), complex)
        f[10, 0] = f[-10, 0] = 0.5
        out = fractional_power(g, f, 400.0)
        np.testing.assert_array_equal(out.real[f != 0], np.inf)
        np.testing.assert_array_equal(out.imag, 0.0)
        np.testing.assert_array_equal(out[f == 0], 0.0)

    def test_inverse_laplacian_single_mode(self):
        # sin(2 x2) -> -(1/4) sin(2 x2)
        g = get_grid(32)
        f = np.sin(2 * g.x2)
        out = full_to_physical(g, inverse_laplacian(g, full_to_spectral(g, f)))
        np.testing.assert_allclose(out, -0.25 * f, atol=1e-13)

    def test_inverse_laplacian_round_trip(self):
        g = get_grid(32)
        vals = random_values(32, seed=10) + 2.5
        c = full_to_spectral(g, vals)
        back = full_to_physical(g, laplacian(g, inverse_laplacian(g, c)))
        np.testing.assert_allclose(back, vals - vals.mean(), atol=1e-11)

    def test_invalid_parameters(self):
        g = get_grid(16)
        with pytest.raises(ParameterError, match="axis"):
            derivative(g, np.zeros((16, 16), complex), 2)
        c = np.zeros((16, g.half_cols), complex)
        with pytest.raises(ParameterError, match="exponent"):
            fractional_power(g, c, -0.5)
        with pytest.raises(ParameterError, match="exponent"):
            fractional_power(g, c, np.nan)


class TestDivFreeFields:
    """Biot-Savart velocity and perp-gradient fields from potentials."""

    def test_checkerboard_vortex(self):
        # omega = -2 sin x1 sin x2  ->  u = (-sin x1 cos x2, cos x1 sin x2)
        g = get_grid(64)
        omega = -2.0 * np.sin(g.x1) * np.sin(g.x2)
        u1c, u2c = biot_savart(g, full_to_spectral(g, omega))
        np.testing.assert_allclose(full_to_physical(g, u1c),
                                   -np.sin(g.x1) * np.cos(g.x2), atol=1e-13)
        np.testing.assert_allclose(full_to_physical(g, u2c),
                                   np.cos(g.x1) * np.sin(g.x2), atol=1e-13)

    def test_divergence_free_and_curl_recovers(self):
        g = get_grid(64)
        wc = full_spectrum(g, random_band_limited_field(g, 12, seed=11))
        u1c, u2c = biot_savart(g, wc)
        div = derivative(g, u1c, 0) + derivative(g, u2c, 1)
        curl = derivative(g, u2c, 0) - derivative(g, u1c, 1)
        assert np.max(np.abs(div)) < 1e-14
        np.testing.assert_allclose(curl, wc, atol=1e-13)

    def test_mean_curl_is_projected_with_warning(self):
        g = get_grid(32)
        wc = full_to_spectral(g, np.sin(g.x1) + 1.0)
        with pytest.warns(RuntimeWarning, match="mean"):
            u1c, u2c = biot_savart(g, wc)
        wc0 = full_to_spectral(g, np.sin(g.x1))
        ref1, ref2 = biot_savart(g, wc0)
        np.testing.assert_allclose(u1c, ref1, atol=1e-14)
        np.testing.assert_allclose(u2c, ref2, atol=1e-14)

    def test_field_from_potential_single_mode(self):
        # a = cos x1 -> b = (0, -sin x1), j = -cos x1
        g = get_grid(32)
        ac = full_to_spectral(g, np.cos(g.x1))
        b1c, b2c, jc = field_from_potential(g, ac)
        np.testing.assert_allclose(full_to_physical(g, b1c), np.zeros((32, 32)),
                                   atol=1e-14)
        np.testing.assert_allclose(full_to_physical(g, b2c), -np.sin(g.x1),
                                   atol=1e-14)
        np.testing.assert_allclose(full_to_physical(g, jc), -np.cos(g.x1),
                                   atol=1e-14)

    def test_field_from_potential_properties(self):
        g = get_grid(64)
        ac = full_spectrum(g, random_band_limited_field(g, 15, seed=12))
        b1c, b2c, jc = field_from_potential(g, ac)
        div = derivative(g, b1c, 0) + derivative(g, b2c, 1)
        curl = derivative(g, b2c, 0) - derivative(g, b1c, 1)
        assert np.max(np.abs(div)) < 1e-14
        np.testing.assert_allclose(curl, jc, atol=1e-12)


class TestProductsAndNorms:
    """Quadrature exactness, Parseval, and the 2/3-rule product."""

    def test_parseval(self):
        g = get_grid(64)
        vals = random_values(64, seed=13)
        c = to_spectral(g, vals)
        quad = np.sqrt(np.sum(vals**2) * (2 * np.pi / 64) ** 2)
        assert spectral_l2(g, c) == pytest.approx(quad, rel=1e-13)
        assert lp_norm(g, vals, 2) == pytest.approx(quad, rel=1e-13)

    def test_lp_norm_closed_forms(self):
        g = get_grid(128)
        f = np.sin(g.x1)
        assert lp_norm(g, f, np.inf) == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(g, f, 2) == pytest.approx(np.pi * np.sqrt(2), rel=1e-13)
        # mean of sin^4 is 3/8, and the rule is exact for degree 4 < n
        assert lp_norm(g, f, 4) == pytest.approx(
            (0.375 * (2 * np.pi) ** 2) ** 0.25, rel=1e-13)
        # |sin| is not a trig poly; trapezoid is only second-order accurate
        assert lp_norm(g, f, 1) == pytest.approx(8.0 * np.pi, rel=1e-3)

    def test_dealiased_product_matches_padded_oracle(self):
        n = 32
        g = get_grid(n)
        fc = full_spectrum(g, random_band_limited_field(g, g.dealias_k, seed=14))
        gc = full_spectrum(g, random_band_limited_field(g, g.dealias_k, seed=15))
        ours = dealiased_product(g, fc, gc)

        # oracle: multiply on a doubled grid where no aliasing can occur
        big = get_grid(2 * n)
        kmap = np.fft.fftfreq(n, 1.0 / n).astype(int) % (2 * n)
        def embed(c):
            out = np.zeros((2 * n, 2 * n), complex)
            out[np.ix_(kmap, kmap)] = c
            return out
        exact = full_to_spectral(big, full_to_physical(big, embed(fc))
                                 * full_to_physical(big, embed(gc)))
        exact_small = exact[np.ix_(kmap, kmap)] * full_grid(g).dealias
        np.testing.assert_allclose(ours, exact_small, atol=1e-13)

    def test_dealiased_product_zeroes_tail(self):
        g = get_grid(32)
        c = full_to_spectral(g, random_values(32, seed=16))
        prod = dealiased_product(g, c, c)
        assert np.all(prod[~full_grid(g).dealias] == 0)

    def test_lp_norm_rejects_bad_p(self):
        g = get_grid(16)
        with pytest.raises(ParameterError, match="p must"):
            lp_norm(g, np.zeros((16, 16)), 0.5)
        with pytest.raises(ParameterError, match="p must"):
            lp_norm(g, np.zeros((16, 16)), np.nan)


class TestMagnitude:
    """The one pointwise Euclidean norm, its one sup, and the one sup norm."""

    @staticmethod
    def planes(count, scale=1.0):
        return [scale * random_values(16, seed=30 + i) for i in range(count)]

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_is_root_of_in_order_sum_of_squares(self, count):
        vs = self.planes(count)
        total = vs[0] * vs[0]
        for v in vs[1:]:
            total = total + v * v
        assert magnitude(*vs).tobytes() == np.sqrt(total).tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_overflowing_squares_fall_back_to_hypot(self, count):
        vs = self.planes(count, scale=1e200)
        got = magnitude(*vs)
        assert np.isfinite(got).all()
        want = functools.reduce(np.hypot, vs) if count > 1 else np.abs(vs[0])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_underflowing_squares_fall_back_to_hypot(self, count, scale):
        # the sum of squares is subnormal or 0 where the components are not
        vs = self.planes(count, scale)
        got = magnitude(*vs)
        assert (got > 0).all()
        want = functools.reduce(np.hypot, vs) if count > 1 else np.abs(vs[0])
        assert got.tobytes() == want.tobytes()

    def test_zeros_and_small_components_keep_the_root_of_squares(self):
        # a point where every component is 0 has an empty sum, not an
        # underflowed one, and a square that underflows beside a normal one
        # changes no bit: the result stays the root of the sum of squares
        v1, v2 = self.planes(2)
        v1[2, :], v2[2, :], v2[5, 5], v2[3, 3] = 0.0, 0.0, 0.0, 1e-170
        got = magnitude(v1, v2)
        assert got.tobytes() == np.sqrt(v1 * v1 + v2 * v2).tobytes()
        assert not got[2].any()

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_max_is_the_sup_norm_of_the_magnitude(self, count, scale):
        # one root of the largest sum of squares, bit for bit the sup norm
        # of the plane of roots, fallbacks included
        vs = self.planes(count, scale)
        want = lp_norm(get_grid(16), magnitude(*vs), np.inf)
        assert max_magnitude(*vs) == want
        vs[0][1, 2] = np.nan
        assert np.isnan(max_magnitude(*vs))

    def test_scalar_component_broadcasts(self):
        (v,) = self.planes(1)
        assert magnitude(v, 3.0).tobytes() == np.sqrt(v * v + 9.0).tobytes()
        assert magnitude(3.0, v).tobytes() == np.sqrt(9.0 + v * v).tobytes()
        assert float(magnitude(3.0, 4.0)) == 5.0

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_nan_propagates(self, scale):
        v1, v2 = self.planes(2, scale)
        v1[3, 4] = np.nan
        got = magnitude(v1, v2)
        assert np.isnan(got[3, 4]) and np.isnan(got).sum() == 1
        assert (got[~np.isnan(got)] > 0).all()  # no fallback lost to the nan

    def test_no_runtime_warning(self):
        huge = np.full(4, 1.5e308)  # |(huge, huge)| is beyond float range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isinf(magnitude(huge, huge)).all()
            magnitude(*self.planes(3, scale=1e200))
            magnitude(*self.planes(3, scale=1e-200))  # squares underflow
            magnitude(np.array([np.nan, np.inf, 1.0]), 1e300)
            assert max_magnitude(huge, huge) == np.inf
            max_magnitude(*self.planes(3, scale=1e-200))

    def test_sup_norm_is_max_abs_without_forming_it(self):
        g = get_grid(16)
        for v in (random_values(16, seed=40), -np.abs(random_values(16, 41)),
                  np.zeros((16, 16)), -np.zeros((16, 16))):
            assert lp_norm(g, v, np.inf) == float(np.max(np.abs(v)))
        v = random_values(16, seed=42)
        v[5, 6] = np.nan
        assert np.isnan(lp_norm(g, v, np.inf))
        z = random_values(16, seed=43) + 1j * random_values(16, seed=44)
        assert lp_norm(g, z, np.inf) == float(np.max(np.abs(z)))


class TestHalfPowerSum:
    """The one Parseval sum against the full-spectrum Sobolev norm oracle."""

    def test_matches_full_spectrum_norm(self):
        g = get_grid(32)
        c = full_to_spectral(g, random_values(32, seed=17))  # Nyquist lines too
        assert np.any(c[:, 16] != 0) and np.any(c[16, :] != 0)
        half = c[:, :g.half_cols]
        power = half.real**2 + half.imag**2
        for s in (0.0, 0.5, 1.0, 2.0):
            assert half_power_sum(g, power, s) == pytest.approx(
                homogeneous_sobolev_norm(g, c, s) ** 2, rel=1e-13)

    def test_overflowing_weight_on_empty_modes(self):
        # |k|^500 overflows on the empty high modes but not on the occupied
        # |k| = 2 one (built exactly: no roundoff content); that overflow is
        # expected and must not warn
        g = get_grid(32)
        exact = np.zeros((32, 32), complex)
        exact[2, 0], exact[-2, 0] = -0.5j, 0.5j
        half = exact[:, :g.half_cols]
        with np.errstate(over="raise"):
            got = half_power_sum(g, half.real**2 + half.imag**2, 250.0)
        assert np.isfinite(got)
        assert got == pytest.approx(
            homogeneous_sobolev_norm(g, exact, 250.0) ** 2, rel=1e-12)
        assert got == pytest.approx(2.0**500 * 2 * np.pi**2, rel=1e-12)

    def test_rejects_bad_order(self):
        g = get_grid(16)
        power = np.ones((16, g.half_cols))
        for s in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="order"):
                half_power_sum(g, power, s)


class TestRandomFields:
    """Seeded band-limited fields: determinism and grid independence."""

    def test_determinism_and_normalization(self):
        g = get_grid(64)
        a = random_band_limited_field(g, 16, seed=42)
        b = random_band_limited_field(g, 16, seed=42)
        c = random_band_limited_field(g, 16, seed=43)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-3
        assert spectral_l2(g, a) == pytest.approx(1.0, rel=1e-13)
        assert spectral_l2(g, random_band_limited_field(g, 16, seed=42,
                                                        amplitude=2.5)) == pytest.approx(2.5)

    def test_support_in_ball(self):
        g = get_grid(64)
        c = random_band_limited_field(g, 10, seed=1)
        outside = g.half_ksq > 100.0
        assert np.all(c[outside] == 0)
        assert c[0, 0] == 0

    def test_same_continuum_field_on_refined_grid(self):
        coarse = get_grid(32)
        fine = get_grid(64)
        vc = to_physical(coarse, random_band_limited_field(coarse, 10, seed=5))
        vf = to_physical(fine, random_band_limited_field(fine, 10, seed=5))
        np.testing.assert_allclose(vf[::2, ::2], vc, atol=1e-13)

    def test_hermitian_and_real(self):
        # column 0 holds whole conjugate pairs, exactly; the Nyquist column
        # lies outside the ball
        g = get_grid(32)
        c = random_band_limited_field(g, 8, seed=9)
        col = c[:, 0]
        np.testing.assert_array_equal(col[-np.arange(32) % 32], np.conj(col))
        assert not np.any(c[:, -1])

    @pytest.mark.parametrize("n, k_max, seed", [
        (32, 1, 0), (32, 9, 5), (64, 16, 1), (128, 16, 7), (256, 16, 3),
        (256, 84, 11)])
    def test_matches_per_mode_loop(self, n, k_max, seed, monkeypatch):
        # the half spectrum is the k2 >= 0 columns of the loop's full draw:
        # equal entries before normalization, and equal to 1e-15 after it
        # (the half- and full-spectrum norms differ in roundoff)
        g = get_grid(n)
        h = g.half_cols
        ss = np.random.SeedSequence(seed)
        for draw_seed, amplitude in ((seed, 1.0), (ss, 3.0)):
            want = random_band_limited_field_loop(g, k_max, draw_seed, amplitude)
            got = random_band_limited_field(g, k_max, draw_seed, amplitude)
            np.testing.assert_allclose(got, want[:, :h], rtol=1e-15, atol=0)
        with monkeypatch.context() as m:
            m.setattr(spectral, "spectral_l2", lambda grid, c: 1.0)
            for draw_seed in (seed, ss):
                np.testing.assert_array_equal(
                    random_band_limited_field(g, k_max, draw_seed),
                    random_band_limited_draw_loop(g, k_max, draw_seed)[:, :h])

    def test_rejects_bad_amplitude(self):
        g = get_grid(32)
        for bad in (-1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ParameterError, match="amplitude"):
                random_band_limited_field(g, 8, seed=1, amplitude=bad)
        assert not np.any(random_band_limited_field(g, 8, seed=1, amplitude=0.0))

    def test_k_max_validation(self):
        g = get_grid(32)
        with pytest.raises(ParameterError, match="k_max"):
            random_band_limited_field(g, 0, seed=1)
        with pytest.raises(ParameterError, match="k_max"):
            random_band_limited_field(g, g.dealias_k + 1, seed=1)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
