"""Oracle tests for the spectral toolbox.

Transforms are checked against a brute-force DFT, derivatives against
centered finite differences under grid refinement, and the dealiased product
against a zero-padded exact product on a doubled grid.  Closed-form values
(shear modes, Biot-Savart of a checkerboard vortex) are frozen as literals.
The package works on band spectra, the 2/3 band's first K + 1 columns of
the k2 >= 0 half spectrum; the full-spectrum operators of tests/oracles.py
are checked here too, since the other tests lean on them.
"""

import functools
import gc
import os
import pickle
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from gmhd2d import spectral
from gmhd2d.dynamics import initial_condition
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
    widen,
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
        # every multiplier covers the band's columns k2 = 0, ..., K = 2
        g = Grid(8)
        assert g.k1[:, 0].tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
        assert g.k2[0, :].tolist() == [0, 1, 2]
        assert g.half_ksq[1, 2] == 5.0
        assert g.half_ksq[-3, 2] == 13.0
        assert g.half_kabs[-3, 2] == np.sqrt(13.0)
        for mult in (g.half_ksq, g.half_kabs, g.half_inv_ksq, g.half_dealias):
            assert mult.shape == (8, 3)
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
        # the band's columns end at K = 5 < n/2: no k2 Nyquist column
        g = Grid(16)
        assert g.half_ik1[8, 0] == 0
        assert g.half_ik1[7, 0] == 7j
        assert g.half_ik2.tolist() == [[0j, 1j, 2j, 3j, 4j, 5j]]

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
        # any band spectrum synthesizes to a real field whose analysis gives
        # it back, column 0 made Hermitian
        g = get_grid(32)
        rng = np.random.default_rng(1)
        shape = (32, g.dealias_k + 1)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals = to_physical(g, c)
        back = to_spectral(g, vals)
        np.testing.assert_allclose(back[:, 1:], c[:, 1:], atol=1e-15)
        np.testing.assert_allclose(to_physical(g, back), vals, atol=1e-13)

    def test_against_brute_force_dft(self):
        n = 16
        g = get_grid(n)
        vals = random_values(n, seed=2)
        analysis = brute_dft_matrix(n, -1)
        brute = analysis @ vals @ analysis.T / n**2
        np.testing.assert_allclose(to_spectral(g, vals),
                                   brute[:, :g.dealias_k + 1], atol=1e-13)
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


class TestBandTransforms:
    """The two-pass transforms against numpy's 2-D real pair, bit for bit:
    the analysis over all columns of a half spectrum, and both passes over
    the 2/3 band's leading K + 1 columns of a band spectrum as over its
    zero-padded half spectrum.  At n = 66 and 90, 3K >= n lowers K by
    one."""

    SIZES = (8, 64, 66, 90, 128, 256)

    @staticmethod
    def band(g, seed):
        rng = np.random.default_rng(seed)
        shape = (g.n, g.dealias_k + 1)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def irfft2(g, c):
        return np.fft.irfft2(c, s=(g.n, g.n), norm="forward")

    def test_cutoffs(self):
        assert {n: get_grid(n).dealias_k for n in self.SIZES} == {
            8: 2, 64: 21, 66: 21, 90: 29, 128: 42, 256: 85}

    @pytest.mark.parametrize("n", SIZES)
    def test_all_columns_are_the_2d_pair(self, n):
        # the analysis's complex pass runs column by column: over all
        # columns it is rfft2, so any leading columns are rfft2's
        vals = random_values(n, seed=n + 1)
        rows = np.fft.rfftn(vals, axes=(1,), norm="forward")
        np.testing.assert_array_equal(np.fft.fft(rows, axis=0, norm="forward"),
                                      np.fft.rfft2(vals, norm="forward"))

    @pytest.mark.parametrize("n", SIZES)
    def test_band_synthesis_is_irfft2(self, n):
        g = get_grid(n)
        c_band = self.band(g, seed=n)
        want = self.irfft2(g, widen(g, c_band))
        # the band columns alone, as every spectrum holds them, give the
        # zero-padded half spectrum's irfft2
        np.testing.assert_array_equal(spectral._synthesis(g, c_band), want)
        np.testing.assert_array_equal(to_physical(g, c_band), want)
        (w, w_2) = physical_fields(g, {"w": c_band}, "w", "w_2")
        np.testing.assert_array_equal(w, want)
        np.testing.assert_array_equal(
            w_2, self.irfft2(g, widen(g, g.half_ik2 * c_band)))
        # a synthesis in between leaves the padding past the band zero
        to_physical(g, self.band(g, seed=n + 2))
        np.testing.assert_array_equal(spectral._synthesis(g, c_band), want)

    @pytest.mark.parametrize("n", SIZES)
    def test_band_analysis_is_masked_rfft2(self, n):
        g = get_grid(n)
        band = g.dealias_k + 1
        vals = random_values(n, seed=n + 3)
        full = np.fft.rfft2(vals, norm="forward")
        out = spectral._analysis(g, vals)
        assert out.shape == (n, band) and out.flags.c_contiguous
        np.testing.assert_array_equal(out, full[:, :band])
        mask = full_grid(g).dealias[:, :g.half_cols]
        np.testing.assert_array_equal(out * g.half_dealias,
                                      (full * mask)[:, :band])

    def test_rejects_other_column_counts(self):
        g = get_grid(16)
        for cols in (4, g.half_cols):
            with pytest.raises(ParameterError, match="band shape"):
                physical_fields(g, {"w": np.zeros((16, cols), complex)}, "w")


class TestHalfSpectrum:
    """The band multipliers and real transforms against the oracles'
    full-spectrum forms, and the oracles' half -> full expansion."""

    @staticmethod
    def random_half(n, seed):
        rng = np.random.default_rng(seed)
        shape = (n, n // 2 + 1)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_half_multipliers_are_column_slices(self):
        g = get_grid(16)
        full = full_grid(g)
        band = g.dealias_k + 1
        assert band == 6
        for half, whole in ((g.half_ik1, full.ik1), (g.half_ik2, full.ik2),
                            (g.half_ksq, full.ksq), (g.half_kabs, full.kabs),
                            (g.half_inv_ksq, full.inv_ksq),
                            (g.half_dealias, full.dealias)):
            np.testing.assert_array_equal(
                np.broadcast_to(half, (16, band)),
                np.broadcast_to(whole, (16, 16))[:, :band])

    def test_matches_complex_transforms(self):
        g = get_grid(32)
        vals = random_values(32, seed=6)
        c = full_to_spectral(g, vals)
        half = to_spectral(g, vals)
        np.testing.assert_allclose(half, c[:, :g.dealias_k + 1], atol=1e-15)
        np.testing.assert_allclose(full_to_physical(g, c), vals, atol=1e-13)
        # the band's synthesis is the field with c's columns past K dropped
        c[:, g.dealias_k + 1:-g.dealias_k] = 0.0
        np.testing.assert_allclose(to_physical(g, half),
                                   full_to_physical(g, c), atol=1e-13)

    def test_full_spectrum_restores_hermitian_arrays(self):
        g = get_grid(32)
        c = full_to_spectral(g, random_values(32, seed=7))
        np.testing.assert_allclose(full_spectrum(g, c[:, :g.half_cols]), c,
                                   atol=1e-16)

    def test_full_spectrum_is_exactly_hermitian(self):
        # column 0 and the Nyquist column of an arbitrary half are projected;
        # the synthesis sees only that projection, like to_physical on the
        # band's columns
        for n in (8, 16, 18):
            g = get_grid(n)
            half = self.random_half(n, seed=n)
            full = full_spectrum(g, half)
            assert hermitian_defect(full) == 0.0
            np.testing.assert_array_equal(full[:, 1:n // 2], half[:, 1:n // 2])
            band = np.ascontiguousarray(half[:, :g.dealias_k + 1])
            np.testing.assert_allclose(
                to_physical(g, band),
                full_to_physical(g, full_spectrum(g, band)), atol=1e-14)


class TestPhysicalFields:
    """The half-spectrum field evaluator against full-spectrum oracles."""

    SUFFIXES = ("", "_1", "_2", "_11", "_12", "_21", "_22")
    # u = perp-grad psi and b = perp-grad a as signed partials of the
    # potentials: component -> (sign, potential, axis)
    PERP = {"u1": (-1.0, "psi", "2"), "u2": (1.0, "psi", "1"),
            "b1": (-1.0, "a", "2"), "b2": (1.0, "a", "1")}

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
            # (request, sign, oracle field, derivative digits)
            checks = [(name + s, 1.0, name, s[1:])
                      for name in ("w", "a", "psi", "j") for s in self.SUFFIXES]
            checks += [(f"{pot}_{axis}{s[1:]}", sign, name, s[1:])
                       for name, (sign, pot, axis) in self.PERP.items()
                       for s in self.SUFFIXES]
            planes = physical_fields(g, {"w": wh, "a": ah},
                                     *(req for req, *_ in checks))
            for (req, sign, name, digits), plane in zip(checks, planes):
                c = spectra[name]
                for d in digits:
                    c = derivative(g, c, int(d) - 1)
                want = full_to_physical(g, c)
                err = np.max(np.abs(sign * plane - want)) / np.max(np.abs(want))
                assert err < 1e-12, (n, req, name, digits, err)

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    @pytest.mark.parametrize("kind", ["orszag_tang", "random_band_limited"])
    def test_laplacians_are_hessian_traces(self, kind, n):
        # the record and the log bound take w = Delta psi and j = Delta a as
        # the traces psi_11 + psi_22 and a_11 + a_22, which rests on the sign
        # psi = Delta^{-1} w
        g = get_grid(n)
        kw = {"seed": n, "k_max": g.dealias_k} if kind != "orszag_tang" else {}
        st = initial_condition(kind, g, **kw)
        w, psi_11, psi_22, j, a_11, a_22 = physical_fields(
            g, st.halves(), "w", "psi_11", "psi_22", "j", "a_11", "a_22")
        for want, trace in ((w, psi_11 + psi_22), (j, a_11 + a_22)):
            err = np.max(np.abs(trace - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (kind, n, err)

    def test_mixed_partials_and_request_order(self):
        g = get_grid(32)
        halves = {"w": random_band_limited_field(g, 8, seed=23),
                  "a": random_band_limited_field(g, 8, seed=24)}
        requests = ["a_212", "psi_1", "j_2", "a_221", "w_11", "psi_21", "a_2"]
        forward = physical_fields(g, halves, *requests)
        np.testing.assert_array_equal(forward[0], forward[3])
        backward = physical_fields(g, halves, *requests[::-1])
        for a, b in zip(forward, backward[::-1]):
            np.testing.assert_array_equal(a, b)
        for req, plane in zip(requests, forward):
            np.testing.assert_array_equal(physical_fields(g, halves, req)[0],
                                          plane)

    def test_given_spectra_are_taken_as_they_are(self):
        # a name present in halves is taken as given, as direction_field_norms
        # passes b1 and b2 of any field
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
            physical_fields(g, halves, "psi_2", "psi_112", "a_2", "j_1", "w")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rejects_bad_requests(self):
        g = get_grid(16)
        halves = {"a": np.zeros((16, g.dealias_k + 1), complex)}
        for bad in ("b1_3", "b1_", "_1", "b 1"):
            with pytest.raises(ParameterError, match="field request"):
                physical_fields(g, halves, bad)
        with pytest.raises(ParameterError, match="no spectrum"):
            physical_fields(g, halves, "u1")
        # u and b are partials of the potentials, never derived fields
        both = {"w": halves["a"], "a": halves["a"]}
        with pytest.raises(ParameterError, match="no spectrum"):
            physical_fields(g, both, "u1")


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
        c_brute[:, g.dealias_k + 1:-g.dealias_k] = 0.0  # the band's columns
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
        f = np.zeros((64, g.dealias_k + 1), complex)
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
        c = np.zeros((16, g.dealias_k + 1), complex)
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
        vals = to_physical(g, to_spectral(g, random_values(64, seed=13)))
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


class TestHalfPowerSum:
    """The one Parseval sum against the full-spectrum Sobolev norm oracle."""

    def test_matches_full_spectrum_norm(self):
        g = get_grid(32)
        band = g.dealias_k + 1
        c = full_to_spectral(g, random_values(32, seed=17))
        c[:, band:-g.dealias_k] = 0.0  # the band's columns and their mirrors
        assert np.any(c[16, :] != 0)  # the Nyquist row too
        half = c[:, :band]
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
        half = exact[:, :g.dealias_k + 1]
        with np.errstate(over="raise"):
            got = half_power_sum(g, half.real**2 + half.imag**2, 250.0)
        assert np.isfinite(got)
        assert got == pytest.approx(
            homogeneous_sobolev_norm(g, exact, 250.0) ** 2, rel=1e-12)
        assert got == pytest.approx(2.0**500 * 2 * np.pi**2, rel=1e-12)

    @staticmethod
    def widened_sum(g, power, s):
        # the Parseval sum of the zero-padded half spectrum over all n/2 + 1
        # columns, with the oracle grid's |k|^2
        wide = np.zeros((g.n, g.half_cols))
        wide[:, :power.shape[1]] = power
        if s != 0.0:
            weight = full_grid(g).ksq[:, :g.half_cols] ** s
            wide = np.multiply(weight, wide, out=np.zeros_like(wide),
                               where=wide != 0)
        return float(np.sum(wide, axis=0) @ g.half_weight)

    @pytest.mark.parametrize("n", [32, 64, 66, 90, 128, 256, 512])
    def test_band_input_gives_the_bits_of_its_widened_input(self, n):
        # the column sums are padded to all n/2 + 1 columns before the dot
        # with the column weights; a dot over the band's entries alone
        # rounds some of these sums differently in the last bit
        g = get_grid(n)
        band = g.dealias_k + 1
        rng = np.random.default_rng(n)
        for scale in np.logspace(-4, 4, 40):
            c = scale * (rng.standard_normal((n, band))
                         + 1j * rng.standard_normal((n, band)))
            power = c.real**2 + c.imag**2
            assert spectral_l2(g, c) == np.sqrt(self.widened_sum(g, power, 0.0))
            for s in (0.0, 0.5, 1.0, 2.0):
                assert half_power_sum(g, power, s) == self.widened_sum(
                    g, power, s)
        weight = full_grid(g).kabs[:, :band] ** 0.7
        want = np.empty_like(c)
        want.real, want.imag = weight * c.real, weight * c.imag
        np.testing.assert_array_equal(fractional_power(g, c, 0.7), want)

    def test_rejects_bad_order(self):
        g = get_grid(16)
        power = np.ones((16, g.dealias_k + 1))
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
        # column 0 holds whole conjugate pairs, exactly; the band's last
        # column lies outside the ball
        g = get_grid(32)
        c = random_band_limited_field(g, 8, seed=9)
        col = c[:, 0]
        np.testing.assert_array_equal(col[-np.arange(32) % 32], np.conj(col))
        assert not np.any(c[:, -1])

    @pytest.mark.parametrize("n, k_max, seed", [
        (32, 1, 0), (32, 9, 5), (64, 16, 1), (128, 16, 7), (256, 16, 3),
        (256, 84, 11)])
    def test_matches_per_mode_loop(self, n, k_max, seed, monkeypatch):
        # the band spectrum is the k2 = 0, ..., K columns of the loop's full
        # draw: equal entries before normalization, and equal to 1e-15
        # after it (the band- and full-spectrum norms differ in roundoff)
        g = get_grid(n)
        h = g.dealias_k + 1
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


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


class _Mallopt:
    # stands in for ctypes.CDLL(None).mallopt: records its calls
    def __init__(self, accepts):
        self.calls, self.accepts = [], accepts

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.accepts


class TestAllocatorPolicy:
    """The heap thresholds that importing spectral sets (glibc only)."""

    STEPS = """
import resource, sys
from gmhd2d.dynamics import Params, initial_condition, step
from gmhd2d.spectral import get_grid
n = int(sys.argv[1])
params = Params(n=n, nu=0.0, kappa=0.0)
state = initial_condition("random_band_limited", get_grid(n), 1, k_max=16)
for _ in range(2):
    state = step(state, params, 1e-3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    state = step(state, params, 1e-3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    @pytest.mark.skipif(not _on_glibc(), reason="the policy is set on glibc only")
    @pytest.mark.parametrize("n", [128, 256])
    def test_warm_steps_fault_in_less_than_a_plane(self, n):
        # a fresh interpreter, so pytest's own heap history does not count;
        # with glibc's default thresholds five warm steps of the stepping
        # workload's state fault about 800 pages at n = 128 and 4,200 at
        # n = 256, many times the 32 and 128 pages of one plane
        package_root = str(Path(spectral.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", self.STEPS, str(n)],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < n * n * 8 // 4096

    @pytest.mark.parametrize("accepts, calls", [
        (1, [(-3, 32 << 20), (-1, 256 << 20)]),
        # a rejected mmap threshold leaves the trim threshold alone: set
        # alone, it would switch off the dynamic mmap threshold and map
        # every plane of 128 KiB or more on its own
        (0, [(-3, 32 << 20)])])
    def test_sets_mmap_threshold_then_trim_threshold(self, monkeypatch,
                                                     accepts, calls):
        import ctypes

        mallopt = _Mallopt(accepts)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36",
                            raising=False)
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        spectral._keep_freed_heap()
        assert mallopt.calls == calls

    def test_other_c_libraries_are_left_alone(self, monkeypatch):
        import ctypes

        def not_glibc(name):
            raise ValueError("unrecognized configuration name")

        def no_cdll(name):
            raise AssertionError("loaded the C library off glibc")

        monkeypatch.setattr(os, "confstr", not_glibc, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", no_cdll)
        assert spectral._keep_freed_heap() is None


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
