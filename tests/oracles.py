"""Full-spectrum reference operators the tests check the package against.

The package works on k2 >= 0 half spectra (gmhd2d.spectral.physical_fields,
gmhd2d.spectral.half_power_sum).  These are the plain full n-by-n
coefficient-array forms of the same operators: Fourier-multiplier
derivatives, the Biot-Savart and potential maps, the dealiased product, the
Hermitian defect and the homogeneous Sobolev norm.  They are independent of
the half-spectrum code paths, which is what makes them useful as oracles.
random_band_limited_field_loop is the per-mode loop the package's
vectorized corpus draw replaced.
"""

from __future__ import annotations

import warnings

import numpy as np

from gmhd2d.spectral import (
    Grid,
    ParameterError,
    hermitian_part,
    spectral_l2,
    to_physical,
    to_spectral,
)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Frobenius distance from the Hermitian (real-field) subspace."""
    return float(np.linalg.norm(coeffs - hermitian_part(coeffs)))


def derivative(grid: Grid, coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative along axis 0 (x1) or 1 (x2)."""
    if axis == 0:
        return grid.ik1 * coeffs
    if axis == 1:
        return grid.ik2 * coeffs
    raise ParameterError(f"axis must be 0 or 1, got {axis!r}")


def laplacian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return -grid.ksq * coeffs


def inverse_laplacian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Solve (Laplacian g) = f with zero-mean g; the input mean is discarded."""
    return -grid.inv_ksq * coeffs


def biot_savart(grid: Grid, omega_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-free velocity with the given scalar curl, zero mean.

    psi = inverse_laplacian(omega), u = perp-grad psi = (-d2 psi, d1 psi), so
    that d1 u2 - d2 u1 = omega.  A nonzero mean has no periodic stream
    function; it is projected out with a RuntimeWarning.

    Returns:
        (u1_coeffs, u2_coeffs).
    """
    c = omega_coeffs
    if abs(c[0, 0]) > 1e-13 * max(1.0, float(np.linalg.norm(c))):
        warnings.warn(
            "nonzero mean curl has no periodic potential; projecting it out",
            RuntimeWarning, stacklevel=2)
        c = c.copy()
        c[0, 0] = 0.0
    psi = inverse_laplacian(grid, c)
    return -derivative(grid, psi, 1), derivative(grid, psi, 0)


def field_from_potential(
    grid: Grid, a_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perp-gradient field of a scalar potential and its scalar curl.

    b = (-d2 a, d1 a) is automatically divergence free and its curl is the
    Laplacian of the potential, j = d1 b2 - d2 b1 = Laplacian(a).

    Returns:
        (b1_coeffs, b2_coeffs, j_coeffs).
    """
    b1 = -derivative(grid, a_coeffs, 1)
    b2 = derivative(grid, a_coeffs, 0)
    return b1, b2, laplacian(grid, a_coeffs)


def dealiased_product(grid: Grid, f_coeffs: np.ndarray, g_coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the pointwise product f*g, restricted to the 2/3 band.

    For inputs supported inside the retained band this equals the exact
    continuum product projected onto the band: with 3K < n no alias of a
    quadratic interaction of retained modes lands back inside the mask.
    """
    prod = to_physical(grid, f_coeffs) * to_physical(grid, g_coeffs)
    return to_spectral(grid, prod) * grid.dealias


def homogeneous_sobolev_norm(grid: Grid, coeffs: np.ndarray, s: float) -> float:
    """||Lambda^s f||_{L2} computed spectrally: (sum |k|^{2s}|fhat|^2 (2pi)^2)^{1/2}.

    s = 0 reproduces the L2 norm including the mean; for s < 0 the zero mode
    is excluded (callers pass zero-mean fields).  Only modes with nonzero
    coefficients are weighted, so a norm beyond float range reads inf, never
    nan from an overflowed |k|^s on an empty mode.
    """
    if not np.isfinite(s):
        raise ParameterError(f"Sobolev order must be finite, got {s!r}")
    if s == 0.0:
        return spectral_l2(grid, coeffs)
    mag = np.abs(coeffs)
    nz = (grid.ksq > 0) & (mag != 0)
    return 2.0 * np.pi * float(np.linalg.norm(grid.kabs[nz] ** s * mag[nz]))


def _ball_modes(k_max: int) -> list[tuple[int, int]]:
    # fixed ordering of one representative per conjugate pair in |k| <= k_max
    modes = []
    for p in range(k_max + 1):
        qs = range(-k_max, k_max + 1) if p > 0 else range(1, k_max + 1)
        for q in qs:
            if p * p + q * q <= k_max * k_max:
                modes.append((p, q))
    return modes


def random_band_limited_field_loop(
    grid: Grid,
    k_max: int,
    seed,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Random real field with Fourier support in the ball |k| <= k_max, one
    mode at a time: the loop gmhd2d.spectral.random_band_limited_field must
    reproduce bit for bit.

    The Gaussian coefficient draw is a fixed-order function of the seed alone,
    so a given seed samples the *same* continuum field on every grid that can
    hold it -- refining n changes nothing but the sampling points.

    Args:
        grid: target grid.
        k_max: largest wavenumber magnitude, 1 <= k_max <= grid.dealias_k.
        seed: integer seed or numpy SeedSequence.
        amplitude: L2 norm of the returned field.

    Returns:
        Coefficient array with ||f||_{L2} = amplitude.
    """
    if not 1 <= k_max <= grid.dealias_k:
        raise ParameterError(
            f"k_max must lie in [1, {grid.dealias_k}] on an n={grid.n} grid, got {k_max}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    modes = _ball_modes(k_max)
    draws = rng.standard_normal((len(modes), 2))
    n = grid.n
    c = np.zeros((n, n), dtype=complex)
    for (p, q), (re, im) in zip(modes, draws):
        c[p % n, q % n] = 0.5 * (re + 1j * im)
        c[-p % n, -q % n] = 0.5 * (re - 1j * im)
    return c * (amplitude / spectral_l2(grid, c))
