"""Spectral toolbox on the doubly periodic square [0, 2pi)^2.

Fields live on an n-by-n uniform grid (array axis 0 -> x1, axis 1 -> x2) and
are represented either by real point values or by Fourier coefficients
normalized so that

    f(x) = sum_k  fhat(k) e^{i k.x},      fhat(k) = fft2(f)[k] / n^2.

With this normalization Parseval reads  int |f|^2 dx = (2pi)^2 sum_k
|fhat(k)|^2, and the rectangle rule integrates a product of band-limited
trigonometric polynomials exactly whenever the total degree stays below n.

Wavenumber multipliers:

    d/dx_j            ->  i k_j        (Nyquist line zeroed: keeps fields real)
    Laplacian         ->  -|k|^2
    inverse Laplacian ->  -1/|k|^2     (zero mode -> 0)
    Lambda^s          ->  |k|^s        (Lambda = (-Laplacian)^{1/2}; s = 0 is
                                        the identity, s > 0 kills the mean)

The 2/3 rule keeps modes with max(|k1|, |k2|) <= K, where K = floor(n/3) is
reduced by one if 3K >= n; then no alias of a quadratic product of retained
modes can fold back into the retained band.

A real field is fixed by its k2 >= 0 half spectrum, the n-by-(n/2+1) array
coeffs[:, :n//2+1] that numpy's real transforms (rfft2 / irfft2) work on at
about half the cost of the complex ones.  full_spectrum turns a half back
into the full Hermitian array the public representation keeps.

physical_fields is the one place that turns half spectra into point values
of fields and partials, for the solver, the record and every check.  Each
plane is its own irfft2 call (with a 2 MiB L2, eight n = 256 calls run 1.5x
faster than one over the stacked planes); for the same reason a field's
spectrum is formed once per call and released after its partials.  The full
complex transforms serve initial conditions, state projection, snapshot I/O
and the full-spectrum oracles.
"""

from __future__ import annotations

import functools
import re
import warnings

import numpy as np

__all__ = [
    "ParameterError",
    "Grid",
    "get_grid",
    "to_spectral",
    "to_physical",
    "hermitian_part",
    "hermitian_defect",
    "to_physical_half",
    "to_spectral_half",
    "full_spectrum",
    "physical_fields",
    "derivative",
    "laplacian",
    "inverse_laplacian",
    "fractional_power",
    "biot_savart",
    "field_from_potential",
    "dealiased_product",
    "spectral_l2",
    "lp_norm",
    "random_band_limited_field",
]


class ParameterError(ValueError):
    """A user-supplied parameter is outside its documented domain."""


class Grid:
    """Precomputed wavenumber machinery for an n-by-n periodic grid.

    Attributes:
        n: points per side (even, >= 8).
        k1, k2: integer wavenumbers broadcast to shapes (n, 1) and (1, n).
        ksq, kabs: |k|^2 and |k| as floats.
        ik1, ik2: derivative multipliers i*k with the Nyquist line zeroed.
        inv_ksq: 1/|k|^2 with the zero mode set to 0.
        dealias_k: retained cutoff K of the 2/3 rule.
        dealias: boolean mask selecting max(|k1|, |k2|) <= K.
        half_cols: n//2 + 1, the k2 >= 0 columns of a half spectrum.
        half_ik1, half_ik2, half_ksq, half_inv_ksq, half_dealias: the
            multipliers above restricted to those columns.
        x1, x2: physical coordinates, shape (n, n).
    """

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ParameterError(f"grid size must be an integer, got {n!r}")
        if n < 8 or n % 2:
            raise ParameterError(f"grid size must be even and >= 8, got {n}")
        self.n = int(n)
        k = np.fft.fftfreq(n, 1.0 / n).astype(int)
        self.k1 = k[:, None]
        self.k2 = k[None, :]
        self.ksq = (self.k1**2 + self.k2**2).astype(float)
        self.kabs = np.sqrt(self.ksq)
        # i*k as a derivative multiplier must send real fields to real fields;
        # the lone Nyquist column has no conjugate partner, so it is dropped.
        kd = k.astype(float)
        kd[n // 2] = 0.0
        self.ik1 = (1j * kd)[:, None]
        self.ik2 = (1j * kd)[None, :]
        inv = np.zeros_like(self.ksq)
        nz = self.ksq > 0
        inv[nz] = 1.0 / self.ksq[nz]
        self.inv_ksq = inv
        kcut = n // 3
        if 3 * kcut >= n:
            kcut -= 1
        self.dealias_k = kcut
        self.dealias = (np.abs(self.k1) <= kcut) & (np.abs(self.k2) <= kcut)
        h = n // 2 + 1
        self.half_cols = h
        self.half_ik1 = self.ik1
        self.half_ik2 = self.ik2[:, :h].copy()
        self.half_ksq = self.ksq[:, :h].copy()
        self.half_inv_ksq = self.inv_ksq[:, :h].copy()
        self.half_dealias = self.dealias[:, :h].copy()
        # row of -k1 for every k1, used to mirror the half spectrum
        self._neg_rows = -np.arange(n) % n
        x = np.arange(n) * (2.0 * np.pi / n)
        self.x1, self.x2 = np.meshgrid(x, x, indexing="ij")

    def __repr__(self) -> str:
        return f"Grid(n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Grid", self.n))


@functools.lru_cache(maxsize=None)
def get_grid(n: int) -> Grid:
    """Shared Grid instances, cached by size."""
    return Grid(n)


# ---------------------------------------------------------------------------
# transforms and reality
# ---------------------------------------------------------------------------

def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a real field of point values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n, grid.n):
        raise ParameterError(
            f"field shape {values.shape} does not match grid n={grid.n}")
    return np.fft.fft2(values) / grid.n**2


def to_physical(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Point values of a coefficient array (real part; callers keep coeffs
    Hermitian so the imaginary part is roundoff)."""
    if coeffs.shape != (grid.n, grid.n):
        raise ParameterError(
            f"coefficient shape {coeffs.shape} does not match grid n={grid.n}")
    return np.real(np.fft.ifft2(coeffs) * grid.n**2)


def _conj_flip(coeffs: np.ndarray) -> np.ndarray:
    # coefficient array of the complex conjugate field: c(k) -> conj(c(-k))
    return np.conj(np.roll(coeffs[::-1, ::-1], 1, axis=(0, 1)))


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Projection onto coefficient arrays of real fields, c(-k) = conj(c(k))."""
    return 0.5 * (coeffs + _conj_flip(coeffs))


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Frobenius distance from the Hermitian (real-field) subspace."""
    return float(np.linalg.norm(coeffs - hermitian_part(coeffs)))


# The transforms are looked up as np.fft.<name> at call time, so a wrapper
# installed on numpy.fft (e.g. a call counter) sees them.

def to_physical_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Point values of the real field with k2 >= 0 half spectrum `half`.

    Column 0 and the Nyquist column hold both members of each conjugate pair;
    as in to_physical, only their Hermitian part contributes.
    """
    return np.fft.irfft2(half, s=(grid.n, grid.n), norm="forward")


def to_spectral_half(grid: Grid, values: np.ndarray) -> np.ndarray:
    """k2 >= 0 half spectrum of a real field of point values."""
    return np.fft.rfft2(values, norm="forward")


def full_spectrum(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full n-by-n coefficient array of the real field with half spectrum
    `half`.

    Columns 1..n/2-1 are mirrored through c(-k) = conj(c(k)); column 0 and
    the Nyquist column are replaced by their Hermitian part, so the result is
    exactly Hermitian (hermitian_defect == 0).
    """
    n, m = grid.n, grid.n // 2
    rows = grid._neg_rows
    full = np.empty((n, n), dtype=complex)
    full[:, 1:m] = half[:, 1:m]
    full[:, m + 1:] = np.conj(half[rows, m - 1:0:-1])
    for col in (0, m):
        c = half[:, col]
        full[:, col] = 0.5 * (c + np.conj(c[rows]))
    return full


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

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


def fractional_power(grid: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """Apply Lambda^s = (-Laplacian)^{s/2}, the |k|^s multiplier.

    Args:
        grid: the Grid the coefficients live on.
        coeffs: coefficient array.
        s: exponent, finite and >= 0.  s = 0 is the identity (mean kept);
            any s > 0 annihilates the mean mode.

    Returns:
        Coefficient array of Lambda^s applied to the field.
    """
    if not np.isfinite(s) or s < 0:
        raise ParameterError(f"fractional exponent must be finite and >= 0, got {s}")
    return grid.kabs**s * coeffs  # 0**0 == 1, so s = 0 keeps the mean


# ---------------------------------------------------------------------------
# div-free vector fields from scalars
# ---------------------------------------------------------------------------

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


# name -> (source, multiplier) of each field physical_fields forms itself
_DERIVED = {
    "psi": ("w", lambda g, w: -g.half_inv_ksq * w),
    "u1": ("psi", lambda g, psi: -(g.half_ik2 * psi)),
    "u2": ("psi", lambda g, psi: g.half_ik1 * psi),
    "b1": ("a", lambda g, a: -(g.half_ik2 * a)),
    "b2": ("a", lambda g, a: g.half_ik1 * a),
    "j": ("a", lambda g, a: -g.half_ksq * a),
}


@functools.lru_cache(maxsize=64)
def _field_plan(requests: tuple) -> tuple:
    # the (field, sorted derivative axes) key of every request, and the
    # distinct keys grouped by field, fields of one source next to each other
    keys = []
    for req in requests:
        m = re.fullmatch(r"([A-Za-z0-9]+)(?:_([12]+))?", req)
        if m is None:
            raise ParameterError(
                f"field request must look like 'b1' or 'b1_12', got {req!r}")
        keys.append((m[1], tuple(sorted(int(d) - 1 for d in m[2] or ""))))
    fields = sorted(dict.fromkeys(f for f, _ in keys),
                    key=lambda f: _DERIVED.get(f, (f,))[0])
    return tuple(keys), tuple(
        (f, tuple(sorted({i for k, i in keys if k == f}))) for f in fields)


def _spectrum(grid, halves, held, name):
    # not a closure: a recursive closure is a reference cycle, which keeps a
    # call's spectra alive until the cyclic garbage collector runs
    if name in halves:
        return halves[name]
    if name not in _DERIVED:
        raise ParameterError(f"no half spectrum for field {name!r}")
    source, make = _DERIVED[name]
    if source not in held:
        held[source] = _spectrum(grid, halves, held, source)
    return make(grid, held[source])


def physical_fields(grid: Grid, halves: dict, *requests: str) -> list:
    """Point values of fields and partials, one per request, in order.

    halves maps names to k2 >= 0 half spectra, taken as given; from "w" and
    "a" this forms psi = -Delta^{-1} w, u1, u2 (u = perp-grad psi), b1, b2
    (b = perp-grad a) and j = Delta a.  "b1_12" (= "b1_21") requests d1 d2 b1;
    each distinct plane is one irfft2 call.
    """
    keys, groups = _field_plan(requests)
    mult = (grid.half_ik1, grid.half_ik2)
    planes, held = {}, {}  # held: the source spectrum (psi) of adjacent fields
    for name, axes in groups:
        if _DERIVED.get(name, (None,))[0] not in held:
            held.clear()
        base = _spectrum(grid, halves, held, name)
        for idx in axes:
            c = base
            for axis in idx:
                c = mult[axis] * c
            planes[name, idx] = to_physical_half(grid, c)
    return [planes[key] for key in keys]


# ---------------------------------------------------------------------------
# products and norms
# ---------------------------------------------------------------------------

def dealiased_product(grid: Grid, f_coeffs: np.ndarray, g_coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the pointwise product f*g, restricted to the 2/3 band.

    For inputs supported inside the retained band this equals the exact
    continuum product projected onto the band: with 3K < n no alias of a
    quadratic interaction of retained modes lands back inside the mask.
    """
    prod = to_physical(grid, f_coeffs) * to_physical(grid, g_coeffs)
    return to_spectral(grid, prod) * grid.dealias


def spectral_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """L2 norm over [0, 2pi)^2 from coefficients (Parseval)."""
    return 2.0 * np.pi * float(np.linalg.norm(coeffs))


def lp_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """L^p norm of point values by the rectangle rule; p = inf is the max.

    The rule is exact when |values|^p is a trigonometric polynomial of degree
    below n (e.g. even integer p and band-limited input of degree < n/p).
    """
    values = np.asarray(values)
    if not p >= 1:  # also rejects nan
        raise ParameterError(f"p must satisfy 1 <= p <= inf, got {p!r}")
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    cell = (2.0 * np.pi / grid.n) ** 2
    return float((cell * np.sum(np.abs(values) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# reproducible random fields
# ---------------------------------------------------------------------------

def _ball_modes(k_max: int) -> list[tuple[int, int]]:
    # fixed ordering of one representative per conjugate pair in |k| <= k_max
    modes = []
    for p in range(k_max + 1):
        qs = range(-k_max, k_max + 1) if p > 0 else range(1, k_max + 1)
        for q in qs:
            if p * p + q * q <= k_max * k_max:
                modes.append((p, q))
    return modes


def random_band_limited_field(
    grid: Grid,
    k_max: int,
    seed,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Random real field with Fourier support in the ball |k| <= k_max.

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
