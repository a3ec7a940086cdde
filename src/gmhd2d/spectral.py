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
about half the cost of the complex ones, and that is the one representation
here: to_spectral and to_physical are the real transform pair, the Grid's
multipliers live on the half grid, and the state, every tendency and the
inequality corpus are half spectra.  Column 0 is the one column inside the
2/3 band that holds both members of its conjugate pairs, c(-k1, 0) =
conj(c(k1, 0)); irfft2 sees only its Hermitian part.

physical_fields is the one place that turns half spectra into point values
of fields and partials, for the solver, the record and every check.  Each
plane is its own irfft2 call (with a 2 MiB L2, eight n = 256 calls run 1.5x
faster than one over the stacked planes); for the same reason a field's
spectrum is formed once per call and released after its partials.
half_power_sum is the one Parseval sum: every spectral norm of the record,
the identity residuals and the inequality checks is a weighted sum over a
half power spectrum.  magnitude is the one pointwise Euclidean norm of point
values, max_magnitude the one sup of it, and lp_norm(grid, v, inf) the one
sup norm of a plane.
"""

from __future__ import annotations

import functools
import re

import numpy as np

__all__ = [
    "ParameterError",
    "Grid",
    "get_grid",
    "to_spectral",
    "to_physical",
    "physical_fields",
    "fractional_power",
    "half_power_sum",
    "magnitude",
    "max_magnitude",
    "spectral_l2",
    "lp_norm",
    "random_band_limited_field",
]


_TINY = np.finfo(float).tiny  # the smallest normal float64


class ParameterError(ValueError):
    """A user-supplied parameter is outside its documented domain."""


class Grid:
    """Precomputed wavenumber machinery for an n-by-n periodic grid.

    Every multiplier lives on the k2 >= 0 half grid of the real transforms.

    Attributes:
        n: points per side (even, >= 8).
        half_cols: n//2 + 1, the k2 >= 0 columns of a half spectrum.
        k1, k2: integer wavenumbers broadcast to shapes (n, 1) and
            (1, n//2 + 1): k1 in fft order, k2 = 0, 1, ..., n/2.
        half_ksq, half_kabs: |k|^2 and |k| as floats.
        half_ik1, half_ik2: derivative multipliers i*k with the Nyquist lines
            zeroed.
        half_inv_ksq: 1/|k|^2 with the zero mode set to 0.
        dealias_k: retained cutoff K of the 2/3 rule.
        half_dealias: boolean mask selecting max(|k1|, |k2|) <= K.
        half_weight: Parseval weight of each half-spectrum column, (2pi)^2
            for columns 0 and n/2 (they hold both members of their conjugate
            pairs) and 2 (2pi)^2 for the others, whose mirror is absent.
        x1, x2: physical coordinates, read-only views of shape (n, n).
        cell: (2pi/n)^2, the area of one cell, the rectangle-rule weight.
    """

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ParameterError(f"grid size must be an integer, got {n!r}")
        if n < 8 or n % 2:
            raise ParameterError(f"grid size must be even and >= 8, got {n}")
        self.n = int(n)
        h = n // 2 + 1
        self.half_cols = h
        self.k1 = np.fft.fftfreq(n, 1.0 / n).astype(int)[:, None]
        self.k2 = np.arange(h)[None, :]
        self.half_ksq = (self.k1**2 + self.k2**2).astype(float)
        self.half_kabs = np.sqrt(self.half_ksq)
        # i*k as a derivative multiplier must send real fields to real fields;
        # the lone Nyquist lines have no conjugate partner, so they are dropped.
        self.half_ik1 = 1j * np.where(self.k1 == -(n // 2), 0, self.k1).astype(float)
        self.half_ik2 = 1j * np.where(self.k2 == n // 2, 0, self.k2).astype(float)
        inv = np.zeros_like(self.half_ksq)
        nz = self.half_ksq > 0
        inv[nz] = 1.0 / self.half_ksq[nz]
        self.half_inv_ksq = inv
        kcut = n // 3
        if 3 * kcut >= n:
            kcut -= 1
        self.dealias_k = kcut
        self.half_dealias = (np.abs(self.k1) <= kcut) & (self.k2 <= kcut)
        self.half_weight = np.full(h, 2.0 * (2.0 * np.pi) ** 2)
        self.half_weight[[0, -1]] = (2.0 * np.pi) ** 2
        # read-only (n, n) views of one axis: a grid holds no coordinate plane
        x = np.arange(n) * (2.0 * np.pi / n)
        self.x1 = np.broadcast_to(x[:, None], (n, n))
        self.x2 = np.broadcast_to(x[None, :], (n, n))
        self.cell = (2.0 * np.pi / self.n) ** 2

    def __repr__(self) -> str:
        return f"Grid(n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Grid", self.n))

    def __reduce__(self):
        # a pickled Grid (a scan task's state carries one) is just n; the
        # receiving process rebuilds or reuses its own cached instance
        return get_grid, (self.n,)


@functools.lru_cache(maxsize=None)
def get_grid(n: int) -> Grid:
    """Shared Grid instances, cached by size."""
    return Grid(n)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

# The transforms are looked up as np.fft.<name> at call time, so a wrapper
# installed on numpy.fft (e.g. a call counter) sees them.

def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """k2 >= 0 half spectrum of a real field of point values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n, grid.n):
        raise ParameterError(
            f"field shape {values.shape} does not match grid n={grid.n}")
    return np.fft.rfft2(values, norm="forward")


def to_physical(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Point values of the real field with k2 >= 0 half spectrum `half`.

    Column 0 and the Nyquist column hold both members of each conjugate
    pair; only their Hermitian part contributes.
    """
    if half.shape != (grid.n, grid.half_cols):
        raise ParameterError(
            f"half-spectrum shape {half.shape} does not match grid n={grid.n}")
    return np.fft.irfft2(half, s=(grid.n, grid.n), norm="forward")


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

def fractional_power(grid: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """Apply Lambda^s = (-Laplacian)^{s/2}, the |k|^s multiplier.

    Args:
        grid: the Grid the coefficients live on.
        coeffs: k2 >= 0 half spectrum.
        s: exponent, finite and >= 0.  s = 0 is the identity (mean kept);
            any s > 0 annihilates the mean mode.

    Returns:
        Half spectrum of Lambda^s applied to the field.  As in
        half_power_sum, |k|^s weights only nonzero coefficients, and the real
        and imaginary parts separately, so a weight beyond float range gives
        inf where a part is nonzero and 0 elsewhere, never inf * 0 = nan.
    """
    if not np.isfinite(s) or s < 0:
        raise ParameterError(f"fractional exponent must be finite and >= 0, got {s}")
    coeffs = np.asarray(coeffs, dtype=complex)
    with np.errstate(over="ignore"):  # overflow on empty modes is unused
        weight = grid.half_kabs**s  # 0**0 == 1, so s = 0 keeps the mean
    out = np.zeros_like(coeffs)
    for part, dest in ((coeffs.real, out.real), (coeffs.imag, out.imag)):
        np.multiply(weight, part, out=dest, where=part != 0)
    return out


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
            for axis in reversed(idx):  # d1 d2 f = d1 (d2 f)
                c = mult[axis] * c
            planes[name, idx] = to_physical(grid, c)
    return [planes[key] for key in keys]


# ---------------------------------------------------------------------------
# products and norms
# ---------------------------------------------------------------------------

def spectral_l2(grid: Grid, half: np.ndarray) -> float:
    """L2 norm over [0, 2pi)^2 of the real field with k2 >= 0 half spectrum
    `half` (Parseval)."""
    return float(np.sqrt(half_power_sum(grid, half.real**2 + half.imag**2)))


def half_power_sum(grid: Grid, power: np.ndarray, s: float = 0.0) -> float:
    """Parseval sum (2pi)^2 sum_k |k|^{2s} P(k) over the whole spectrum.

    power holds P on the k2 >= 0 half spectrum (P = |fhat|^2 gives
    ||Lambda^s f||_2^2, mean kept at s = 0).  |k|^{2s} weights only modes
    with P != 0, so a sum beyond float range reads inf, never nan.
    """
    if not 0.0 <= s < np.inf:
        raise ParameterError(f"Sobolev order must be finite and >= 0, got {s!r}")
    if s != 0.0:
        with np.errstate(over="ignore"):  # overflow on empty modes is unused
            weight = grid.half_ksq ** s
        power = np.multiply(weight, power, out=np.zeros_like(power),
                            where=power != 0)
    return float(np.sum(power, axis=0) @ grid.half_weight)


def _squares(components):
    # the in-order sum of the squares, or None when a square left the normal
    # range: an overflow (inf), or an underflow where the sum falls below
    # the smallest normal number at a point with a nonzero component.  The
    # underflow test costs one min over the sum (fmin: a nan elsewhere does
    # not hide it) unless that min is that small.
    with np.errstate(over="ignore", under="ignore"):
        total = np.empty(np.broadcast_shapes(*map(np.shape, components)))
        np.square(components[0], out=total)
        for v in components[1:]:
            total += np.square(v)
    if np.isinf(total).any():
        return None
    if np.fmin.reduce(total, axis=None) < _TINY:
        small = total < _TINY
        if any(np.any(small & (np.asarray(v) != 0)) for v in components):
            return None
    return total


def _hypot(components):
    # the magnitude without squares: finite wherever the components are and
    # their magnitude is in range, slower than the root of the sum of squares
    with np.errstate(over="ignore"):
        return functools.reduce(np.hypot, components, 0.0)  # 0.0: one is |v|


def magnitude(*components) -> np.ndarray:
    """Pointwise Euclidean norm sqrt(sum v^2) of real point values.

    The squares are summed in argument order; a scalar component (e.g. a
    regularization floor) broadcasts.  If a square overflows, or the sum of
    squares underflows where a component is nonzero, the result is
    reduce(np.hypot, components) instead, so it stays finite and nonzero
    wherever the components are finite and not all zero.  nan propagates.
    """
    total = _squares(components)
    if total is None:
        return _hypot(components)
    return np.sqrt(total, out=total)


def max_magnitude(*components) -> float:
    """The grid maximum of magnitude(*components), lp_norm of it at p = inf.

    It takes one root, of the maximum of the sums of squares, not one per
    point: sqrt is correctly rounded and monotone, so the value is the same
    bit for bit.  magnitude's fallback applies, and nan propagates.
    """
    total = _squares(components)
    if total is None:
        return float(np.max(_hypot(components)))
    return float(np.sqrt(np.max(total)))


def lp_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """L^p norm of point values by the rectangle rule; p = inf is the max.

    The rule is exact when |values|^p is a trigonometric polynomial of degree
    below n (e.g. even integer p and band-limited input of degree < n/p).
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        values = np.abs(values)
    if not p >= 1:  # also rejects nan
        raise ParameterError(f"p must satisfy 1 <= p <= inf, got {p!r}")
    if np.isinf(p):  # max |v| without forming |v|
        return float(max(abs(np.max(values)), abs(np.min(values))))
    if p in (4.0, 6.0):  # np.square products: about 3x faster than float **
        sq = np.square(values)
        power = np.square(sq)
        if p == 6.0:
            power *= sq
    else:
        power = np.abs(values) ** p
    return float((grid.cell * np.sum(power)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# reproducible random fields
# ---------------------------------------------------------------------------

def _ball_modes(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    # one representative (p, q) per conjugate pair in |k| <= k_max, in the
    # fixed order p = 0, 1, ..., k_max, q ascending, with p = 0 taking q > 0
    p, q = np.meshgrid(np.arange(k_max + 1), np.arange(-k_max, k_max + 1),
                       indexing="ij")
    keep = (p * p + q * q <= k_max * k_max) & ((p > 0) | (q > 0))
    return p[keep], q[keep]


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
        amplitude: L2 norm of the returned field, finite and >= 0.

    Returns:
        Half spectrum with ||f||_{L2} = amplitude.
    """
    if not 1 <= k_max <= grid.dealias_k:
        raise ParameterError(
            f"k_max must lie in [1, {grid.dealias_k}] on an n={grid.n} grid, got {k_max}")
    if not 0.0 <= amplitude < np.inf:  # also rejects nan
        raise ParameterError(
            f"amplitude must be finite and >= 0, got {amplitude!r}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    p, q = _ball_modes(k_max)
    re, im = rng.standard_normal((p.size, 2)).T
    n = grid.n
    c = np.zeros((n, grid.half_cols), dtype=complex)
    # a mode (p, q) lands in the half spectrum when q >= 0 and its mirror
    # (-p, -q) when q <= 0: both for q = 0, so column 0 holds whole pairs;
    # all entries are distinct, so the assignment order is immaterial
    up, down = q >= 0, q <= 0
    c[p[up] % n, q[up]] = 0.5 * (re[up] + 1j * im[up])
    c[-p[down] % n, -q[down]] = 0.5 * (re[down] - 1j * im[down])
    return c * (amplitude / spectral_l2(grid, c))
