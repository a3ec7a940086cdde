"""Full-spectrum reference operators the tests check the package against.

The package takes and returns only band spectra, the first dealias_k + 1
columns of a k2 >= 0 half spectrum (the columns of rfft2 / irfft2 that the
2/3 band can fill: gmhd2d.spectral.to_spectral, to_physical,
physical_fields, half_power_sum, the state, every tendency and the
inequality corpus); widen zero-pads a band spectrum back to a half
spectrum.  These are the plain full n-by-n coefficient-array forms of the
same operators, built on the complex transforms and on full-grid
multipliers of their own, full_grid, which shares no array with the
package's Grid: the transform pair,
Fourier-multiplier derivatives, the Biot-Savart and potential maps, the
dealiased product, the gradient coupling of the current equation, the
Hermitian projection and defect, the half -> full expansion and the
homogeneous Sobolev norm.  They
are independent of the band-spectrum code paths, which is what makes them
useful as oracles.  random_band_limited_field_loop is the per-mode loop the
package's vectorized corpus draw replaced.  norm_of_term is no oracle: it
reads one NormTerm off the package's own norm table, for tests that need a
single norm.  Nor is traced_peak_planes: it measures the memory peak of a
call, for the tests that pin how many planes a layer holds at once.  Nor is
overflowing_state: a finite state whose point values overflow, for the
tests that hold such a state to be a blow-up, not bad input.
unpruned_advance is the IF-RK4 step on widened half spectra with every
transform one irfft2 or rfft2 call over all columns and every multiplier
full_grid's, the reference the package's band-spectrum stepper must equal
bit for bit.
"""

from __future__ import annotations

import functools
import tracemalloc
import types
import warnings

import numpy as np

from gmhd2d import dynamics
from gmhd2d.dynamics import BlowUpSignal, GmhdState, project_state
from gmhd2d.inequalities import _norm_table
from gmhd2d.spectral import Grid, ParameterError, get_grid


@functools.lru_cache(maxsize=None)
def full_grid(grid: Grid) -> types.SimpleNamespace:
    """Full n-by-n multipliers of grid.

    k1, k2: integer wavenumbers in fft order, shapes (n, 1) and (1, n);
    ksq, kabs: |k|^2 and |k|; ik1, ik2: i*k with the Nyquist lines zeroed;
    inv_ksq: 1/|k|^2 with the zero mode 0; dealias: the 2/3 mask.
    """
    n = grid.n
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    k1, k2 = k[:, None], k[None, :]
    ksq = (k1**2 + k2**2).astype(float)
    kd = k.astype(float)
    kd[n // 2] = 0.0
    inv = np.zeros_like(ksq)
    inv[ksq > 0] = 1.0 / ksq[ksq > 0]
    kcut = grid.dealias_k
    return types.SimpleNamespace(
        k1=k1, k2=k2, ksq=ksq, kabs=np.sqrt(ksq), ik1=(1j * kd)[:, None],
        ik2=(1j * kd)[None, :], inv_ksq=inv,
        dealias=(np.abs(k1) <= kcut) & (np.abs(k2) <= kcut))


def full_to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Full n-by-n Fourier coefficients fft2(values) / n^2."""
    return np.fft.fft2(np.asarray(values, dtype=float)) / grid.n**2


def full_to_physical(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Point values of a full coefficient array (real part)."""
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


def widen(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The half spectrum of a band spectrum: its columns followed by zeros
    (a half spectrum is returned as a copy of itself)."""
    out = np.zeros((grid.n, grid.n // 2 + 1), dtype=complex)
    out[:, :half.shape[1]] = half
    return out


def full_spectrum(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full n-by-n coefficient array of the real field with half spectrum
    (or band spectrum) `half`.

    Columns 1..n/2-1 are mirrored through c(-k) = conj(c(k)); column 0 and
    the Nyquist column are replaced by their Hermitian part, so the result is
    exactly Hermitian: c(-k) == conj(c(k)) bit for bit.
    """
    half = widen(grid, half)
    n, m = grid.n, grid.n // 2
    rows = -np.arange(n) % n
    full = np.empty((n, n), dtype=complex)
    full[:, 1:m] = half[:, 1:m]
    full[:, m + 1:] = np.conj(half[rows, m - 1:0:-1])
    for col in (0, m):
        c = half[:, col]
        full[:, col] = 0.5 * (c + np.conj(c[rows]))
    return full


def full_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """L2 norm over [0, 2pi)^2 from a full coefficient array (Parseval)."""
    return 2.0 * np.pi * float(np.linalg.norm(coeffs))


def derivative(grid: Grid, coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative along axis 0 (x1) or 1 (x2)."""
    if axis == 0:
        return full_grid(grid).ik1 * coeffs
    if axis == 1:
        return full_grid(grid).ik2 * coeffs
    raise ParameterError(f"axis must be 0 or 1, got {axis!r}")


def laplacian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    return -full_grid(grid).ksq * coeffs


def inverse_laplacian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Solve (Laplacian g) = f with zero-mean g; the input mean is discarded."""
    return -full_grid(grid).inv_ksq * coeffs


def fractional_power(grid: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """Lambda^s = (-Laplacian)^{s/2}, the |k|^s multiplier (0**0 == 1)."""
    return full_grid(grid).kabs**s * coeffs


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
    prod = full_to_physical(grid, f_coeffs) * full_to_physical(grid, g_coeffs)
    return full_to_spectral(grid, prod) * full_grid(grid).dealias


def gradient_coupling(grid: Grid, u1c, u2c, b1c, b2c) -> np.ndarray:
    """Bilinear coupling of grad(u) and grad(b) in the current equation.

    Pointwise value of
        2 d1(b1) (d1(u2) + d2(u1)) + 2 d2(u2) (d1(b2) + d2(b1));
    with b := u it collapses to 2 (d1 u1 + d2 u2)(d1 u2 + d2 u1) = 0 for
    divergence-free u.  The arguments are full coefficient arrays.
    """
    def d(c, axis):
        return full_to_physical(grid, derivative(grid, c, axis))

    return (2.0 * d(b1c, 0) * (d(u2c, 0) + d(u1c, 1))
            + 2.0 * d(u2c, 1) * (d(b2c, 0) + d(b1c, 1)))


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
        return full_l2(grid, coeffs)
    full = full_grid(grid)
    mag = np.abs(coeffs)
    nz = (full.ksq > 0) & (mag != 0)
    return 2.0 * np.pi * float(np.linalg.norm(full.kabs[nz] ** s * mag[nz]))


def _ball_modes(k_max: int) -> list[tuple[int, int]]:
    # fixed ordering of one representative per conjugate pair in |k| <= k_max
    modes = []
    for p in range(k_max + 1):
        qs = range(-k_max, k_max + 1) if p > 0 else range(1, k_max + 1)
        for q in qs:
            if p * p + q * q <= k_max * k_max:
                modes.append((p, q))
    return modes


def random_band_limited_draw_loop(grid: Grid, k_max: int, seed) -> np.ndarray:
    """The full coefficient array of random_band_limited_field_loop before
    its normalization."""
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
    return c


def random_band_limited_field_loop(
    grid: Grid,
    k_max: int,
    seed,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Random real field with Fourier support in the ball |k| <= k_max, one
    mode at a time, as a full coefficient array: its k2 >= 0 columns are
    what gmhd2d.spectral.random_band_limited_field must reproduce.

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
    c = random_band_limited_draw_loop(grid, k_max, seed)
    return c * (amplitude / full_l2(grid, c))


def norm_of_term(grid: Grid, f_hat: np.ndarray, term) -> float:
    """One NormTerm on the potential with band spectrum f_hat."""
    return _norm_table(grid, f_hat, (term,))[term]


def traced_peak_planes(call, n: int) -> float:
    """The tracemalloc peak of call() in n x n float64 planes.

    One untraced call warms the per-size caches first, so the peak counts
    only what the call itself holds at once.
    """
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


def overflowing_state(n: int = 32) -> GmhdState:
    """A finite spectral state whose |b| and derivative planes overflow.

    Three modes of a_hat at |a_hat| = 1e308 and omega = 0: every
    coefficient is finite, but max|b| is inf and the second partials of a
    hold nan.
    """
    grid = get_grid(n)
    a_hat = np.zeros((n, grid.dealias_k + 1), dtype=complex)
    for k in ((1, 0), (2, 0), (0, 1)):
        a_hat[k] = 1e308
    return project_state(GmhdState(grid=grid, omega_hat=np.zeros_like(a_hat),
                                   a_hat=a_hat))


def unpruned_advance(state: GmhdState, params, dt: float, cfl: bool) -> GmhdState:
    """dynamics._advance with every transform over all columns.

    The same operations in the same order as the package's step, on the
    widened half spectra, with each synthesis one irfft2 and each analysis
    one rfft2 call.  The multipliers are full_grid's, cut to the n/2 + 1
    half-spectrum columns (its column n/2 holds k2 = -n/2: the same |k|,
    and the mask and the Nyquist-zeroed i*k vanish there); the decay-rate
    formula, the CFL bound and the projection are the package's own, and
    the result holds band spectra.
    """
    g = state.grid
    band = g.dealias_k + 1
    full = full_grid(g)
    h = g.n // 2 + 1
    mask = full.dealias[:, :h]
    kabs, inv_ksq = full.kabs[:, :h], full.inv_ksq[:, :h]
    ik1, ik2 = full.ik1, full.ik2[:, :h]
    k1, k2 = full.k1.astype(float), full.k2[:, :h].astype(float)
    m_shear = (k2 * k2 - k1 * k1) * mask
    m_normal = -(k1 * k2) * mask

    def planes(w, a):  # psi_1, psi_2, a_1, a_2
        psi = -inv_ksq * w
        return [np.fft.irfft2(m * c, s=(g.n, g.n), norm="forward")
                for c in (psi, a) for m in (ik1, ik2)]

    def tendency(p1, p2, a1, a2):
        t = p1 * p2
        t -= a1 * a2
        dw = np.fft.rfft2(t, norm="forward") * m_shear
        t = a1 + a2
        t *= a1 - a2
        s = p1 + p2
        s *= p1 - p2
        t -= s
        dw += np.fft.rfft2(t, norm="forward") * m_normal
        t = p2 * a1
        t -= p1 * a2
        da = np.fft.rfft2(t, norm="forward") * mask
        da[0, 0] = 0.0
        return dw, da

    w0, a0 = widen(g, state.omega_hat), widen(g, state.a_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        stage = planes(w0, a0)
        if cfl:
            dt = min(dynamics._cfl(g, params, *stage), dt)
        k1w, k1a = tendency(*stage)
        if not (dt > 0.0 and np.isfinite(k1w).all() and np.isfinite(k1a).all()):
            raise BlowUpSignal(state.t, state)
        lw = dynamics._decay_rates(kabs, params.nu, 2.0 * params.alpha)
        la = dynamics._decay_rates(kabs, params.kappa, 2.0 * params.beta)
        ew2 = np.exp(0.5 * dt * lw)
        ea2 = np.exp(0.5 * dt * la)
        ew1 = ew2 * ew2
        ea1 = ea2 * ea2
        k2w, k2a = tendency(*planes(ew2 * (w0 + 0.5 * dt * k1w),
                                    ea2 * (a0 + 0.5 * dt * k1a)))
        k3w, k3a = tendency(*planes(ew2 * w0 + 0.5 * dt * k2w,
                                    ea2 * a0 + 0.5 * dt * k2a))
        k4w, k4a = tendency(*planes(ew1 * w0 + dt * ew2 * k3w,
                                    ea1 * a0 + dt * ea2 * k3a))
        wn = ew1 * w0 + (dt / 6.0) * (ew1 * k1w + 2.0 * ew2 * (k2w + k3w) + k4w)
        an = ea1 * a0 + (dt / 6.0) * (ea1 * k1a + 2.0 * ea2 * (k2a + k3a) + k4a)
        wn = dynamics._project(g, wn[:, :band])
        an = dynamics._project(g, an[:, :band])
    if not (np.all(np.isfinite(wn)) and np.all(np.isfinite(an))):
        raise BlowUpSignal(state.t + dt, state)
    return GmhdState(grid=g, omega_hat=wn, a_hat=an, t=state.t + dt)
