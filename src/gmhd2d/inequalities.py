"""Empirical verification of interpolation inequalities on random fields.

Every inequality is stated between norms of fields derived from a single
scalar potential: the potential itself ("f"), its perpendicular gradient
("b", a divergence-free vector field), or its Laplacian ("j").  A NormTerm
names one such norm, an InequalitySpec combines them with interpolation
weights, and check_inequality measures the largest left/right ratio over a
seeded corpus of band-limited fields at several resolutions.  A genuine
inequality has a resolution-independent constant, so the observed maxima
must stabilize under refinement; that is the PASS condition.

Positivity of the fractional-dissipation integral against odd powers and the
logarithmic bound on the velocity gradient are checked by the same corpus
machinery.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .spectral import (
    ParameterError,
    derivative,
    get_grid,
    laplacian,
    lp_norm,
    physical_fields,
    random_band_limited_field,
    spectral_l2,
)
from .diagnostics import homogeneous_sobolev_norm

__all__ = [
    "NormTerm",
    "InequalitySpec",
    "ConstantReport",
    "PositivityReport",
    "Corpus",
    "evaluate_norm",
    "check_inequality",
    "check_positivity",
    "log_inequality_check",
    "DEFAULT_INEQUALITY_SPECS",
    "DEFAULT_RESOLUTIONS",
]

DEFAULT_RESOLUTIONS = (64, 128, 256)

_PAIR_STRIDE = 10_000

_INTRINSIC_ORDER = {"f": 0, "b": 1, "j": 2}


# ---------------------------------------------------------------------------
# norm terms and inequality specifications
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class NormTerm:
    """One norm ||grad^g Lambda^lam X(f)||_{L^p} of a potential-derived field.

    field selects X: "f" is the potential, "b" its perpendicular gradient,
    "j" its Laplacian.  grad stacks 0, 1, or 2 derivative layers (ordered
    partials, so mixed second derivatives count twice and the L2 case reduces
    exactly to a |k|-multiplier norm); lam applies the |k|^lam multiplier.
    """

    field: str
    grad: int = 0
    lam: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.field not in _INTRINSIC_ORDER:
            raise ParameterError("field must be one of 'f', 'b', 'j'")
        if self.grad not in (0, 1, 2):
            raise ParameterError("grad must be 0, 1, or 2")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ParameterError("lam must be finite and nonnegative")
        if not (self.p == np.inf or (math.isfinite(self.p) and self.p >= 1.0)):
            raise ParameterError("p must satisfy 1 <= p <= inf")

    @property
    def scaling_dimension(self) -> float:
        """Exponent of lambda in ||term|| under f -> f(lambda x) on lambda-
        rescaled domains: derivative layers add one each, L^p integration
        removes 2/p."""
        inv_p = 0.0 if self.p == np.inf else 1.0 / self.p
        return _INTRINSIC_ORDER[self.field] + self.grad + self.lam - 2.0 * inv_p


@dataclasses.dataclass(frozen=True)
class InequalitySpec:
    """lhs <= C * prod rhs_i^theta_i with scaling-consistent exponents.

    Construction validates that the weights sum to one and that both sides
    carry the same scaling dimension, so the left/right ratio is invariant
    under field rescaling and domain rescaling alike.
    """

    name: str
    lhs: NormTerm
    rhs: tuple[tuple[NormTerm, float], ...]

    def __post_init__(self):
        if not self.rhs:
            raise ParameterError("inequality needs at least one right factor")
        thetas = [theta for _, theta in self.rhs]
        if any(theta <= 0.0 for theta in thetas):
            raise ParameterError("interpolation weights must be positive")
        if abs(sum(thetas) - 1.0) > 1e-12:
            raise ParameterError(
                f"interpolation weights of '{self.name}' must sum to 1")
        dim = sum(theta * term.scaling_dimension for term, theta in self.rhs)
        if abs(dim - self.lhs.scaling_dimension) > 1e-12:
            raise ParameterError(
                f"'{self.name}' is not scaling-consistent: "
                f"lhs dimension {self.lhs.scaling_dimension:.6g}, "
                f"rhs dimension {dim:.6g}")


def _base_components(grid, f_hat, field: str):
    if field == "f":
        return (f_hat,)
    if field == "b":
        return (-derivative(grid, f_hat, 1), derivative(grid, f_hat, 0))
    return (laplacian(grid, f_hat),)


def evaluate_norm(grid, f_hat, term: NormTerm) -> float:
    """Evaluate a NormTerm on the scalar potential with coefficients f_hat.

    For p = 2 the ordered-partials convention collapses to the exact
    multiplier norm sqrt(sum_c ||Lambda^(lam+grad) c||^2); other exponents
    build the pointwise Euclidean magnitude of the full derivative stack and
    integrate it by collocation quadrature.
    """
    if term.p == 2.0:
        return math.sqrt(sum(
            homogeneous_sobolev_norm(grid, c, term.lam + term.grad) ** 2
            for c in _base_components(grid, f_hat, term.field)))
    h = grid.half_cols
    # Lambda^lam commutes with every derivative; |k|^0 = 1 keeps the mean
    potential = grid.kabs[:, :h] ** term.lam * f_hat[:, :h]
    # the ordered partials: "a_12" and "a_21" are one synthesis, counted twice
    axes = ["".join(p) for p in itertools.product("12", repeat=term.grad)]
    names = {"f": ("a",), "b": ("b1", "b2"), "j": ("j",)}[term.field]
    planes = physical_fields(grid, {"a": potential}, *(
        f"{name}_{ax}" if ax else name for name in names for ax in axes))
    mag_sq = sum(v * v for v in planes)
    return lp_norm(grid, np.sqrt(mag_sq), term.p)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _corpus_field(n: int, k_max: int, seed: int) -> np.ndarray:
    coeffs = random_band_limited_field(get_grid(n), k_max, seed)
    coeffs.setflags(write=False)
    return coeffs


@dataclasses.dataclass(frozen=True)
class Corpus:
    """A reproducible family of unit-L2 band-limited scalar fields.

    The same (k_max, seed) pair denotes the same continuum field at every
    resolution, which is what makes refinement trends meaningful.  Paired
    draws (for checks needing two independent fields) offset the seed by
    _PAIR_STRIDE.
    """

    count: int = 200
    k_max: int = 16
    first_seed: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError("corpus count must be positive")

    def seeds(self) -> range:
        return range(self.first_seed, self.first_seed + self.count)

    def fields(self, n: int) -> list[np.ndarray]:
        return [_corpus_field(n, self.k_max, s) for s in self.seeds()]

    def paired_fields(self, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(_corpus_field(n, self.k_max, s),
                 _corpus_field(n, self.k_max, s + _PAIR_STRIDE))
                for s in self.seeds()]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ConstantReport:
    """Observed left/right ratios for one inequality across refinements.

    trend lists (n, max ratio); quantiles are taken at the finest
    resolution; growth is the relative increase of the max ratio over the
    last refinement step; passed means growth < 5%.
    """

    name: str
    corpus_size: int
    max_ratio: float
    quantiles: tuple[tuple[float, float], ...]
    trend: tuple[tuple[int, float], ...]
    growth: float
    passed: bool

    def __post_init__(self):
        if not (math.isfinite(self.max_ratio) and self.max_ratio > 0.0):
            raise ParameterError(
                f"max ratio of '{self.name}' must be finite and positive")

    def summary(self) -> str:
        trend = ", ".join(f"n={n}: {r:.6g}" for n, r in self.trend)
        return (f"{self.name}: max ratio {self.max_ratio:.6g} "
                f"(growth {self.growth * 100:+.2f}% on last refinement; "
                f"{trend}) -> {'PASS' if self.passed else 'FAIL'}")


@dataclasses.dataclass(frozen=True)
class PositivityReport:
    """Minimum of the normalized dissipation integral over a corpus."""

    alpha: float
    p: int
    corpus_size: int
    min_normalized: float
    passed: bool

    def summary(self) -> str:
        return (f"positivity alpha={self.alpha:g} p={self.p}: "
                f"min {self.min_normalized:.3e} over {self.corpus_size} fields "
                f"-> {'PASS' if self.passed else 'FAIL'}")


def _constant_report(name, resolutions, ratios_at) -> ConstantReport:
    # ratios_at(grid) lists the corpus's ratios at one resolution
    if not resolutions:
        raise ParameterError("need at least one resolution")
    per_resolution = [(n, ratios_at(get_grid(n))) for n in resolutions]
    trend = tuple((n, float(np.max(r))) for n, r in per_resolution)
    finest = per_resolution[-1][1]
    qs = (0.5, 0.9, 1.0)
    quantiles = tuple((q, float(np.quantile(finest, q))) for q in qs)
    if len(trend) >= 2:
        growth = trend[-1][1] / trend[-2][1] - 1.0
    else:
        growth = 0.0
    return ConstantReport(name=name, corpus_size=len(finest),
                          max_ratio=trend[-1][1], quantiles=quantiles,
                          trend=trend, growth=growth,
                          passed=bool(growth < 0.05))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_inequality(spec: InequalitySpec, corpus: Corpus | None = None,
                     resolutions=DEFAULT_RESOLUTIONS) -> ConstantReport:
    """Measure the inequality's best constant over the corpus.

    Computes lhs/rhs per field per resolution (the constant C is omitted
    from the right side, so the ratio is the constant the field exhibits)
    and PASSes when the max ratio grows less than 5% over the final
    refinement step.
    """
    corpus = corpus or Corpus()

    def ratio(grid, f_hat):
        lhs = evaluate_norm(grid, f_hat, spec.lhs)
        rhs = 1.0
        for term, theta in spec.rhs:
            rhs *= evaluate_norm(grid, f_hat, term) ** theta
        return lhs / rhs

    return _constant_report(spec.name, resolutions, lambda grid: [
        ratio(grid, f_hat) for f_hat in corpus.fields(grid.n)])


def check_positivity(alpha: float, p: int, corpus=None,
                     n: int = 128) -> PositivityReport:
    """Check int (Lambda^alpha w) w^(p-1) dx >= 0 over the corpus.

    The integrand is evaluated pointwise and integrated by collocation
    quadrature, which is exact when p*k_max < n; the result is normalized by
    ||w||_p^p.  PASS requires the corpus minimum to clear -1e-10.  corpus
    may be a Corpus or an explicit sequence of coefficient arrays on the
    n-point grid.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha <= 2.0):
        raise ParameterError("alpha must lie in (0, 2]")
    if not (isinstance(p, (int, np.integer)) and p >= 2 and p % 2 == 0):
        raise ParameterError("p must be an even integer >= 2")
    corpus = Corpus() if corpus is None else corpus
    fields = corpus.fields(n) if isinstance(corpus, Corpus) else list(corpus)
    grid = get_grid(n)
    h = grid.half_cols
    lam = grid.kabs[:, :h] ** alpha
    cell = (2.0 * np.pi / n) ** 2
    worst = np.inf
    for f_hat in fields:
        f = f_hat[:, :h]
        w, lam_w = physical_fields(grid, {"w": f, "lw": lam * f}, "w", "lw")
        integral = cell * float(np.sum(lam_w * w ** (p - 1)))
        scale = lp_norm(grid, w, p) ** p
        worst = min(worst, integral / scale)
    return PositivityReport(alpha=alpha, p=int(p), corpus_size=len(fields),
                            min_normalized=worst,
                            passed=bool(worst >= -1e-10))


def log_inequality_check(corpus: Corpus | None = None,
                         resolutions=DEFAULT_RESOLUTIONS) -> ConstantReport:
    """Ratio check of the logarithmic velocity-gradient bound (proxy form).

    |grad u|_inf <= C (1 + |u|_2 + 2|w|_inf (1 + log(1 + |w|_H2^2
    + |j|_H2^2))), on pairs (w, a) drawn from the corpus; u is recovered
    from w, and j from a.  The sup norm in place of the mean-oscillation
    norm weakens the right side, so the checked form is implied by the
    sharp one.  H2 norms are inhomogeneous.
    """
    corpus = corpus or Corpus()

    def ratio(grid, w_hat, a_hat):
        *grad_u, w = physical_fields(
            grid, {"w": w_hat[:, :grid.half_cols]},
            "u1_1", "u1_2", "u2_1", "u2_2", "w")
        lhs = float(np.max(np.sqrt(sum(v * v for v in grad_u))))
        u_l2 = homogeneous_sobolev_norm(grid, w_hat, -1.0)  # |u| = |k|^-1 |w|
        w_inf = lp_norm(grid, w, np.inf)
        jc = laplacian(grid, a_hat)
        h2_sq = (spectral_l2(grid, w_hat) ** 2
                 + homogeneous_sobolev_norm(grid, w_hat, 2.0) ** 2
                 + spectral_l2(grid, jc) ** 2
                 + homogeneous_sobolev_norm(grid, jc, 2.0) ** 2)
        return lhs / (1.0 + u_l2 + 2.0 * w_inf * (1.0 + math.log1p(h2_sq)))

    return _constant_report("velocity_gradient_log_bound", resolutions,
                            lambda grid: [ratio(grid, *pair) for pair in
                                          corpus.paired_fields(grid.n)])


# ---------------------------------------------------------------------------
# the default inequality battery
# ---------------------------------------------------------------------------

def _spec(name, lhs, *rhs):
    return InequalitySpec(name=name, lhs=NormTerm(*lhs),
                          rhs=tuple((NormTerm(*term), theta)
                                    for term, theta in rhs))


DEFAULT_INEQUALITY_SPECS = (
    # L4 interpolation between mass and half of a full derivative
    _spec("quartic_interpolation", ("f", 0, 0.0, 4.0),
          (("f", 0, 0.0, 2.0), 0.5), (("f", 0, 1.0, 2.0), 0.5)),
    # L3 gradient bounds mixing half-order smoothing
    _spec("grad_cubic_via_half_smoothing", ("f", 1, 0.0, 3.0),
          (("f", 0, 0.5, 2.0), 1.0 / 6.0), (("f", 1, 0.5, 2.0), 5.0 / 6.0)),
    _spec("grad_cubic_via_gradient", ("f", 1, 0.0, 3.0),
          (("f", 1, 0.0, 2.0), 1.0 / 3.0), (("f", 1, 0.5, 2.0), 2.0 / 3.0)),
    _spec("cubic_via_mass_and_mixed", ("f", 0, 0.0, 3.0),
          (("f", 0, 0.0, 2.0), 7.0 / 9.0), (("f", 1, 0.5, 2.0), 2.0 / 9.0)),
    _spec("grad_cubic_three_factor", ("f", 1, 0.0, 3.0),
          (("f", 0, 0.5, 2.0), 1.0 / 9.0), (("f", 1, 0.0, 2.0), 1.0 / 9.0),
          (("f", 1, 0.5, 2.0), 7.0 / 9.0)),
    # the classical L4 pair
    _spec("quartic_via_gradient", ("f", 0, 0.0, 4.0),
          (("f", 0, 0.0, 2.0), 0.5), (("f", 1, 0.0, 2.0), 0.5)),
    _spec("grad_quartic_via_mixed", ("f", 1, 0.0, 4.0),
          (("f", 1, 0.0, 2.0), 0.5), (("f", 1, 1.0, 2.0), 0.5)),
    # gradient interpolations used in the weak-dissipation range, at the
    # worked exponent point alpha = 0.4, p1 = 5 (so 2*q1 = 2.5, p = 25/9)
    _spec("weak_dissipation_grad_interp_a", ("f", 1, 0.0, 2.5),
          (("f", 0, 0.4, 2.0), 0.2), (("f", 1, 0.4, 2.0), 0.8)),
    _spec("weak_dissipation_grad_interp_b", ("f", 1, 0.0, 2.5),
          (("f", 1, 0.0, 2.0), 0.5), (("f", 1, 0.4, 2.0), 0.5)),
    _spec("weak_dissipation_lp_interp", ("f", 0, 0.0, 5.0),
          (("f", 0, 0.0, 25.0 / 9.0), 5.0 / 7.0),
          (("f", 1, 0.4, 2.0), 2.0 / 7.0)),
    # sup bound on the field gradient via mass and current curvature
    _spec("field_gradient_sup_bound", ("b", 1, 0.0, np.inf),
          (("b", 0, 0.0, 2.0), 1.0 / 3.0), (("j", 2, 0.0, 2.0), 2.0 / 3.0)),
    # multiplier-theory bounds: gradient controlled by the curl
    _spec("curl_controls_gradient", ("b", 1, 0.0, 2.0),
          (("j", 0, 0.0, 2.0), 1.0)),
    _spec("gradient_via_curl_l4", ("b", 1, 0.0, 4.0),
          (("j", 0, 0.0, 4.0), 1.0)),
)
