"""Empirical verification of interpolation inequalities on random fields.

Every inequality is stated between norms of fields derived from a single
scalar potential: the potential itself ("f"), its perpendicular gradient
("b", a divergence-free vector field), or its Laplacian ("j").  A NormTerm
names one such norm, an InequalitySpec combines them with interpolation
weights, and check_inequalities measures the largest left/right ratio of
each spec over a seeded corpus of band-limited fields at several
resolutions.  A genuine inequality has a resolution-independent constant, so
the observed maxima must stabilize under refinement; that is the PASS
condition.

The norms come from one table per (resolution, corpus field) over the
distinct NormTerms of all specs, so a term several inequalities share is
evaluated once.  L2 terms are Parseval sums over a band power spectrum
formed once per field.  Terms of one (field, grad, lam) family that differ
only in p share one pointwise magnitude: the default battery's 22
distinct terms need four such families, seven real syntheses per field per
resolution.  A single spec is checked as check_inequalities((spec,), ...)[0].

Positivity of the fractional-dissipation integral against odd powers and the
logarithmic bound on the velocity gradient are checked by the same corpus
machinery.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterator

import numpy as np

from .spectral import (
    ParameterError,
    fractional_power,
    get_grid,
    half_power_sum,
    lp_norm,
    magnitude,
    max_magnitude,
    physical_fields,
    random_band_limited_field,
)

__all__ = [
    "NormTerm",
    "InequalitySpec",
    "ConstantReport",
    "PositivityReport",
    "Corpus",
    "check_inequalities",
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


def _field_power(grid, f, field):
    # |X(f)|^2 on the band spectrum: the power of the potential, with the
    # Nyquist-zeroed |k|^2 of the perpendicular gradient or the |k|^4 of the
    # Laplacian
    power = f.real**2 + f.imag**2
    if field == "b":
        power *= grid.half_ik1.imag**2 + grid.half_ik2.imag**2
    elif field == "j":
        power *= grid.half_ksq * grid.half_ksq
    return power


def _norm_table(grid, f_hat, terms) -> dict:
    """Every NormTerm of `terms` on the potential with band spectrum f_hat,
    as a dict.

    The p = 2 terms are Parseval sums, since the ordered-partials convention
    collapses there to the multiplier norm of |k|^(lam + grad), and those of
    one field share its power spectrum.  The other terms of one (field,
    grad, lam) family differ only in p and share one magnitude plane from
    one physical_fields call; a "b" term of order g is in the "f" family of
    order g + 1 (b = perp-grad f).  Families are taken one at a time, after
    the power spectra are dropped, and a family's Lambda^lam spectrum is
    dropped before its magnitude is formed, so one family's planes at most
    are alive at once (5 n x n planes at the peak, in the order-2 family).
    At lam = 0, Lambda^lam is the identity and f_hat is synthesized as given.
    A family whose Lambda^lam spectrum is not finite reads inf, as its p = 2
    terms do, with no synthesis (which would turn inf into nan).
    """
    table, powers, families = {}, {}, {}
    for term in terms:
        if term.p == 2.0:
            if term.field not in powers:
                powers[term.field] = _field_power(grid, f_hat, term.field)
            table[term] = math.sqrt(half_power_sum(
                grid, powers[term.field], term.lam + term.grad))
        else:  # b's ordered partials of order g are f's of order g + 1
            key = (("f", term.grad + 1) if term.field == "b"
                   else (term.field, term.grad))
            families.setdefault((*key, term.lam), []).append(term)
    del powers
    for (field, grad, lam), members in families.items():
        potential = f_hat if lam == 0.0 else fractional_power(grid, f_hat, lam)
        if not np.isfinite(potential).all():
            table.update(dict.fromkeys(members, math.inf))
            continue
        # the magnitude of the derivative stack of order grad of X(potential);
        # the ordered partials "a_12" and "a_21" are one synthesis, counted twice
        axes = ["".join(p) for p in itertools.product("12", repeat=grad)]
        name = {"f": "a", "j": "j"}[field]
        planes = physical_fields(grid, {"a": potential}, *(
            f"{name}_{ax}" if ax else name for ax in axes))
        del potential
        mag = magnitude(*planes)
        del planes
        for term in members:
            table[term] = lp_norm(grid, mag, term.p)
        del mag
    return table


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Corpus:
    """A reproducible family of unit-L2 band-limited scalar fields, held as
    band spectra (spectral's one shape, n x (dealias_k + 1)).

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

    def fields(self, n: int) -> Iterator[np.ndarray]:
        """The corpus on the n-point grid, drawn one field at a time."""
        grid = get_grid(n)
        return (random_band_limited_field(grid, self.k_max, s)
                for s in self.seeds())

    def paired_fields(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Pairs of independent fields, drawn one pair at a time."""
        partners = dataclasses.replace(
            self, first_seed=self.first_seed + _PAIR_STRIDE)
        return zip(self.fields(n), partners.fields(n))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ConstantReport:
    """Observed left/right ratios for one inequality across refinements.

    trend lists (n, max ratio); max_ratio is that of the finest resolution;
    growth is the relative increase of the max ratio over the last
    refinement step; passed means growth < 5%.
    """

    name: str
    max_ratio: float
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


def _constant_report(name, per_resolution) -> ConstantReport:
    # per_resolution lists (n, the corpus's ratios at n), coarsest first
    if not per_resolution:
        raise ParameterError("need at least one resolution")
    trend = tuple((n, float(np.max(r))) for n, r in per_resolution)
    if len(trend) >= 2:
        growth = trend[-1][1] / trend[-2][1] - 1.0
    else:
        growth = 0.0
    return ConstantReport(name=name, max_ratio=trend[-1][1], trend=trend,
                          growth=growth, passed=bool(growth < 0.05))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_inequalities(specs, corpus: Corpus | None = None,
                       resolutions=DEFAULT_RESOLUTIONS) -> list[ConstantReport]:
    """Measure each inequality's best constant over the corpus, in order.

    Computes lhs/rhs per field per resolution (the constant C is omitted
    from the right side, so the ratio is the constant the field exhibits)
    and PASSes an inequality when its max ratio grows less than 5% over the
    final refinement step.  Each corpus field at each resolution gets one
    norm table over the distinct NormTerms of all specs, so a term shared
    by several inequalities is evaluated once.
    """
    corpus = corpus or Corpus()
    specs = tuple(specs)
    terms = tuple(dict.fromkeys(
        t for spec in specs for t in (spec.lhs, *(r for r, _ in spec.rhs))))

    def ratios_at(n):
        grid = get_grid(n)
        per_spec = [[] for _ in specs]
        for f_hat in corpus.fields(n):
            norms = _norm_table(grid, f_hat, terms)
            for spec, ratios in zip(specs, per_spec):
                rhs = 1.0
                for term, theta in spec.rhs:
                    rhs *= norms[term] ** theta
                ratios.append(norms[spec.lhs] / rhs)
        return per_spec

    per_resolution = [(n, ratios_at(n)) for n in resolutions]
    return [_constant_report(spec.name, [(n, ratios[i])
                                         for n, ratios in per_resolution])
            for i, spec in enumerate(specs)]


def check_positivity(alphas, ps, fields) -> list[PositivityReport]:
    """Check int (Lambda^alpha w) w^(p-1) dx >= 0 for every (alpha, p) over
    the fields, one report per pair in (alpha, p) order.

    fields is an iterable of band spectra, taken in one pass; each field's
    grid follows from its shape.  w is synthesized once per field and
    Lambda^alpha w once per (field, alpha).  The integrand is evaluated
    pointwise and integrated by collocation quadrature, which is exact when
    p*k_max < n; the result is normalized by ||w||_p^p.  PASS requires the
    minimum over the fields to clear -1e-10; an empty iterable is rejected.
    """
    alphas, ps = [float(alpha) for alpha in alphas], list(ps)
    if not all(math.isfinite(alpha) and 0.0 < alpha <= 2.0 for alpha in alphas):
        raise ParameterError("alpha must lie in (0, 2]")
    if not all(isinstance(p, (int, np.integer)) and p >= 2 and p % 2 == 0
               for p in ps):
        raise ParameterError("p must be an even integer >= 2")
    ratios = []  # per field, the normalized integrals in (alpha, p) order
    for f in fields:
        grid = get_grid(f.shape[0])
        halves = {"w": f}
        halves.update((f"lw{i}", fractional_power(grid, f, alpha))
                      for i, alpha in enumerate(alphas))
        w, *lam_ws = physical_fields(grid, halves, *halves)
        weights = [(w ** (p - 1), lp_norm(grid, w, p) ** p) for p in ps]
        ratios.append([grid.cell * float(np.sum(lam_w * power)) / scale
                       for lam_w in lam_ws for power, scale in weights])
    if not ratios:
        raise ParameterError("positivity needs at least one field")
    return [PositivityReport(alpha=alpha, p=int(p), corpus_size=len(ratios),
                             min_normalized=float(worst),
                             passed=bool(worst >= -1e-10))
            for (alpha, p), worst in zip(itertools.product(alphas, ps),
                                         np.min(ratios, axis=0))]


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
        # the Parseval sums first, so no power spectrum lives beside a plane
        pw = w_hat.real**2 + w_hat.imag**2
        pj = grid.half_ksq**2 * (a_hat.real**2 + a_hat.imag**2)  # |j_hat|^2
        u_l2 = math.sqrt(half_power_sum(grid, grid.half_inv_ksq * pw))
        h2_sq = (half_power_sum(grid, pw) + half_power_sum(grid, pw, 2.0)
                 + half_power_sum(grid, pj) + half_power_sum(grid, pj, 2.0))
        del pw, pj
        psi_11, psi_12, psi_22 = physical_fields(  # grad u: psi's Hessian
            grid, {"w": w_hat}, "psi_11", "psi_12", "psi_22")
        lhs = max_magnitude(psi_12, psi_22, psi_11, psi_12)
        w_inf = lp_norm(grid, psi_11 + psi_22, np.inf)  # w = Delta psi
        return lhs / (1.0 + u_l2 + 2.0 * w_inf * (1.0 + math.log1p(h2_sq)))

    return _constant_report("velocity_gradient_log_bound", [
        (n, [ratio(get_grid(n), *pair) for pair in corpus.paired_fields(n)])
        for n in resolutions])


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
