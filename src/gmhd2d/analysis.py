"""Regularity-regime classification and discrete a-priori-estimate auditing.

The dissipation strengths (alpha, beta) determine whether global regularity
of the two-dimensional system is settled.  The known sufficient conditions
live in one table, WITNESS_CONDITIONS, of (tag, condition) pairs whose
conditions use only comparisons and `&`, so the same expressions serve a
single point and a whole grid.  `classify_regime` reports which conditions
an exponent pair satisfies and takes its verdict from `verdict_ranks`, the
one verdict rule, which applies elementwise: a 401 x 401 grid is classified
by a few array operations.  `weak_dissipation_exponents` reproduces the
interpolation bookkeeping used in the weak-dissipation range alpha < 1/2, and
`gronwall_check` verifies the discrete Gronwall implication
eta(t) + int psi <= eta(0) exp(int phi) on sampled trajectories.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral import ParameterError

__all__ = [
    "VERDICT_PROVEN",
    "VERDICT_CONDITIONAL",
    "VERDICT_OPEN",
    "PROVEN_TAGS",
    "RegimeVerdict",
    "WITNESS_CONDITIONS",
    "VERDICTS",
    "verdict_ranks",
    "classify_regime",
    "WeakDissipationExponents",
    "weak_dissipation_exponents",
    "GronwallReport",
    "gronwall_check",
    "fit_gronwall_constant",
]


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

VERDICT_PROVEN = "ProvenRegular"
VERDICT_CONDITIONAL = "ConditionallyRegular"
VERDICT_OPEN = "Open"

# Witness tags, named by the condition they encode.
TAG_ALPHA_GE_HALF_BETA_GE_ONE = "AlphaGeHalfBetaGeOne"    # a >= 1/2 and b >= 1
TAG_TWO_ALPHA_PLUS_BETA_GT_TWO = "TwoAlphaPlusBetaGtTwo"  # a < 1/2 and 2a+b > 2
TAG_ALPHA_GE_TWO_BETA_ZERO = "AlphaGeTwoBetaZero"         # a >= 2 and b = 0
TAG_ALPHA_GE_ONE_SUM_GE_TWO = "AlphaGeOneSumGeTwo"        # a >= 1, b > 0, a+b >= 2 (beyond the paper)
TAG_ZERO_ALPHA_BETA_GT_ONE = "ZeroAlphaBetaGtOne"         # a = 0 and b > 1 (conditional)
TAG_SUM_GE_TWO_COMBINED = "SumGeTwoCombined"              # a+b >= 2 annotation

PROVEN_TAGS = frozenset({
    TAG_ALPHA_GE_HALF_BETA_GE_ONE,
    TAG_TWO_ALPHA_PLUS_BETA_GT_TWO,
    TAG_ALPHA_GE_TWO_BETA_ZERO,
    TAG_ALPHA_GE_ONE_SUM_GE_TWO,
})

COMBINED_EXCEPTION_NOTE = "combined-exponent exception at (0, 2)"


@dataclasses.dataclass(frozen=True)
class RegimeVerdict:
    """Outcome of checking (alpha, beta) against the known regularity regions.

    `witnesses` lists every satisfied condition; `verdict` is ProvenRegular
    when at least one unconditional witness holds, ConditionallyRegular when
    only the conditional zero-alpha criterion applies, Open otherwise.
    """

    alpha: float
    beta: float
    verdict: str
    witnesses: tuple[str, ...]
    note: str | None = None

    def describe(self) -> str:
        parts = list(self.witnesses)
        if self.note:
            parts.append(self.note)
        if not parts:
            return self.verdict
        return f"{self.verdict} [{'; '.join(parts)}]"


# The witness conditions, in report order; comparisons and `&` only, so each
# evaluates on floats and elementwise on arrays alike.
WITNESS_CONDITIONS = (
    (TAG_ALPHA_GE_HALF_BETA_GE_ONE, lambda a, b: (a >= 0.5) & (b >= 1.0)),
    (TAG_TWO_ALPHA_PLUS_BETA_GT_TWO,
     lambda a, b: (a < 0.5) & (2.0 * a + b > 2.0)),
    (TAG_ALPHA_GE_TWO_BETA_ZERO, lambda a, b: (a >= 2.0) & (b == 0.0)),
    (TAG_ALPHA_GE_ONE_SUM_GE_TWO,
     lambda a, b: (a >= 1.0) & (b > 0.0) & (a + b >= 2.0)),
    (TAG_ZERO_ALPHA_BETA_GT_ONE, lambda a, b: (a == 0.0) & (b > 1.0)),
)

# verdict of each rank verdict_ranks returns
VERDICTS = (VERDICT_OPEN, VERDICT_CONDITIONAL, VERDICT_PROVEN)


def verdict_ranks(alpha, beta) -> np.ndarray:
    """Elementwise verdict rank of exponent pairs: 0 Open,
    1 ConditionallyRegular, 2 ProvenRegular (int8, broadcast shape).

    A pair is proven when any unconditional witness of WITNESS_CONDITIONS
    holds, conditional when only the zero-alpha criterion does.
    """
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    if not (np.isfinite(a) & np.isfinite(b)).all():
        raise ParameterError("alpha and beta must be finite")
    if (np.minimum(a, b) < 0.0).any():
        raise ParameterError("alpha and beta must be nonnegative")
    proven = conditional = False
    for tag, holds in WITNESS_CONDITIONS:
        if tag in PROVEN_TAGS:
            proven = proven | holds(a, b)
        else:
            conditional = conditional | holds(a, b)
    return np.where(proven, 2, conditional).astype(np.int8)


def classify_regime(alpha: float, beta: float) -> RegimeVerdict:
    """Classify a dissipation-exponent pair against the proven regions.

    The unconditional sufficient conditions are the source paper's three
    stated cases, alpha >= 1/2 with beta >= 1; alpha < 1/2 with
    2*alpha + beta > 2; alpha >= 2 with beta = 0; and a fourth that lies
    beyond them and cites no source, alpha >= 1, beta > 0 with
    alpha + beta >= 2 (the coverage invariant, alpha + beta >= 2 with
    alpha > 0 proven, rests on it for 1 <= alpha < 2, 0 < beta < 1).  The
    conditional criterion is the paper's inviscid result, alpha = 0 with
    beta > 1 while the direction of b stays smooth.  The
    combined-exponent region alpha + beta >= 2 is annotated separately; its
    single excluded point (0, 2) is noted explicitly.
    """
    alpha = float(alpha)
    beta = float(beta)
    verdict = VERDICTS[int(verdict_ranks(alpha, beta))]
    witnesses = [tag for tag, holds in WITNESS_CONDITIONS
                 if holds(alpha, beta)]

    note = None
    at_exception = alpha == 0.0 and beta == 2.0
    if alpha + beta >= 2.0 and not at_exception:
        witnesses.append(TAG_SUM_GE_TWO_COMBINED)
    if at_exception:
        note = COMBINED_EXCEPTION_NOTE
    return RegimeVerdict(alpha, beta, verdict, tuple(witnesses), note)


# ---------------------------------------------------------------------------
# weak-dissipation exponent bookkeeping
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class WeakDissipationExponents:
    """Interpolation exponents for the vorticity L^p ladder at alpha < 1/2.

    xi and eta are the interpolation weights for the gradient norm, a is the
    weight of the dissipative factor in the L^p interpolation, and p is the
    reduced Lebesgue exponent the ladder descends to.
    """

    alpha: float
    p1: float
    xi: float
    eta: float
    a: float
    p: float


def weak_dissipation_exponents(alpha: float, p1: float) -> WeakDissipationExponents:
    """Compute (xi, eta, a, p) from (alpha, p1) in the weak-dissipation range.

    Requires 0 < alpha < 1/2 and p1 > 1/alpha.  The outputs satisfy
    0 < a < 1/3, xi and eta in (0, 1), p in (1/alpha, p1), and the descent
    identity alpha - 1/p = [(1 - 3*alpha/(alpha+1)) / (1 - 2*a)]
    * (alpha - 1/p1).
    """
    alpha = float(alpha)
    p1 = float(p1)
    if not (math.isfinite(alpha) and 0.0 < alpha < 0.5):
        raise ParameterError("alpha must lie in the open interval (0, 0.5)")
    if not (math.isfinite(p1) and p1 * alpha > 1.0):
        raise ParameterError("p1 must exceed 1/alpha")
    xi = alpha - 1.0 / p1
    eta = 1.0 - 1.0 / (p1 * alpha)
    a = (alpha / (1.0 + alpha)) * eta
    p = (1.0 - 2.0 * a) / (1.0 / p1 + a * alpha)
    return WeakDissipationExponents(alpha=alpha, p1=p1, xi=xi, eta=eta, a=a, p=p)


# ---------------------------------------------------------------------------
# discrete Gronwall auditing
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GronwallReport:
    """Discrete audit of eta(t) + int psi <= eta(0) exp(int phi).

    hypothesis_excess[i] = forward difference of eta plus psi minus phi*eta
    on interval i (nonpositive when the differential hypothesis holds);
    margin[k] = eta(0) exp(int phi) - (eta[k] + int psi) using left Riemann
    sums.  checked[k] is True when the hypothesis held on every interval
    before sample k; passed requires the conclusion at all checked samples,
    up to the slack that the hypothesis tolerance propagates.
    """

    times: np.ndarray
    hypothesis_excess: np.ndarray
    hypothesis_ok: np.ndarray
    margin: np.ndarray
    conclusion_ok: np.ndarray
    checked: np.ndarray
    passed: bool


# slack per interval, relative to max(1, eta), of the Gronwall hypothesis
HYPOTHESIS_TOL = 1e-8


def _gronwall_series(times, eta, psi, phi):
    # the four series as finite float arrays on one increasing time grid
    out = []
    for name, values in zip(("times", "eta", "psi", "phi"), (times, eta, psi, phi)):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ParameterError(f"{name} must be a 1-D series of length >= 2")
        if out and arr.size != out[0].size:
            raise ParameterError("all series must share one time grid")
        if not np.all(np.isfinite(arr)):
            raise ParameterError(f"{name} must be finite")
        out.append(arr)
    t, e, s, f = out
    if not np.all(np.diff(t) > 0.0):
        raise ParameterError("times must be strictly increasing")
    if np.min(e) < 0.0 or np.min(s) < 0.0 or np.min(f) < 0.0:
        raise ParameterError("eta, psi, and phi must be nonnegative")
    return out


def gronwall_check(times, eta, psi, phi) -> GronwallReport:
    """Audit the discrete Gronwall implication on sampled series.

    The hypothesis eta' + psi <= phi*eta is tested with forward differences,
    allowing HYPOTHESIS_TOL*max(1, eta) slack per interval.  Wherever the
    hypothesis has held on every preceding interval, the integrated
    conclusion (left Riemann sums) is asserted; the slack allowance follows
    from pushing the per-interval tolerance through the induction.
    """
    t, e, s, f = _gronwall_series(times, eta, psi, phi)
    dt = np.diff(t)
    forward = np.diff(e) / dt
    excess = forward + s[:-1] - f[:-1] * e[:-1]
    tol = HYPOTHESIS_TOL * np.maximum(1.0, e[:-1])
    hypothesis_ok = excess <= tol

    zero = np.zeros(1)
    int_psi = np.concatenate([zero, np.cumsum(s[:-1] * dt)])
    int_phi = np.concatenate([zero, np.cumsum(f[:-1] * dt)])
    growth = np.exp(int_phi)
    margin = e[0] * growth - (e + int_psi)
    slack = (np.concatenate([zero, np.cumsum(tol * dt)])
             + 1e-12 * (1.0 + e[0])) * growth
    conclusion_ok = margin >= -slack
    checked = np.concatenate([[True], np.cumprod(hypothesis_ok) > 0])
    passed = bool(np.all(conclusion_ok[checked]))
    return GronwallReport(times=t, hypothesis_excess=excess,
                          hypothesis_ok=hypothesis_ok, margin=margin,
                          conclusion_ok=conclusion_ok, checked=checked,
                          passed=passed)


def fit_gronwall_constant(times, eta, psi, phi) -> float:
    """Smallest C >= 0 making eta' + psi <= C*phi*eta hold discretely, up to
    the same HYPOTHESIS_TOL slack gronwall_check allows.

    Returns inf when some interval has phi*eta = 0 but a positive forward
    excess, in which case no finite constant works.
    """
    t, e, s, f = _gronwall_series(times, eta, psi, phi)
    dt = np.diff(t)
    need = np.diff(e) / dt + s[:-1] - HYPOTHESIS_TOL * np.maximum(1.0, e[:-1])
    denom = f[:-1] * e[:-1]
    best = 0.0
    for num, den in zip(need, denom):
        if den > 0.0:
            best = max(best, num / den)
        elif num > 0.0:
            return float("inf")
    return best
