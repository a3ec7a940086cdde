"""Norms, balance laws, and criterion monitors over trajectory samples.

Everything here is a pure function of immutable DiagnosticsRecord samples or
of a single state: norm evaluation (collocation L^p, spectral Sobolev),
the energy balance audit, the dissipation ledger for the (omega, j) level,
the L^p vorticity growth bound, the accumulated L-infinity integral behind
the blow-up criterion proxy, and the W^{1,inf}/W^{2,inf} norms of the unit
magnetic direction field with its induced coefficient fields.

Conventions: the L-infinity norm of a vector or gradient field is the grid
maximum of the pointwise Euclidean magnitude over all (ordered) components;
the W^{1,inf}/W^{2,inf} norms of the direction field take the maximum over
individual partial derivatives instead (documented choice).  H^1 norms are
inhomogeneous: ||f||_{H^1}^2 = ||f||_2^2 + ||Lambda f||_2^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import GmhdState, Params
from .spectral import (
    Grid,
    ParameterError,
    biot_savart,
    field_from_potential,
    l2_inner,
    lp_norm,
    spectral_l2,
    to_physical_half,
    to_spectral_half,
)

__all__ = [
    "DiagnosticsRecord",
    "DirectionFieldNorms",
    "H1LedgerReport",
    "LpBoundReport",
    "lp_norm",
    "homogeneous_sobolev_norm",
    "compute_record",
    "energy_balance_residual",
    "h1_ledger",
    "lp_vorticity_bound_check",
    "bkm_accumulator",
    "direction_field_norms",
    "CSV_BASE_COLUMNS",
    "csv_header",
    "write_csv",
    "read_csv",
]


def homogeneous_sobolev_norm(grid: Grid, coeffs: np.ndarray, s: float) -> float:
    """||Lambda^s f||_{L2} computed spectrally: (sum |k|^{2s}|fhat|^2 (2pi)^2)^{1/2}.

    s = 0 reproduces the L2 norm including the mean; for s < 0 the zero mode
    is excluded (callers pass zero-mean fields).
    """
    if not np.isfinite(s):
        raise ParameterError(f"Sobolev order must be finite, got {s!r}")
    if s == 0.0:
        return spectral_l2(grid, coeffs)
    w = np.zeros_like(grid.kabs)
    nz = grid.ksq > 0
    w[nz] = grid.kabs[nz] ** s
    return 2.0 * np.pi * float(np.linalg.norm(w * coeffs))


# ---------------------------------------------------------------------------
# per-state record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampling instant of the monitored quantities.

    The first fifteen fields are the fixed CSV columns; omega_lp and
    grad_j_lp hold one entry per configured p (omega_lp is also written to
    CSV as omega_lp_<p> columns).  The remaining fields are in-memory only:
    they feed the ledger, ideal-invariant, and regularization audits.
    """

    t: float
    energy: float
    diss_u: float
    diss_b: float
    omega_l2: float
    j_l2: float
    omega_linf: float
    j_linf: float
    grad_u_linf: float
    h1: float
    h2: float
    bkm_accum: float
    bhat_w1inf: float
    bhat_w2inf: float
    energy_residual: float
    omega_lp: dict = field(default_factory=dict)
    grad_j_lp: dict = field(default_factory=dict)
    a_l2: float = 0.0
    b_linf: float = 0.0
    cross_helicity: float = 0.0
    diss_omega: float = 0.0
    diss_j: float = 0.0
    min_abs_b: float = 0.0


def compute_record(
    state: GmhdState,
    params: Params,
    p_list=(4.0, 6.0),
    eps_bhat: float | None = None,
    prev: DiagnosticsRecord | None = None,
    e0: float | None = None,
) -> DiagnosticsRecord:
    """Evaluate every monitored quantity at one state.

    Args:
        state: spectral state to measure.
        params: supplies alpha/beta (dissipation orders) and nu/kappa for the
            per-interval energy residual.
        p_list: exponents for the omega and grad-j L^p families.
        eps_bhat: direction-field regularization floor; None selects the
            documented default 1e-6 * |b|_inf.
        prev: previous record, enabling the running bkm integral and the
            interval energy residual.
        e0: initial energy of the trajectory, normalizing energy_residual.

    Returns:
        DiagnosticsRecord (bkm_accum and energy_residual are 0 on the first
        sample).
    """
    g = state.grid
    ps = sorted({float(p) for p in p_list})
    for p in ps:
        if not p >= 1:
            raise ParameterError(f"p_list entries must be >= 1, got {p}")
    # near blow-up the fields overflow; record inf/nan quietly rather than warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _compute_record(state, params, ps, eps_bhat, prev, e0)


def _compute_record(state, params, ps, eps_bhat, prev, e0):
    g = state.grid
    wc, ac = state.omega_hat, state.a_hat
    u1c, u2c = biot_savart(g, wc)
    b1c, b2c, jc = field_from_potential(g, ac)

    h = g.half_cols
    ik = (g.half_ik1, g.half_ik2)
    w = to_physical_half(g, wc[:, :h])
    j = to_physical_half(g, jc[:, :h])
    b1 = to_physical_half(g, b1c[:, :h])
    b2 = to_physical_half(g, b2c[:, :h])

    energy = 0.5 * (
        spectral_l2(g, u1c) ** 2 + spectral_l2(g, u2c) ** 2
        + spectral_l2(g, b1c) ** 2 + spectral_l2(g, b2c) ** 2)
    diss_u = (homogeneous_sobolev_norm(g, u1c, params.alpha) ** 2
              + homogeneous_sobolev_norm(g, u2c, params.alpha) ** 2)
    diss_b = (homogeneous_sobolev_norm(g, b1c, params.beta) ** 2
              + homogeneous_sobolev_norm(g, b2c, params.beta) ** 2)

    omega_l2 = lp_norm(g, w, 2)
    j_l2 = lp_norm(g, j, 2)
    h1 = omega_l2**2 + j_l2**2
    h2 = (omega_l2**2 + homogeneous_sobolev_norm(g, wc, 1.0) ** 2
          + j_l2**2 + homogeneous_sobolev_norm(g, jc, 1.0) ** 2)

    du = [to_physical_half(g, ik[ax] * c[:, :h])
          for c in (u1c, u2c) for ax in (0, 1)]
    grad_u_linf = float(np.max(np.sqrt(sum(x * x for x in du))))
    jx = to_physical_half(g, ik[0] * jc[:, :h])
    jy = to_physical_half(g, ik[1] * jc[:, :h])
    grad_j_mag = np.hypot(jx, jy)

    dfn = direction_field_norms(g, b1, b2, eps_bhat)

    omega_linf = lp_norm(g, w, np.inf)
    j_linf = lp_norm(g, j, np.inf)
    integrand = omega_linf + j_linf
    if prev is None:
        bkm_accum = 0.0
        energy_residual = 0.0
    else:
        dt = state.t - prev.t
        bkm_accum = prev.bkm_accum + 0.5 * (
            (prev.omega_linf + prev.j_linf) + integrand) * dt
        d_prev = params.nu * prev.diss_u + params.kappa * prev.diss_b
        d_cur = params.nu * diss_u + params.kappa * diss_b
        drift = energy - prev.energy + 0.5 * (d_prev + d_cur) * dt
        den = e0 if (e0 is not None and e0 > 0.0) else 1.0
        energy_residual = abs(drift) / den

    return DiagnosticsRecord(
        t=state.t,
        energy=energy,
        diss_u=diss_u,
        diss_b=diss_b,
        omega_l2=omega_l2,
        j_l2=j_l2,
        omega_linf=omega_linf,
        j_linf=j_linf,
        grad_u_linf=grad_u_linf,
        h1=h1,
        h2=h2,
        bkm_accum=bkm_accum,
        bhat_w1inf=dfn.w1inf,
        bhat_w2inf=dfn.w2inf,
        energy_residual=energy_residual,
        omega_lp={p: lp_norm(g, w, p) for p in ps},
        grad_j_lp={p: lp_norm(g, grad_j_mag, p) for p in ps},
        a_l2=spectral_l2(g, ac),
        b_linf=float(np.max(np.hypot(b1, b2))),
        cross_helicity=l2_inner(g, u1c, b1c) + l2_inner(g, u2c, b2c),
        diss_omega=homogeneous_sobolev_norm(g, wc, params.alpha) ** 2,
        diss_j=homogeneous_sobolev_norm(g, jc, params.beta) ** 2,
        min_abs_b=dfn.min_abs_b,
    )


# ---------------------------------------------------------------------------
# series audits
# ---------------------------------------------------------------------------

def _require_series(series, minimum=1):
    if len(series) < minimum:
        raise ParameterError(
            f"need at least {minimum} diagnostics records, got {len(series)}")


def energy_balance_residual(series, params: Params) -> float:
    """Closure of the energy law over a uniformly sampled series.

    Returns max over intervals of |E(t2) - E(t1) + trapezoid of
    (nu*diss_u + kappa*diss_b)| / E(0).  Requires >= 3 samples on a uniform
    cadence (relative tolerance 1e-9 on the spacing).
    """
    _require_series(series, 3)
    dts = np.diff([r.t for r in series])
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(abs(dts[0]), 1.0):
        raise ParameterError("energy_balance_residual requires a uniform cadence")
    e0 = series[0].energy
    den = e0 if e0 > 0.0 else 1.0
    worst = 0.0
    for r1, r2 in zip(series[:-1], series[1:]):
        d1 = params.nu * r1.diss_u + params.kappa * r1.diss_b
        d2 = params.nu * r2.diss_u + params.kappa * r2.diss_b
        drift = r2.energy - r1.energy + 0.5 * (d1 + d2) * (r2.t - r1.t)
        worst = max(worst, abs(drift) / den)
    return worst


@dataclass(frozen=True)
class H1LedgerReport:
    """Running dissipation ledger at the (omega, j) level.

    values[k] = h1(t_k) + trapezoid integral up to t_k of
    2*nu*||Lambda^alpha omega||^2 + 2*kappa*||Lambda^beta j||^2.  The exact
    dynamics make this non-increasing only under extra hypotheses; the audit
    records the running value without asserting monotonicity.
    """

    times: list
    values: list
    max_value: float
    beta_hypothesis: bool  # beta >= 1, the regime where the bound is proven


def h1_ledger(series, params: Params) -> H1LedgerReport:
    """Running value of the dissipation ledger over a record series."""
    _require_series(series, 1)
    acc = 0.0
    values = [series[0].h1]
    for r1, r2 in zip(series[:-1], series[1:]):
        g1 = 2.0 * params.nu * r1.diss_omega + 2.0 * params.kappa * r1.diss_j
        g2 = 2.0 * params.nu * r2.diss_omega + 2.0 * params.kappa * r2.diss_j
        acc += 0.5 * (g1 + g2) * (r2.t - r1.t)
        values.append(r2.h1 + acc)
    return H1LedgerReport(
        times=[r.t for r in series],
        values=values,
        max_value=max(values),
        beta_hypothesis=params.beta >= 1.0,
    )


@dataclass(frozen=True)
class LpBoundReport:
    """Interval-wise audit of the L^p vorticity growth bound."""

    p: float
    checked_intervals: int
    violations: list  # (t1, t2, excess) triples with excess > 0
    max_excess: float  # most positive lhs - rhs - tol seen (<= 0 when clean)
    passed: bool


def lp_vorticity_bound_check(series, p: float) -> LpBoundReport:
    """Check d/dt||omega||_p <= |b|_inf ||grad j||_p interval by interval.

    Each interval must satisfy ||omega(t2)||_p - ||omega(t1)||_p <= trapezoid
    of |b|_inf*||grad j||_p plus tol = 1e-6*(1 + ||omega||_p); violations are
    collected rather than raised.
    """
    if not p >= 2:
        raise ParameterError(f"p must be >= 2, got {p!r}")
    _require_series(series, 2)
    p = float(p)
    if p not in series[0].omega_lp or p not in series[0].grad_j_lp:
        raise ParameterError(
            f"p = {p:g} was not in the recorded p_list {sorted(series[0].omega_lp)}")
    violations = []
    max_excess = -np.inf
    for r1, r2 in zip(series[:-1], series[1:]):
        lhs = r2.omega_lp[p] - r1.omega_lp[p]
        rhs = 0.5 * (r1.b_linf * r1.grad_j_lp[p]
                     + r2.b_linf * r2.grad_j_lp[p]) * (r2.t - r1.t)
        tol = 1e-6 * (1.0 + max(r1.omega_lp[p], r2.omega_lp[p]))
        excess = lhs - rhs - tol
        max_excess = max(max_excess, excess)
        if excess > 0.0:
            violations.append((r1.t, r2.t, excess))
    return LpBoundReport(
        p=p,
        checked_intervals=len(series) - 1,
        violations=violations,
        max_excess=float(max_excess),
        passed=not violations,
    )


def bkm_accumulator(series) -> float:
    """Trapezoid integral of |omega|_inf + |j|_inf over the series.

    An upper proxy for the blow-up criterion integrand (the mean-oscillation
    norm is bounded by twice the maximum norm), so a finite value certifies
    the criterion's integral is finite.
    """
    _require_series(series, 1)
    acc = 0.0
    for r1, r2 in zip(series[:-1], series[1:]):
        acc += 0.5 * ((r1.omega_linf + r1.j_linf)
                      + (r2.omega_linf + r2.j_linf)) * (r2.t - r1.t)
    return acc


# ---------------------------------------------------------------------------
# unit direction field of b
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionFieldNorms:
    """Regularized unit-field norms and the induced coefficient fields.

    w1inf/w2inf are max-over-partials W^{1,inf}/W^{2,inf} norms of
    bhat = b / sqrt(|b|^2 + eps^2).  a_coeff_linf and b_coeff_linf are the
    L-infinity norms of A = curl(bhat.grad bhat - (div bhat) bhat) and of
    that vector field itself.  regularization_dominated is set when
    min|b| < eps, i.e. when the floor (not the data) controls the values.
    """

    w1inf: float
    w2inf: float
    min_abs_b: float
    a_coeff_linf: float
    b_coeff_linf: float
    regularization_dominated: bool
    eps: float


def _unit_field_jet(grid: Grid, b1: np.ndarray, b2: np.ndarray, eps: float) -> dict:
    """Pointwise derivatives of bhat = b/(|b|^2+eps^2)^{1/2} up to second order.

    All derivatives of the band-limited components b1, b2 are spectral; the
    chain rule then assembles the derivatives of bhat pointwise.  (bhat itself
    is a rational function of b with point singularities, so differentiating
    it directly in Fourier space would pollute the whole grid with Gibbs
    error; the product-rule route stays exact.)

    Returns a dict with bhat[j], dbhat[j][i], d2bhat[j][(i,k)] (i <= k), the
    coefficient vector field vec = bhat.grad bhat - (div bhat) bhat, its
    scalar curl curl_vec, and the unregularized magnitude mag.
    """
    comps = (b1, b2)
    coeffs = tuple(to_spectral_half(grid, c) for c in comps)
    ik = (grid.half_ik1, grid.half_ik2)

    def dval(c, ax):
        return to_physical_half(grid, ik[ax] * c)

    # first partials d[j][i] and second partials d2[j][(i, k)], i <= k
    d = [[dval(c, 0), dval(c, 1)] for c in coeffs]
    d2 = [{(0, 0): dval(ik[0] * c, 0),
           (0, 1): dval(ik[0] * c, 1),
           (1, 1): dval(ik[1] * c, 1)} for c in coeffs]

    def second(jc, i, k):
        return d2[jc][(i, k) if i <= k else (k, i)]

    rho = np.sqrt(b1 * b1 + b2 * b2 + eps * eps)
    s = [b1 * d[0][i] + b2 * d[1][i] for i in (0, 1)]          # b . d_i b
    drho = [s[i] / rho for i in (0, 1)]
    d2rho = {}
    for i in (0, 1):
        for k in (i, 1):
            d2rho[(i, k)] = ((d[0][k] * d[0][i] + d[1][k] * d[1][i]
                              + b1 * second(0, i, k) + b2 * second(1, i, k)) / rho
                             - s[i] * s[k] / rho**3)

    bhat = [b1 / rho, b2 / rho]
    dbhat = [[d[jc][i] / rho - comps[jc] * drho[i] / rho**2 for i in (0, 1)]
             for jc in (0, 1)]

    def d2rho_at(i, k):
        return d2rho[(i, k) if i <= k else (k, i)]

    d2bhat = [{}, {}]
    for jc in (0, 1):
        for i in (0, 1):
            for k in (i, 1):
                d2bhat[jc][(i, k)] = (
                    second(jc, i, k) / rho
                    - d[jc][i] * drho[k] / rho**2
                    - d[jc][k] * drho[i] / rho**2
                    - comps[jc] * d2rho_at(i, k) / rho**2
                    + 2.0 * comps[jc] * drho[i] * drho[k] / rho**3)

    def d2bhat_at(jc, i, k):
        return d2bhat[jc][(i, k) if i <= k else (k, i)]

    # coefficient fields: vec = bhat.grad bhat - (div bhat) bhat and its curl
    div_bhat = dbhat[0][0] + dbhat[1][1]
    vec = [sum(bhat[i] * dbhat[jc][i] for i in (0, 1)) - div_bhat * bhat[jc]
           for jc in (0, 1)]
    dvec = {}
    for jc in (0, 1):
        for k in (0, 1):
            adv = sum(dbhat[i][k] * dbhat[jc][i] + bhat[i] * d2bhat_at(jc, i, k)
                      for i in (0, 1))
            ddiv = d2bhat_at(0, 0, k) + d2bhat_at(1, 1, k)
            dvec[(jc, k)] = adv - ddiv * bhat[jc] - div_bhat * dbhat[jc][k]
    curl_vec = dvec[(1, 0)] - dvec[(0, 1)]

    return {"bhat": bhat, "dbhat": dbhat, "d2bhat": d2bhat, "vec": vec,
            "curl_vec": curl_vec, "mag": np.hypot(b1, b2)}


def direction_field_norms(
    grid: Grid,
    b1: np.ndarray,
    b2: np.ndarray,
    eps: float | None = None,
) -> DirectionFieldNorms:
    """Derivative norms of the regularized unit field bhat = b/(|b|^2+eps^2)^{1/2}.

    Args:
        grid: grid of the sampled components.
        b1, b2: physical values of the field components.
        eps: regularization floor; None selects 1e-6 * max|b| (1e-6 for b = 0).

    Returns:
        DirectionFieldNorms.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    bmax = float(np.max(np.hypot(b1, b2)))
    if eps is None:
        eps = 1e-6 * bmax if bmax > 0.0 else 1e-6
    if not (np.isfinite(eps) and eps > 0.0):
        raise ParameterError(f"eps must be positive and finite, got {eps!r}")

    jet = _unit_field_jet(grid, b1, b2, eps)
    w1inf = max(float(np.max(np.abs(jet["dbhat"][jc][i])))
                for jc in (0, 1) for i in (0, 1))
    w2inf = max(float(np.max(np.abs(v)))
                for jc in (0, 1) for v in jet["d2bhat"][jc].values())
    min_abs_b = float(np.min(jet["mag"]))
    return DirectionFieldNorms(
        w1inf=w1inf,
        w2inf=w2inf,
        min_abs_b=min_abs_b,
        a_coeff_linf=float(np.max(np.abs(jet["curl_vec"]))),
        b_coeff_linf=float(np.max(np.hypot(jet["vec"][0], jet["vec"][1]))),
        regularization_dominated=min_abs_b < eps,
        eps=float(eps),
    )


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

CSV_BASE_COLUMNS = (
    "t", "energy", "diss_u", "diss_b", "omega_l2", "j_l2", "omega_linf",
    "j_linf", "grad_u_linf", "h1", "h2", "bkm_accum", "bhat_w1inf",
    "bhat_w2inf", "energy_residual",
)


def _p_label(p: float) -> str:
    return f"omega_lp_{p:g}"


def csv_header(p_list) -> str:
    return ",".join(list(CSV_BASE_COLUMNS) + [_p_label(p) for p in sorted(p_list)])


def write_csv(path, records) -> None:
    """Write a record series as deterministic CSV (17 significant digits)."""
    _require_series(records, 1)
    ps = sorted(records[0].omega_lp)
    lines = [csv_header(ps)]
    for r in records:
        if sorted(r.omega_lp) != ps:
            raise ParameterError("records carry inconsistent omega_lp column sets")
        row = [getattr(r, name) for name in CSV_BASE_COLUMNS]
        row += [r.omega_lp[p] for p in ps]
        lines.append(",".join(format(v, ".17g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a diagnostics CSV back as (column names, list of row dicts)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParameterError(f"empty diagnostics CSV: {path}")
    names = lines[0].split(",")
    rows = [dict(zip(names, map(float, ln.split(",")))) for ln in lines[1:]]
    return names, rows
