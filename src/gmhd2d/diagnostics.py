"""Norms, balance laws, and criterion monitors over trajectory samples.

Everything here is a pure function of immutable DiagnosticsRecord samples or
of a single state: the per-state record (collocation L^p norms, spectral
Sobolev sums, and the running L-infinity integral bkm_accum behind the
blow-up criterion proxy), the energy balance audit, the L^p vorticity growth
bound, and the W^{1,inf}/W^{2,inf} norms of the unit magnetic direction
field.

Conventions: the L-infinity norm of a vector or gradient field is the grid
maximum of the pointwise Euclidean magnitude over all (ordered) components;
the W^{1,inf}/W^{2,inf} norms of the direction field take the maximum over
individual partial derivatives instead (documented choice).  H^1 norms are
inhomogeneous: ||f||_{H^1}^2 = ||f||_2^2 + ||Lambda f||_2^2.

Cost of one record: 14 real syntheses (irfft2) by spectral.physical_fields
from the half spectra of omega and a, and no other transform.  Every plane
past w and j is a partial of a potential: u = perp-grad psi and b =
perp-grad a, so div u = div b = 0 hold by construction.  They come in three
groups, in this order, and each group is reduced to its scalars and dropped
before the next is synthesized: (w, j); the Hessian of psi, which is grad
u; and the nine first to third partials of a.  The last group runs the
direction-field chain rule on v = (d2 a, d1 a) = (-b1, b2), whose Jacobian
is the Hessian of a: |v| = |b|, and the partials of vhat are those of bhat
up to sign, so the max-over-partials norms are bhat's.  grad j = (a_111 +
a_122, a_112 + a_222) comes from the same planes.  The second partials of
vhat are formed one at a time in reused buffers, and each is reduced to its
max as soon as it is formed.  So one record holds at most 19 n x n float64
planes at once (tracemalloc peak), as many as one step.

The quadratic quantities (energy, the dissipation sums, h2, cross
helicity) are spectral.half_power_sum Parseval sums over the half power
spectra |w_hat|^2 and |a_hat|^2 of the state.  That sum weights only modes
with nonzero power, so an overflowing |k|^{2s} gives inf on a sum that is
truly beyond float range and never inf * 0 = nan on an empty mode.
Every pointwise magnitude (|grad j|, |b|, the floored |b|) is
spectral.magnitude, and the sup of |grad u| is spectral.max_magnitude; both
stay finite, and nonzero where a component is, wherever the components are
finite, however far their squares leave the float range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import GmhdState, Params
from .spectral import (
    Grid,
    ParameterError,
    half_power_sum,
    lp_norm,
    magnitude,
    max_magnitude,
    physical_fields,
    to_spectral,
)

__all__ = [
    "DiagnosticsRecord",
    "LpBoundReport",
    "compute_record",
    "energy_balance_residual",
    "lp_vorticity_bound_check",
    "direction_field_norms",
    "CSV_BASE_COLUMNS",
    "csv_header",
    "write_csv",
    "read_csv",
]


# ---------------------------------------------------------------------------
# per-state record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampling instant of the monitored quantities.

    The first fifteen fields are the fixed CSV columns; omega_lp and
    grad_j_lp hold one entry per configured p (omega_lp is also written to
    CSV as omega_lp_<p> columns).  The remaining fields are in-memory only:
    they feed the L^p bound, Gronwall, and ideal-invariant audits.
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
    ps = sorted({float(p) for p in p_list})
    for p in ps:
        if not p >= 1:
            raise ParameterError(f"p_list entries must be >= 1, got {p}")
    if eps_bhat is not None:
        _check_eps(eps_bhat)
    # near blow-up the fields overflow; record inf/nan quietly rather than warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _compute_record(state, params, ps, eps_bhat, prev, e0)


def _compute_record(state, params, ps, eps_bhat, prev, e0):
    g = state.grid
    halves = state.halves()
    sums = _spectral_sums(g, halves["w"], halves["a"], params)
    # the record's 14 syntheses in three groups (module docstring); each
    # group is reduced to scalars and dropped before the next is synthesized
    w, j = physical_fields(g, halves, "w", "j")
    omega_l2 = lp_norm(g, w, 2)
    j_l2 = lp_norm(g, j, 2)
    omega_linf = lp_norm(g, w, np.inf)
    j_linf = lp_norm(g, j, np.inf)
    omega_lp = {p: lp_norm(g, w, p) for p in ps}
    del w, j
    h1 = omega_l2**2 + j_l2**2
    h2 = omega_l2**2 + sums["grad_w_sq"] + j_l2**2 + sums["grad_j_sq"]

    psi_11, psi_12, psi_22 = physical_fields(
        g, halves, "psi_11", "psi_12", "psi_22")
    # u = perp-grad psi: grad u = (-psi_12, -psi_22, psi_11, psi_12)
    grad_u_linf = max_magnitude(psi_12, psi_12, psi_22, psi_11)
    del psi_11, psi_12, psi_22

    # bhat's norms from v = (a_2, a_1) = (-b1, b2): |v| = |b|, and the
    # partials of vhat are those of bhat up to sign
    (a_1, a_2, a_11, a_12, a_22, a_111, a_112, a_122, a_222) = physical_fields(
        g, halves, "a_1", "a_2", "a_11", "a_12", "a_22",
        "a_111", "a_112", "a_122", "a_222")
    grad_j_mag = magnitude(a_111 + a_122, a_112 + a_222)  # j = a_11 + a_22
    grad_j_lp = {p: lp_norm(g, grad_j_mag, p) for p in ps}
    del grad_j_mag

    mag = magnitude(a_2, a_1)
    b_linf = lp_norm(g, mag, np.inf)
    dbhat, second = _unit_field_derivatives(
        (a_2, a_1), mag, [[a_12, a_22], [a_11, a_12]],
        [dict(zip(_PAIRS, (a_112, a_122, a_222))),
         dict(zip(_PAIRS, (a_111, a_112, a_122)))],
        _regularization(b_linf, eps_bhat))
    del a_1, a_2, mag  # the second partials of vhat need none of them
    bhat_w1inf, bhat_w2inf = _max_partials(g, dbhat, second)

    integrand = omega_linf + j_linf
    if prev is None:
        bkm_accum = 0.0
        energy_residual = 0.0
    else:
        dt = state.t - prev.t
        bkm_accum = prev.bkm_accum + 0.5 * (
            (prev.omega_linf + prev.j_linf) + integrand) * dt
        d_prev = _dissipation(params, prev.diss_u, prev.diss_b)
        d_cur = _dissipation(params, sums["diss_u"], sums["diss_b"])
        drift = sums["energy"] - prev.energy + 0.5 * (d_prev + d_cur) * dt
        den = e0 if (e0 is not None and e0 > 0.0) else 1.0
        energy_residual = abs(drift) / den

    return DiagnosticsRecord(
        t=state.t,
        energy=sums["energy"],
        diss_u=sums["diss_u"],
        diss_b=sums["diss_b"],
        omega_l2=omega_l2,
        j_l2=j_l2,
        omega_linf=omega_linf,
        j_linf=j_linf,
        grad_u_linf=grad_u_linf,
        h1=h1,
        h2=h2,
        bkm_accum=bkm_accum,
        bhat_w1inf=bhat_w1inf,
        bhat_w2inf=bhat_w2inf,
        energy_residual=energy_residual,
        omega_lp=omega_lp,
        grad_j_lp=grad_j_lp,
        a_l2=float(np.sqrt(sums["a_sq"])),
        b_linf=b_linf,
        cross_helicity=sums["cross_helicity"],
        diss_omega=sums["diss_omega"],
    )


def _spectral_sums(grid: Grid, wh: np.ndarray, ah: np.ndarray, params: Params) -> dict:
    # the quadratic record quantities as Parseval sums over half power spectra
    ksq, inv = grid.half_ksq, grid.half_inv_ksq
    kd2 = grid.half_ik1.imag**2 + grid.half_ik2.imag**2  # |perp-grad|^2
    pw = wh.real**2 + wh.imag**2
    pa = ah.real**2 + ah.imag**2
    pu = kd2 * inv * inv * pw   # |u1_hat|^2 + |u2_hat|^2
    pb = kd2 * pa               # |b1_hat|^2 + |b2_hat|^2
    pj = ksq * ksq * pa         # |j_hat|^2
    return {
        "energy": 0.5 * half_power_sum(grid, pu + pb),
        "diss_u": half_power_sum(grid, pu, params.alpha),
        "diss_b": half_power_sum(grid, pb, params.beta),
        "diss_omega": half_power_sum(grid, pw, params.alpha),
        "grad_w_sq": half_power_sum(grid, pw, 1.0),
        "grad_j_sq": half_power_sum(grid, pj, 1.0),
        "a_sq": half_power_sum(grid, pa),
        # int u.b = sum |perp-grad|^2 Re(conj(psi_hat) a_hat), psi = -w/|k|^2
        "cross_helicity": -half_power_sum(grid, kd2 * inv * (
            wh.real * ah.real + wh.imag * ah.imag)),
    }


def _dissipation(params: Params, diss_u: float, diss_b: float) -> float:
    # nu*diss_u + kappa*diss_b; a switched-off channel adds exactly 0, even
    # where its Sobolev sum overflowed (no 0 * inf = nan)
    rate = 0.0
    if params.nu != 0.0:
        rate += params.nu * diss_u
    if params.kappa != 0.0:
        rate += params.kappa * diss_b
    return rate


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
        d1 = _dissipation(params, r1.diss_u, r1.diss_b)
        d2 = _dissipation(params, r2.diss_u, r2.diss_b)
        drift = r2.energy - r1.energy + 0.5 * (d1 + d2) * (r2.t - r1.t)
        worst = max(worst, abs(drift) / den)
    return worst


@dataclass(frozen=True)
class LpBoundReport:
    """Interval-wise audit of the L^p vorticity growth bound."""

    p: float
    checked_intervals: int
    violations: list  # (t1, t2, excess) triples with excess > 0
    max_excess: float  # most positive lhs - rhs - tol seen (<= 0 when clean)
    max_ratio: float  # max lhs / rhs over intervals with rhs > 0, else -inf
    passed: bool


def lp_vorticity_bound_check(series, p: float) -> LpBoundReport:
    """Check d/dt||omega||_p <= |b|_inf ||grad j||_p interval by interval.

    Each interval must satisfy ||omega(t2)||_p - ||omega(t1)||_p <= trapezoid
    of |b|_inf*||grad j||_p plus tol = 1e-6*(1 + ||omega||_p); violations are
    collected rather than raised.  max_ratio, the largest lhs/rhs over the
    intervals with rhs > 0, reports how tight the bound ran.
    """
    if not p >= 2:
        raise ParameterError(f"p must be >= 2, got {p!r}")
    _require_series(series, 2)
    p = float(p)
    if p not in series[0].omega_lp or p not in series[0].grad_j_lp:
        raise ParameterError(
            f"p = {p:g} was not in the recorded p_list {sorted(series[0].omega_lp)}")
    violations = []
    max_excess = max_ratio = -np.inf
    for r1, r2 in zip(series[:-1], series[1:]):
        lhs = r2.omega_lp[p] - r1.omega_lp[p]
        rhs = 0.5 * (r1.b_linf * r1.grad_j_lp[p]
                     + r2.b_linf * r2.grad_j_lp[p]) * (r2.t - r1.t)
        tol = 1e-6 * (1.0 + max(r1.omega_lp[p], r2.omega_lp[p]))
        excess = lhs - rhs - tol
        max_excess = max(max_excess, excess)
        if rhs > 0.0:
            max_ratio = max(max_ratio, lhs / rhs)
        if excess > 0.0:
            violations.append((r1.t, r2.t, excess))
    return LpBoundReport(
        p=p,
        checked_intervals=len(series) - 1,
        violations=violations,
        max_excess=float(max_excess),
        max_ratio=float(max_ratio),
        passed=not violations,
    )


# ---------------------------------------------------------------------------
# unit direction field of b
# ---------------------------------------------------------------------------

_PAIRS = ((0, 0), (0, 1), (1, 1))


def _check_eps(eps) -> float:
    # the direction-field floor must be positive and finite
    if not (np.isfinite(eps) and eps > 0.0):
        raise ParameterError(f"eps must be positive and finite, got {eps!r}")
    return float(eps)


def _regularization(bmax: float, eps: float | None) -> float:
    # the direction-field floor: eps as given, or 1e-6 * max|b| (1e-6 for b = 0)
    if eps is None:
        eps = 1e-6 * bmax if bmax > 0.0 else 1e-6
    return _check_eps(eps)


def _unit_field_derivatives(b, mag, db, d2b, eps):
    """Chain rule for bhat = b / rho, rho = (|b|^2 + eps^2)^{1/2}, pointwise.

    b = (b1, b2) and mag = |b| are physical values, db[j][i] = d_i b_j and
    d2b[j][(i, k)] = d_i d_k b_j for i <= k.  With r = 1/rho and
    t_i = bhat . d_i b (= d_i rho):

        d_i bhat_j     = (d_i b_j - bhat_j t_i) r
        T_ik           = sum_m (d_k bhat_m d_i b_m + bhat_m d_i d_k b_m)
                       = d_k t_i
        d_i d_k bhat_j = (d_i d_k b_j - d_k bhat_j t_i - d_i bhat_j t_k
                          - bhat_j T_ik) r

    Returns (dbhat, second): dbhat is laid out like db, and second is a
    generator of (j, (i, k), d_i d_k bhat_j), pair by pair in _PAIRS order
    and j = 0, 1 within a pair.  Every plane it yields is the same buffer,
    overwritten by the next: reduce it or copy it.  It holds neither b nor
    mag, so a caller that drops them keeps those planes out of the
    second-order stage.
    """
    r = 1.0 / magnitude(mag, eps)
    bhat = [b[0] * r, b[1] * r]
    t = [bhat[0] * db[0][i] + bhat[1] * db[1][i] for i in (0, 1)]
    dbhat = [[np.multiply(bhat[jc], t[i]) for i in (0, 1)] for jc in (0, 1)]
    for jc in (0, 1):
        for i in (0, 1):
            d = dbhat[jc][i]
            np.subtract(db[jc][i], d, out=d)
            d *= r
    return dbhat, _second_derivatives(bhat, dbhat, t, r, db, d2b)


def _second_derivatives(bhat, dbhat, t, r, db, d2b):
    # the second-order half of _unit_field_derivatives, term by term in the
    # order of its formulas, in three reused buffers
    tik, tmp, out = (np.empty_like(r) for _ in range(3))
    for i, k in _PAIRS:
        np.multiply(dbhat[0][k], db[0][i], out=tik)
        tik += np.multiply(dbhat[1][k], db[1][i], out=tmp)
        tik += np.multiply(bhat[0], d2b[0][(i, k)], out=tmp)
        tik += np.multiply(bhat[1], d2b[1][(i, k)], out=tmp)
        for jc in (0, 1):
            np.multiply(dbhat[jc][k], t[i], out=out)
            np.subtract(d2b[jc][(i, k)], out, out=out)
            out -= np.multiply(dbhat[jc][i], t[k], out=tmp)
            out -= np.multiply(bhat[jc], tik, out=tmp)
            out *= r
            yield jc, (i, k), out


def _max_partials(grid, dbhat, second):
    # the max-over-partials W^{1,inf} and W^{2,inf} norms of bhat
    return (max(lp_norm(grid, v, np.inf) for row in dbhat for v in row),
            max(lp_norm(grid, plane, np.inf) for _, _, plane in second))


def direction_field_norms(
    grid: Grid,
    b1: np.ndarray,
    b2: np.ndarray,
) -> tuple[float, float]:
    """Max-over-partials W^{1,inf}/W^{2,inf} norms (w1inf, w2inf) of bhat.

    bhat = b/(|b|^2+eps^2)^{1/2} with the record's default floor eps =
    1e-6 * max|b| (1e-6 for b = 0).  b1, b2 are differentiated spectrally
    (2 analyses, 10 syntheses; b need not be divergence free), and the
    record's chain rule forms the partials of bhat, which is singular
    where b = 0, reducing each as it is formed.

    Args:
        grid: grid of the sampled components.
        b1, b2: physical values of the field components.

    Returns:
        (w1inf, w2inf) as floats.
    """
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    halves = {"b1": to_spectral(grid, b1), "b2": to_spectral(grid, b2)}
    db = [physical_fields(grid, halves, c + "_1", c + "_2") for c in halves]
    d2b = [dict(zip(_PAIRS, physical_fields(
        grid, halves, c + "_11", c + "_12", c + "_22"))) for c in halves]
    del halves
    mag = magnitude(b1, b2)
    eps = _regularization(lp_norm(grid, mag, np.inf), None)
    dbhat, second = _unit_field_derivatives((b1, b2), mag, db, d2b, eps)
    del mag
    return _max_partials(grid, dbhat, second)


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
