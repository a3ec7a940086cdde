"""Time integration of 2D generalized MHD in vorticity / potential form.

System on the torus [0, 2pi)^2, written in the scalar variables that make
incompressibility automatic:

    w_t + u.grad(w) = b.grad(j) - nu Lambda^{2 alpha} w
    a_t + u.grad(a) =           - kappa Lambda^{2 beta} a

    u = perp_grad(Delta^{-1} w)   (curl u = w,  div u = 0)
    b = perp_grad(a)              (curl b = j,  div b = 0)
    j = Delta(a)

Applying the Laplacian to the potential equation yields the equivalent
current equation

    j_t + u.grad(j) = b.grad(w) + G(grad u, grad b) - kappa Lambda^{2 beta} j,
    G = 2 d1(b1) (d1(u2) + d2(u1)) + 2 d2(u2) (d1(b2) + d2(b1)),

which is *not* integrated here but is validated as an exact identity of the
potential form by structure_identities, with the other exact facts the
(w, j) energy bound rests on.

Stepping is integrating-factor RK4: the stiff diagonal dissipation advances
exactly through exp(-nu |k|^{2 alpha} dt) multipliers while classical RK4
handles the nonlinear terms.  Every nonlinear evaluation forms products in
physical space and projects back onto the 2/3-rule band, so quadratic
interactions of retained modes are alias-free and the semi-discrete system
conserves energy, cross helicity and the potential's L2 norm exactly when
nu = kappa = 0.

The fields are real, so the stepper, cfl_dt and structure_identities take
every physical field from the state's k2 >= 0 half spectra through
spectral.physical_fields.  The tendency is evaluated in stress form: for
divergence-free u and b, curl(u.grad u) = u.grad w and curl(b.grad b) =
b.grad j, so with the symmetric stress T = b (x) b - u (x) u

    b.grad(j) - u.grad(w) = curl div T = (d1^2 - d2^2) T12 + d1 d2 (T22 - T11),
    u.grad(a) = u1 b2 - u2 b1          (grad a = (b2, -b1)).

A tendency therefore costs 7 real transforms: 4 syntheses (u1, u2, b1, b2)
and 3 analyses (T12, T22 - T11, u2 b1 - u1 b2); an IF-RK4 step costs 28.
Every product of two fields in the 2/3 band is alias-free inside the band,
so this equals the advective form up to roundoff.  The state, all four RK4
stages and the tendency are half spectra; a step ends with the state
projection, which needs only column 0 (see project_state).  cfl_dt needs
exactly the stage-1 planes, so run's adaptive loop takes dt from them and an
advanced step also costs 28 transforms.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    ParameterError,
    get_grid,
    lp_norm,
    magnitude,
    max_magnitude,
    physical_fields,
    random_band_limited_field,
    spectral_l2,
    to_physical,
    to_spectral,
)

__all__ = [
    "INITIAL_KINDS",
    "Params",
    "GmhdState",
    "Tendency",
    "BlowUpSignal",
    "RunResult",
    "initial_condition",
    "nonlinear_rhs",
    "IdentityReport",
    "structure_identities",
    "cfl_dt",
    "step",
    "run",
    "save_snapshot",
    "load_snapshot",
]

INITIAL_KINDS = ("orszag_tang", "random_band_limited", "shear", "single_mode")


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Physical and numerical parameters.

    A zero dissipation exponent is identified with a switched-off channel:
    alpha = 0 forces nu = 0 and beta = 0 forces kappa = 0 on construction.
    """

    nu: float = 1.0
    kappa: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    cfl: float = 0.4
    t_end: float = 1.0
    n: int = 128
    dt_max: float = 0.01

    def __post_init__(self):
        for name in ("nu", "kappa", "alpha", "beta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (np.isfinite(self.cfl) and 0.0 < self.cfl <= 1.0):
            raise ParameterError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ParameterError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not (np.isfinite(self.dt_max) and self.dt_max > 0.0):
            raise ParameterError(f"dt_max must be positive, got {self.dt_max!r}")
        object.__setattr__(self, "cfl", float(self.cfl))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "dt_max", float(self.dt_max))
        get_grid(self.n)  # validates n (integer, even, >= 8)
        if self.alpha == 0.0:
            object.__setattr__(self, "nu", 0.0)
        if self.beta == 0.0:
            object.__setattr__(self, "kappa", 0.0)


@dataclass(frozen=True)
class GmhdState:
    """Spectral state (omega_hat, a_hat) at time t.

    omega_hat and a_hat are the k2 >= 0 half spectra (shape n x (n/2+1), see
    spectral) of the real fields omega and a.  Invariant: both are zero-mean
    and supported inside the grid's 2/3 dealias band, and column 0 is
    Hermitian, c(-k1, 0) = conj(c(k1, 0)).  initial_condition, step and
    load_snapshot enforce this; hand-built states should call project_state.
    """

    grid: Grid
    omega_hat: np.ndarray
    a_hat: np.ndarray
    t: float = 0.0

    def halves(self) -> dict:
        """The half spectra under the names spectral.physical_fields uses."""
        return {"w": self.omega_hat, "a": self.a_hat}


def _project(grid: Grid, c: np.ndarray) -> np.ndarray:
    # the state invariant on one half spectrum: column 0 is the one column
    # inside the 2/3 band holding both members of its conjugate pairs, so it
    # alone needs the Hermitian part
    out = c * grid.half_dealias
    col = out[:, 0]
    out[:, 0] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))  # c(-k1, 0)
    out[0, 0] = 0.0
    return out


def project_state(state: GmhdState) -> GmhdState:
    """Re-impose the state invariant (zero-mean, dealiased, column 0
    Hermitian) on half spectra of shape n x (n/2+1)."""
    g = state.grid
    shape = (g.n, g.half_cols)

    def proj(c):
        c = np.asarray(c, dtype=complex)
        if c.shape != shape:
            raise ParameterError(
                f"state spectrum shape {c.shape} is not the half spectrum "
                f"shape {shape} of grid n={g.n}")
        return _project(g, c)

    return dataclasses.replace(state, omega_hat=proj(state.omega_hat),
                               a_hat=proj(state.a_hat))


@dataclass(frozen=True)
class Tendency:
    """Tendency split into a dealiased nonlinear part and the exactly
    diagonal dissipation multipliers -nu |k|^{2 alpha}, -kappa |k|^{2 beta},
    all on the k2 >= 0 half grid."""

    d_omega: np.ndarray
    d_a: np.ndarray
    lin_omega: np.ndarray
    lin_a: np.ndarray


class BlowUpSignal(RuntimeError):
    """Non-finite values appeared during a step.

    Attributes:
        time: time at which the failure was detected (end of the bad step).
        state: last finite state, from before the failing step.
    """

    def __init__(self, time: float, state: GmhdState):
        super().__init__(f"non-finite state detected at t = {time:.6g}")
        self.time = time
        self.state = state


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def initial_condition(
    kind: str,
    grid: Grid,
    seed: int = 0,
    *,
    k_max: int = 16,
    amplitude: float = 1.0,
    mode: tuple[int, int] = (1, 0),
) -> GmhdState:
    """Build a canonical initial state.

    Kinds:
        orszag_tang: psi0 = -(cos x1 + cos x2), a0 = -cos x2 - cos(2 x1)/2,
            i.e. u0 = (-sin x2, sin x1), b0 = (-sin x2, sin 2 x1).
        random_band_limited: independent Gaussian draws for omega and a with
            support |k| <= k_max and L2 norm = amplitude, deterministic in the
            integer seed >= 0 (two spawned streams of one SeedSequence).
        single_mode: omega = cos(mode . x), no magnetic field; a steady Euler
            flow, handy for time-stepper checks.
        shear: single_mode with mode (0, 1), u = (-sin x2, 0) (omega0 =
            cos x2); mode is ignored.

    Returns:
        GmhdState at t = 0.
    """
    if kind == "shear":
        kind, mode = "single_mode", (0, 1)
    z = np.zeros((grid.n, grid.half_cols), dtype=complex)
    if kind == "orszag_tang":
        w = to_spectral(grid, np.cos(grid.x1) + np.cos(grid.x2))
        a = to_spectral(grid, -np.cos(grid.x2) - 0.5 * np.cos(2.0 * grid.x1))
    elif kind == "random_band_limited":
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
        seq_w, seq_a = np.random.SeedSequence(seed).spawn(2)
        w = random_band_limited_field(grid, k_max, seq_w, amplitude)
        a = random_band_limited_field(grid, k_max, seq_a, amplitude)
    elif kind == "single_mode":
        k1, k2 = (int(mode[0]), int(mode[1]))
        if (k1, k2) == (0, 0) or max(abs(k1), abs(k2)) > grid.dealias_k:
            raise ParameterError(
                f"single_mode wavevector must be nonzero with entries of "
                f"magnitude <= {grid.dealias_k}, got {mode!r}")
        w = to_spectral(grid, np.cos(k1 * grid.x1 + k2 * grid.x2))
        a = z
    else:
        raise ParameterError(
            f"unknown initial-condition kind {kind!r}; expected one of {INITIAL_KINDS}")
    return project_state(GmhdState(grid=grid, omega_hat=w, a_hat=a, t=0.0))


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def _decay_rates(kabs: np.ndarray, coeff: float, order: float) -> np.ndarray:
    # -coeff |k|^order.  A switched-off channel gives exactly 0 even where
    # the power overflows (no 0 * inf = nan); otherwise an overflowing power
    # gives -inf quietly, and exp(-inf dt) = 0 is the exact decay.
    if coeff == 0.0:
        return np.zeros_like(kabs)
    with np.errstate(over="ignore"):
        return -coeff * kabs**order


@functools.lru_cache(maxsize=32)
def _linear_multipliers(n: int, nu: float, alpha: float, kappa: float, beta: float):
    g = get_grid(n)
    lw = _decay_rates(g.half_kabs, nu, 2.0 * alpha)
    la = _decay_rates(g.half_kabs, kappa, 2.0 * beta)
    lw.setflags(write=False)
    la.setflags(write=False)
    return lw, la


def _dealiased(grid: Grid, values: np.ndarray) -> np.ndarray:
    # half spectrum of a pointwise product, projected onto the 2/3 band
    out = to_spectral(grid, values)
    out *= grid.half_dealias
    return out


@functools.lru_cache(maxsize=8)
def _stress_multipliers(n: int):
    # real half-grid symbols of d1^2 - d2^2 and d1 d2, the 2/3 mask folded in
    g = get_grid(n)
    k1, k2 = g.k1.astype(float), g.k2.astype(float)
    m_shear = (k2 * k2 - k1 * k1) * g.half_dealias
    m_normal = -(k1 * k2) * g.half_dealias
    m_shear.setflags(write=False)
    m_normal.setflags(write=False)
    return m_shear, m_normal


def _stage_planes(grid: Grid, halves: dict) -> list:
    # the four planes a tendency is built from, and the CFL speed too
    return physical_fields(grid, halves, "u1", "u2", "b1", "b2")


def _stress_tendency(grid: Grid, u1, u2, b1, b2):
    # 3 real analyses; see the module docstring for the stress identity
    m_shear, m_normal = _stress_multipliers(grid.n)
    dw = to_spectral(grid, b1 * b2 - u1 * u2)
    dw *= m_shear
    normal = to_spectral(grid, (b2 - b1) * (b2 + b1) - (u2 - u1) * (u2 + u1))
    normal *= m_normal
    dw += normal
    da = _dealiased(grid, u2 * b1 - u1 * b2)  # -u.grad a
    da[0, 0] = 0.0
    return dw, da


def _tendency(grid: Grid, w: np.ndarray, a: np.ndarray):
    # 7 real transforms per evaluation: 4 syntheses, 3 analyses
    return _stress_tendency(grid, *_stage_planes(grid, {"w": w, "a": a}))


def nonlinear_rhs(state: GmhdState, params: Params) -> Tendency:
    """Dealiased nonlinear tendency d_omega = -u.grad w + b.grad j,
    d_a = -u.grad a, with the dissipation multipliers attached."""
    g = state.grid
    dw, da = _tendency(g, **state.halves())
    lw, la = _linear_multipliers(g.n, params.nu, params.alpha,
                                 params.kappa, params.beta)
    return Tendency(d_omega=dw, d_a=da, lin_omega=lw, lin_a=la)


# ---------------------------------------------------------------------------
# exact structure identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Normalized residuals of the exact identities behind the a-priori
    estimates; each vanishes analytically, so roundoff reads ~1e-16."""

    current: float                 # Delta(u.grad a) = u.grad j - b.grad w - G
    forcing: float                 # curl(b.grad b) = b.grad j
    self_transport_omega: float    # int (u.grad w) w dx
    self_transport_current: float  # int (u.grad j) j dx
    lorentz_exchange: float        # int (b.grad j) w dx + int (b.grad w) j dx


def structure_identities(state: GmhdState) -> IdentityReport:
    """Evaluate the five exact identities of IdentityReport on one state,
    from one physical_fields call of 17 planes plus 7 real analyses.

    current: the current equation follows exactly from the potential
    equation, so with consistent dealiasing both sides agree to roundoff on
    band-limited states; ||lhs - rhs||_2 / max(1, ||u.grad j||_2).
    forcing: the curl of the Lorentz term in velocity form against b.grad j,
    ||lhs - rhs||_2 / max(1, ||b.grad j||_2).
    The integrals: transport by a divergence-free field creates no L2
    density, and the two magnetic exchange terms cancel pairwise.  The
    integrands are formed pointwise without dealiasing; since 3*dealias_k
    < n, collocation quadrature of the cubic products is exact and only
    floating-point cancellation remains.  Each integral is normalized by its
    Hoelder bound |v|_inf |grad f|_2 |g|_2, which stays at field scale even
    when the integrand itself degenerates (steady states).
    """
    g = state.grid
    (u1, u2, b1, b2, w, j, wx, wy, jx, jy,
     b1_1, b1_2, b2_1, b2_2, u2_1, u1_2, u2_2) = physical_fields(
        g, state.halves(), "u1", "u2", "b1", "b2", "w", "j", "w_1", "w_2",
        "j_1", "j_2", "b1_1", "b1_2", "b2_1", "b2_2", "u2_1", "u1_2", "u2_2")
    u_grad_j = u1 * jx + u2 * jy
    b_grad_w = b1 * wx + b2 * wy
    b_grad_j = b1 * jx + b2 * jy

    # u.grad a = u1 b2 - u2 b1, since grad a = (b2, -b1)
    lhs = -g.half_ksq * _dealiased(g, u1 * b2 - u2 * b1)
    adv_j = _dealiased(g, u_grad_j)
    stretch = _dealiased(g, b_grad_w)
    coupling = _dealiased(  # G(grad u, grad b)
        g, 2.0 * b1_1 * (u2_1 + u1_2) + 2.0 * u2_2 * (b2_1 + b1_2))
    current = (spectral_l2(g, lhs - (adv_j - stretch - coupling))
               / max(1.0, spectral_l2(g, adv_j)))

    f1 = _dealiased(g, b1 * b1_1 + b2 * b1_2)
    f2 = _dealiased(g, b1 * b2_1 + b2 * b2_2)
    rhs = _dealiased(g, b_grad_j)
    forcing = (spectral_l2(g, g.half_ik1 * f2 - g.half_ik2 * f1 - rhs)
               / max(1.0, spectral_l2(g, rhs)))

    tiny = np.finfo(float).tiny
    u_inf = max_magnitude(u1, u2)
    b_inf = max_magnitude(b1, b2)
    w_l2, j_l2 = lp_norm(g, w, 2), lp_norm(g, j, 2)
    gw_l2 = lp_norm(g, magnitude(wx, wy), 2)
    gj_l2 = lp_norm(g, magnitude(jx, jy), 2)
    i_w = abs(g.cell * float(np.sum((u1 * wx + u2 * wy) * w)))
    i_j = abs(g.cell * float(np.sum(u_grad_j * j)))
    pair = g.cell * (float(np.sum(b_grad_j * w)) + float(np.sum(b_grad_w * j)))
    return IdentityReport(
        current=current,
        forcing=forcing,
        self_transport_omega=i_w / max(u_inf * gw_l2 * w_l2, tiny),
        self_transport_current=i_j / max(u_inf * gj_l2 * j_l2, tiny),
        lorentz_exchange=abs(pair) / max(
            b_inf * (gj_l2 * w_l2 + gw_l2 * j_l2), tiny),
    )


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _cfl(grid: Grid, params: Params, u1, u2, b1, b2) -> float:
    # max_magnitude stays finite on a huge but finite state, so dt stays
    # positive
    umax = max_magnitude(u1, u2)
    bmax = max_magnitude(b1, b2)
    speed = max(umax + bmax, 1e-8)
    return min(params.cfl * (2.0 * np.pi / grid.n) / speed, params.dt_max)


def cfl_dt(state: GmhdState, params: Params) -> float:
    """Advective CFL bound cfl * dx / max(|u|_inf + |b|_inf, 1e-8), capped at
    dt_max; the exactly-integrated dissipation never constrains dt."""
    g = state.grid
    return _cfl(g, params, *_stage_planes(g, state.halves()))


def step(state: GmhdState, params: Params, dt: float) -> GmhdState:
    """One integrating-factor RK4 step of size dt.

    The substitution v = exp(-L t) w with L the diagonal dissipation turns
    the stiff system into v' = exp(-L t) N(exp(L t) v); classical RK4 on v,
    written back in w, gives the staged updates below.  Pure linear decay is
    reproduced exactly.  Raises BlowUpSignal when non-finite values appear.
    """
    return _advance(state, params, dt, cfl=False)


def _advance(state: GmhdState, params: Params, dt: float, cfl: bool) -> GmhdState:
    # the one IF-RK4 step; with cfl set, dt is first capped at the CFL bound
    # of the stage-1 planes the step needs anyway (28 transforms, not 32)
    g = state.grid
    with np.errstate(over="ignore", invalid="ignore"):
        planes = _stage_planes(g, state.halves())
        if cfl:
            dt = min(_cfl(g, params, *planes), dt)
        if not (np.isfinite(dt) and dt > 0.0):
            raise ParameterError(f"dt must be positive and finite, got {dt!r}")
        k1w, k1a = _stress_tendency(g, *planes)
    del planes  # not held through stages 2-4

    lw, la = _linear_multipliers(g.n, params.nu, params.alpha,
                                 params.kappa, params.beta)
    ew2 = np.exp(0.5 * dt * lw)
    ea2 = np.exp(0.5 * dt * la)
    ew1 = ew2 * ew2
    ea1 = ea2 * ea2
    w0, a0 = state.omega_hat, state.a_hat

    with np.errstate(over="ignore", invalid="ignore"):
        k2w, k2a = _tendency(g, ew2 * (w0 + 0.5 * dt * k1w),
                             ea2 * (a0 + 0.5 * dt * k1a))
        k3w, k3a = _tendency(g, ew2 * w0 + 0.5 * dt * k2w,
                             ea2 * a0 + 0.5 * dt * k2a)
        k4w, k4a = _tendency(g, ew1 * w0 + dt * ew2 * k3w,
                             ea1 * a0 + dt * ea2 * k3a)
        wn = ew1 * w0 + (dt / 6.0) * (ew1 * k1w + 2.0 * ew2 * (k2w + k3w) + k4w)
        an = ea1 * a0 + (dt / 6.0) * (ea1 * k1a + 2.0 * ea2 * (k2a + k3a) + k4a)
        wn = _project(g, wn)
        an = _project(g, an)

    if not (np.all(np.isfinite(wn)) and np.all(np.isfinite(an))):
        raise BlowUpSignal(state.t + dt, state)
    return GmhdState(grid=g, omega_hat=wn, a_hat=an, t=state.t + dt)


# ---------------------------------------------------------------------------
# trajectory driver
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Trajectory output: diagnostics series, state snapshots, and blow-up info."""

    records: list
    snapshots: list[GmhdState]
    final_state: GmhdState
    blew_up: bool = False
    blow_up_time: float | None = None


def run(
    initial: GmhdState,
    params: Params,
    sample_every: float,
    *,
    fixed_dt: float | None = None,
    snapshot_every: float | None = None,
    p_list: tuple[float, ...] = (4.0, 6.0),
    eps_bhat: float | None = None,
) -> RunResult:
    """Integrate from initial.t to params.t_end, sampling diagnostics.

    Diagnostics records are emitted at t = initial.t + i * sample_every (the
    final one lands exactly on t_end); dt is cfl_dt of the current state,
    taken from the step's own stage-1 planes, unless fixed_dt is given, and
    is shortened to hit each sampling boundary exactly.  States are
    snapshotted at the start and end (plus every snapshot_every time units if
    given).  On blow-up the partial trajectory is returned with
    blew_up = True; the result is deterministic given (initial, params).
    A non-finite initial state is bad input (ParameterError), not a blow-up.
    """
    from .diagnostics import compute_record  # deferred: diagnostics imports Params

    for name in ("omega_hat", "a_hat", "t"):
        if not np.isfinite(getattr(initial, name)).all():
            raise ParameterError(f"initial state {name} is not finite")
    if params.t_end < initial.t:
        raise ParameterError(
            f"t_end = {params.t_end} precedes the initial time {initial.t}")
    if not (np.isfinite(sample_every) and sample_every > 0.0):
        raise ParameterError(f"sample_every must be positive, got {sample_every!r}")
    for name, value in (("fixed_dt", fixed_dt), ("snapshot_every", snapshot_every)):
        if value is not None and not (np.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be positive, got {value!r}")
    if initial.grid.n != params.n:
        raise ParameterError(
            f"state grid n={initial.grid.n} does not match params.n={params.n}")

    state = initial
    first = compute_record(state, params, p_list=p_list, eps_bhat=eps_bhat)
    records = [first]
    snapshots = [state]
    e0 = first.energy
    span = params.t_end - initial.t
    if span == 0.0:
        return RunResult(records=records, snapshots=snapshots, final_state=state)

    m = int(np.ceil(span / sample_every - 1e-9))
    targets = [initial.t + i * sample_every for i in range(1, m)] + [params.t_end]
    next_snapshot = initial.t + snapshot_every if snapshot_every else None

    try:
        for t_target in targets:
            while state.t < t_target - 1e-12:
                if fixed_dt is None:
                    state = _advance(state, params, t_target - state.t, cfl=True)
                else:
                    state = step(state, params, min(fixed_dt, t_target - state.t))
            state = dataclasses.replace(state, t=t_target)  # shed roundoff drift
            records.append(compute_record(state, params, p_list=p_list,
                                          eps_bhat=eps_bhat, prev=records[-1],
                                          e0=e0))
            if next_snapshot is not None and state.t >= next_snapshot - 1e-12:
                snapshots.append(state)
                next_snapshot += snapshot_every
    except BlowUpSignal as sig:
        return RunResult(records=records, snapshots=snapshots,
                         final_state=sig.state, blew_up=True,
                         blow_up_time=sig.time)

    if snapshots[-1] is not state:
        snapshots.append(state)
    return RunResult(records=records, snapshots=snapshots, final_state=state)


# ---------------------------------------------------------------------------
# snapshot persistence
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"GMHD2D\x00\x00"
SNAPSHOT_VERSION = 1


def save_snapshot(path, state: GmhdState, params: Params) -> None:
    """Write a binary state snapshot.

    Layout (little-endian): 8-byte magic "GMHD2D\\0\\0", u32 version = 1,
    u32 n, f64 t, f64 nu kappa alpha beta, then the physical-space omega and
    a fields as two n*n row-major f64 blocks.
    """
    g = state.grid
    w = to_physical(g, state.omega_hat).astype("<f8")
    a = to_physical(g, state.a_hat).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION, g.n))
        fh.write(struct.pack("<5d", state.t, params.nu, params.kappa,
                             params.alpha, params.beta))
        fh.write(np.ascontiguousarray(w).tobytes())
        fh.write(np.ascontiguousarray(a).tobytes())


def load_snapshot(path):
    """Read a snapshot back as (GmhdState, metadata dict).

    Rejects wrong magic bytes and unknown format versions.  The metadata
    dict carries nu/kappa/alpha/beta exactly as stored.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != SNAPSHOT_MAGIC:
        raise ParameterError(f"{path}: not a GMHD2D snapshot (bad magic)")
    if len(blob) < 56:
        raise ParameterError(
            f"{path}: truncated snapshot ({len(blob)} bytes, header is 56)")
    version, n = struct.unpack_from("<II", blob, 8)
    if version != SNAPSHOT_VERSION:
        raise ParameterError(f"{path}: unknown snapshot version {version}")
    t, nu, kappa, alpha, beta = struct.unpack_from("<5d", blob, 16)
    count = n * n
    expected = 56 + 2 * 8 * count
    if len(blob) != expected:  # before get_grid(n), which allocates n x n
        raise ParameterError(
            f"{path}: truncated snapshot ({len(blob)} bytes, expected {expected})")
    g = get_grid(int(n))
    w = np.frombuffer(blob, dtype="<f8", count=count, offset=56).reshape(n, n)
    a = np.frombuffer(blob, dtype="<f8", count=count,
                      offset=56 + 8 * count).reshape(n, n)
    state = project_state(GmhdState(grid=g, omega_hat=to_spectral(g, w),
                                    a_hat=to_spectral(g, a), t=float(t)))
    meta = {"nu": nu, "kappa": kappa, "alpha": alpha, "beta": beta}
    return state, meta
