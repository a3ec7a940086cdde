"""Flat key/value run configuration.

The config format is one `key = value` pair per line, `#` starts a comment,
and dotted keys group parameters one level deep:

    # solver parameters
    params.alpha = 1.0
    params.beta = 1.0
    params.n = 128
    params.t_end = 1.0

    # initial data
    initial.kind = orszag_tang
    initial.seed = 0

    sample_every = 0.01
    output_dir = out

The keys are the fields of Params (params.*), InitialSpec (initial.*) and
the rest of RunConfig.  `initial.mode` is a pair "k1,k2"; `p_list` a
comma-separated list of Lebesgue exponents; `eps_bhat` a positive floor or
"auto".  Later assignments override earlier ones; unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from pathlib import Path

from .dynamics import INITIAL_KINDS, Params, initial_condition
from .spectral import ParameterError, get_grid

__all__ = ["InitialSpec", "RunConfig", "parse_run_config", "load_run_config",
           "make_initial_state"]


@dataclasses.dataclass(frozen=True)
class InitialSpec:
    """Which initial state to build and how to seed it."""

    kind: str = "orszag_tang"
    seed: int = 0
    k_max: int = 16
    amplitude: float = 1.0
    mode: tuple[int, int] = (1, 0)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs: parameters, initial data, outputs."""

    params: Params
    initial: InitialSpec
    sample_every: float = 0.01
    snapshot_every: float | None = None
    fixed_dt: float | None = None
    output_dir: Path = Path("gmhd2d_out")
    p_list: tuple[float, ...] = (4.0, 6.0)
    eps_bhat: float | None = None


def _parse_float(key, value):
    try:
        out = float(value)
    except ValueError:
        raise ParameterError(f"{key} must be a number, got {value!r}") from None
    if math.isnan(out):
        raise ParameterError(f"{key} must not be NaN")
    return out


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"{key} must be an integer, got {value!r}") from None


def _parse_positive(key, value):
    out = _parse_float(key, value)
    if not (math.isfinite(out) and out > 0.0):
        raise ParameterError(f"{key} must be positive and finite")
    return out


def _parse_mode(key, value):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ParameterError(f"{key} must be a pair 'k1,k2'")
    return (_parse_int(key, parts[0]), _parse_int(key, parts[1]))


def _parse_p_list(key, value):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ParameterError(f"{key} must list at least one exponent")
    ps = tuple(_parse_float(key, p) for p in parts)
    if any(p < 1.0 for p in ps):
        raise ParameterError(f"{key} entries must be >= 1")
    return ps


def _parse_eps(key, value):
    if value == "auto":
        return None
    return _parse_positive(key, value)


_PARSERS = {
    **{f"params.{k}": _parse_float
       for k in ("nu", "kappa", "alpha", "beta", "cfl", "t_end", "dt_max")},
    "params.n": _parse_int,
    "initial.kind": lambda k, v: v,
    "initial.seed": _parse_int,
    "initial.k_max": _parse_int,
    "initial.amplitude": _parse_float,
    "initial.mode": _parse_mode,
    "sample_every": _parse_positive,
    "snapshot_every": _parse_positive,
    "fixed_dt": _parse_positive,
    "output_dir": lambda k, v: Path(v),
    "p_list": _parse_p_list,
    "eps_bhat": _parse_eps,
}


def parse_run_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Raises ParameterError on unknown keys, malformed lines, or values the
    solver would reject.
    """
    groups: dict = {"params": {}, "initial": {}, "": {}}  # by key prefix
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ParameterError(f"unknown config key: {key}")
        group, _, name = key.rpartition(".")
        groups[group][name] = _PARSERS[key](key, value)

    params = Params(**groups["params"])
    if params.n & (params.n - 1):
        warnings.warn(f"n = {params.n} is not a power of two; transforms "
                      "will be slower", RuntimeWarning, stacklevel=2)
    initial = InitialSpec(**groups["initial"])
    if initial.kind not in INITIAL_KINDS:
        raise ParameterError(
            f"initial.kind must be one of {', '.join(INITIAL_KINDS)}")
    return RunConfig(params=params, initial=initial, **groups[""])


def load_run_config(path) -> RunConfig:
    """Read and parse a config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    return parse_run_config(text)


def make_initial_state(config: RunConfig):
    """Build the configured initial state on the configured grid."""
    grid = get_grid(config.params.n)
    return initial_condition(config.initial.kind, grid,
                             seed=config.initial.seed,
                             k_max=config.initial.k_max,
                             amplitude=config.initial.amplitude,
                             mode=config.initial.mode)
