"""Layer microbenchmarks and exact transform counts (the traced run only).

Times one call each of to_physical, nonlinear_rhs, step, cfl_dt,
compute_record and direction_field_norms at n = 64, 128 and 256, after a
warm-up call, as the median over repeated calls.  Then, with the tracer's
transform counters on, counts the transforms in one step, one tendency and
one compute_record at n = 256; those counts do not depend on n or on timing,
so they must repeat exactly.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from gmhd2d import diagnostics, dynamics, spectral

SIZES = (64, 128, 256)
LAYERS = (
    ("spectral.to_physical",
     lambda c: spectral.to_physical(c.grid, c.state.omega_hat)),
    ("dynamics.nonlinear_rhs", lambda c: dynamics.nonlinear_rhs(c.state, c.params)),
    ("dynamics.step", lambda c: dynamics.step(c.state, c.params, 1e-4)),
    ("dynamics.cfl_dt", lambda c: dynamics.cfl_dt(c.state, c.params)),
    ("diagnostics.compute_record",
     lambda c: diagnostics.compute_record(c.state, c.params)),
    ("diagnostics.direction_field_norms",
     lambda c: diagnostics.direction_field_norms(c.grid, c.b1, c.b2)),
)
PROBE_N = 256
MIN_REPEATS = 3
MAX_REPEATS = 200


class _Cell:
    """The inputs of every layer call at one grid size."""

    def __init__(self, n: int, seed: int):
        self.grid = spectral.get_grid(n)
        self.params = dynamics.Params(nu=0.1, kappa=0.1, alpha=1.0, beta=1.0,
                                      n=n)
        self.state = dynamics.initial_condition(
            "random_band_limited", self.grid, seed=seed, k_max=16)
        # b = perp-grad a from the physical potential, independent of how the
        # package stores its spectra
        a_hat = np.fft.fft2(spectral.to_physical(self.grid, self.state.a_hat))
        k = np.fft.fftfreq(n, 1.0 / n)
        self.b1 = np.real(np.fft.ifft2(-1j * k[None, :] * a_hat))
        self.b2 = np.real(np.fft.ifft2(1j * k[:, None] * a_hat))


def setup(seed: int) -> dict:
    return {n: _Cell(n, seed) for n in SIZES}


def time_layers(cells: dict, budget_s: float) -> dict:
    """Median milliseconds per call for every (layer, n) cell."""
    share = budget_s / (len(LAYERS) * len(cells))
    out = {}
    for n, cell in cells.items():
        for name, call in LAYERS:
            call(cell)  # warm-up
            times = []
            start = time.perf_counter()
            while len(times) < MIN_REPEATS or (
                    len(times) < MAX_REPEATS
                    and time.perf_counter() - start < share):
                t0 = time.perf_counter()
                call(cell)
                times.append(time.perf_counter() - t0)
            out[f"{name}.ms.n{n}"] = 1e3 * statistics.median(times)
    return out


def count_transforms(cells: dict, tracer) -> dict:
    """Transform calls, 2-D planes and computed bytes in single layer calls."""
    cell = cells[PROBE_N]
    out = {}
    for label, name in (("step", "dynamics.step"),
                        ("tendency", "dynamics.nonlinear_rhs"),
                        ("record", "diagnostics.compute_record")):
        call = dict(LAYERS)[name]
        tracer.reset_counters()
        call(cell)
        out[label] = {"calls": tracer.fft_calls, "planes": tracer.fft_planes,
                      "bytes_computed": tracer.fft_bytes}
    tracer.reset_counters()
    return out
