"""Mutation guard: `gmhd2d verify` fails on a broken nonlinear term.

dynamics._stress_tendency is the solver's one implementation of the
nonlinear terms, and the identities suite checks its output.  Each mutant
below replaces it without a source edit; the suite must then exit 1 through
the residual row that sees the defect.
"""

import numpy as np
import pytest

from gmhd2d import dynamics
from gmhd2d.cli import cmd_verify

_SOLVER = dynamics._stress_tendency


def _lorentz_doubled(grid, p1, p2, a1, a2):
    # the b (x) b stress counted twice: add the tendency of b alone, with
    # the psi partials zeroed (u = 0)
    dw, da = _SOLVER(grid, p1, p2, a1, a2)
    zero = np.zeros_like(p1)
    return dw + _SOLVER(grid, zero, zero, a1, a2)[0], da


def _advection_flipped(grid, *planes):
    dw, da = _SOLVER(grid, *planes)
    return dw, -da


def _advection_dropped(grid, *planes):
    dw, da = _SOLVER(grid, *planes)
    return dw, np.zeros_like(da)


def test_unmutated_solver_passes(tmp_path, capsys):
    assert cmd_verify("identities", 2, tmp_path / "id.csv") == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("mutant, row", [
    (_lorentz_doubled, "forcing"),
    (_advection_flipped, "current"),
    (_advection_dropped, "current"),
], ids=["lorentz_doubled", "advection_flipped", "advection_dropped"])
def test_identities_suite_fails(tmp_path, capsys, monkeypatch, mutant, row):
    monkeypatch.setattr(dynamics, "_stress_tendency", mutant)
    assert cmd_verify("identities", 2, tmp_path / "id.csv") == 1
    out = capsys.readouterr().out
    assert f"FAIL {row}_identity_residual[seed=1]" in out
