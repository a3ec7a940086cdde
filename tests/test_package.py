"""The package surface: every public name has one home, the __all__ of the
submodule that defines it, and the package itself re-exports none."""

import importlib
import inspect
import warnings
from pathlib import Path

import pytest

import gmhd2d

SUBMODULES = ("spectral", "dynamics", "diagnostics", "analysis",
              "inequalities", "config", "cli")


@pytest.fixture(params=SUBMODULES)
def module(request):
    return importlib.import_module(f"gmhd2d.{request.param}")


def test_exports_resolve_in_their_module(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, f"{name} is imported"


def test_no_name_is_exported_twice():
    homes = {}
    for short in SUBMODULES:
        for name in importlib.import_module(f"gmhd2d.{short}").__all__:
            homes.setdefault(name, []).append(short)
    assert {name: m for name, m in homes.items() if len(m) > 1} == {}


def test_package_exposes_only_submodules_and_version():
    assert {n for n in vars(gmhd2d) if not n.startswith("_")} == set(SUBMODULES)
    assert isinstance(gmhd2d.__version__, str)


def test_version_is_declared_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        # setuptools 65 warns that [tool.setuptools] support is beta
        warnings.simplefilter("ignore", UserWarning)
        project = pyprojecttoml.read_configuration(path)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == gmhd2d.__version__
