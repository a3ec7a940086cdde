"""The package surface: every public name has one home, the __all__ of the
submodule that defines it, and a reader outside its definition; the package
itself re-exports none."""

import ast
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


def _magnitude_forms(path):
    # np.hypot calls, and np.sqrt calls whose argument holds a product or power
    for node in ast.walk(ast.parse(path.read_text())):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id == "np"):
            continue
        if func.attr == "hypot" or func.attr == "sqrt" and any(
                isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Mult, ast.Pow))
                for arg in node.args for sub in ast.walk(arg)):
            yield f"{path.name}:{node.lineno} np.{func.attr}"


def test_pointwise_magnitude_has_one_home():
    # |v| of point values is spectral.magnitude; a hand-rolled np.hypot or
    # np.sqrt of squares elsewhere is a second form of it
    src = Path(gmhd2d.__file__).parent
    found = [form for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
             for form in _magnitude_forms(path)]
    assert found == []


# Public names that no src module and no acceptance test reads, kept for the
# reason given.  Every other __all__ name needs a reader.
UNREAD_BUT_KEPT = {
    "direction_field_norms": "the benchmark times it (perfbench/layers.py), "
                             "and the record's oracle test uses it",
    "nonlinear_rhs": "the benchmark's set-up builds the dissipation "
                     "multipliers with it (perfbench/workloads.py)",
    "cfl_dt": "the benchmark times it (perfbench/layers.py)",
    "read_csv": "reads back the diagnostics.csv that cmd_run writes; the "
                "benchmark's sampled workload checks its output with it",
    "load_snapshot": "reads back the snapshots that cmd_run writes; the "
                     "benchmark's sampled workload checks its output with it",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(scope):
    # the nodes of a scope's own body, not those of the scopes nested in it
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def _binds(scope):
    # the names a function, lambda or comprehension binds for itself:
    # parameters, stored names, nested definitions, imports, except targets
    names = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _global_loads(node, local=frozenset()):
    # the names node loads from module scope: every loaded ast.Name that no
    # enclosing function, lambda or comprehension binds for itself
    if isinstance(node, _SCOPES):
        local = local | _binds(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in local:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _global_loads(child, local)


def _package_module(node):
    # the package module an ImportFrom names: "spectral" for "from .spectral"
    # or "from gmhd2d.spectral", "" for "from ." or "from gmhd2d", else None
    dotted = node.module or ""
    if node.level == 0:
        if dotted != "gmhd2d" and not dotted.startswith("gmhd2d."):
            return None
        dotted = dotted[len("gmhd2d."):]
    return dotted


def _reads(source, home=None):
    """The (module, name) bindings of the package that source reads: a name
    imported from its module (in a function too), alias.name for an
    imported package module alias, and, when source is the package module
    home, a module-scope name that a statement other than its definition
    loads.  Docstrings and __all__ strings are constants: they read nothing."""
    tree = ast.parse(source)
    reads, modules = set(), {}  # modules: local name -> package module
    for node in ast.walk(tree):
        target = (_package_module(node) if isinstance(node, ast.ImportFrom)
                  else None)
        if target is not None:
            for alias in node.names:
                if target:
                    reads.add((target, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules.update(
                (alias.asname, alias.name[len("gmhd2d."):])
                for alias in node.names
                if alias.asname and alias.name.startswith("gmhd2d."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    if home is not None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defines = {stmt.name}
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                defines = {t.id for t in targets if isinstance(t, ast.Name)}
            reads.update((home, name) for name in _global_loads(stmt)
                         if name not in defines)
    return reads


def _exports(source):
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    return []


def _unread_exports(sources, acceptance):
    """(module, name) for each __all__ name of sources (module name -> source
    text) that nothing reads outside its own definition, neither a src module
    nor the acceptance battery."""
    reads = _reads(acceptance).union(
        *(_reads(text, home) for home, text in sources.items()))
    return [(home, name) for home, text in sources.items()
            for name in _exports(text) if (home, name) not in reads]


def _package_sources():
    # every module of the package, __main__ included
    src = Path(gmhd2d.__file__).parent
    return ({path.stem: path.read_text() for path in sorted(src.glob("*.py"))},
            (Path(__file__).parent / "test_acceptance.py").read_text())


def test_every_public_name_has_a_reader():
    sources, acceptance = _package_sources()
    unread = _unread_exports(sources, acceptance)
    assert sorted(name for _, name in unread) == sorted(UNREAD_BUT_KEPT)


def _unread_with(home, name, definition):
    # the guard's findings on the package with a public `name`, defined by
    # the source text `definition`, added to module home
    sources, acceptance = _package_sources()
    sources[home] = sources[home].replace(
        '__all__ = [', f'__all__ = [\n    "{name}",', 1) + "\n\n" + definition
    return _unread_exports(sources, acceptance)


def test_a_restored_test_only_helper_is_caught():
    # evaluate_norm was a one-term wrapper of the norm table that only tests
    # called; put back with its __all__ entry, the guard must flag it
    assert ("inequalities", "evaluate_norm") in _unread_with(
        "inequalities", "evaluate_norm",
        "def evaluate_norm(grid, f_hat, term):\n"
        "    return _norm_table(grid, f_hat, (term,))[term]\n")


def test_a_same_spelled_attribute_is_not_a_reader():
    # corpus.fields and spectral's local variable fields read other
    # bindings, so a public spectral.fields has no reader
    assert ("spectral", "fields") in _unread_with(
        "spectral", "fields", "def fields(grid):\n    return grid.n\n")
