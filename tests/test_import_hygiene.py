"""The package import and every `coho-euler run` and `validate` load no module
they do not use, the package depends on numpy alone, and it binds each of its
functions to one public name.

Watched: scipy (a test reference only: no module of the package imports it,
and numpy is its one runtime dependency), hashlib with OpenSSL's `_hashlib`
(the config hash uses the built-in SHA-256), `numpy.ma` and `numpy.random`.
No run or `validate` loads any of them, `random_fourier` initial data
included: its seeded draws come from `numerics.seeded_uniform`, not from
`numpy.random`, whose import of `secrets` would bring in `hmac` and hashlib.

Each import check runs in a fresh interpreter, since this test process may
already have imported any of them.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coho_euler
from coho_euler import catalog

from bundled import variant

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = """
import json, sys
import coho_euler, coho_euler.cli
WATCHED = ("scipy", "hashlib", "_hashlib", "numpy.ma", "numpy.random")
loaded = lambda: sorted(
    m for m in sys.modules if any(m == w or m.startswith(w + ".") for w in WATCHED)
)
after_import = loaded()
if len(sys.argv) > 1:
    code = coho_euler.cli.main(sys.argv[1:])
    assert code == 0, code
print(json.dumps({"after_import": after_import, "after_run": loaded()}))
"""


def watched_modules(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stderr == "", out.stderr  # no warning reaches a user's terminal
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_scipy():
    assert watched_modules()["after_import"] == []


@pytest.mark.parametrize("name", catalog.example_names())
def test_run_loads_no_scipy(tmp_path, name):
    # analytic and tabulated profiles and seeded random_fourier data alike
    path = variant(name, {"solver.t_end": 0.01}, write_to=tmp_path)
    mods = watched_modules("run", "--config", path, "--out", tmp_path / "out")
    assert mods == {"after_import": [], "after_run": []}


@pytest.mark.parametrize("name", catalog.example_names())
def test_validate_loads_no_scipy(tmp_path, name):
    # nor any other watched module, as for run
    path = variant(name, {"solver.t_end": 0.01}, write_to=tmp_path)
    mods = watched_modules("validate", "--config", path)
    assert mods == {"after_import": [], "after_run": []}


def test_no_module_imports_scipy():
    # lazy imports inside functions included: a process probe only sees the
    # paths that the bundled examples reach
    found = []
    for path in sorted((SRC / "coho_euler").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_one_public_name_per_function():
    # a second public name bound to a package function, in the package or in
    # any of its modules or classes, is an alias: one concept, two names
    modules = [coho_euler] + [importlib.import_module(f"coho_euler.{info.name}")
                              for info in pkgutil.iter_modules(coho_euler.__path__)]
    namespaces = [vars(m) for m in modules]
    namespaces += [vars(obj) for ns in namespaces for obj in ns.values()
                   if inspect.isclass(obj) and obj.__module__.startswith("coho_euler")]
    names = {}
    for ns in namespaces:
        for name, obj in ns.items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__.startswith("coho_euler")):
                names.setdefault(obj, set()).add(name)
    assert len(modules) > 10
    assert [sorted(n) for n in names.values() if len(n) > 1] == []


def test_no_unused_imports():
    # a name a module imports must be read in it, in code or in an annotation;
    # the package's __init__ imports to re-export
    unused = []
    for path in sorted((SRC / "coho_euler").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


# the public per-state functions README lists, and the run engine's two
PER_STATE = {
    "diagnostics": ("energy", "pointwise_speed", "c1_monitor", "divergence_residual",
                    "endpoint_taylor_monitor"),
    "reduced_euler": ("rhs", "step_rk4", "pressure_reconstruct", "integrate",
                      "trajectory_pressures"),
}


def test_per_state_functions_take_a_state_and_its_geometry():
    # a run is an initial state on a geometry: every function of a state or a
    # trajectory takes it first and its geometry second, never a wrapper of both
    wrong = []
    for module_name, names in PER_STATE.items():
        module = importlib.import_module(f"coho_euler.{module_name}")
        for name in names:
            first, second = list(inspect.signature(getattr(module, name)).parameters)[:2]
            if first not in ("state", "trajectory") or second != "geometry":
                wrong.append(f"{module_name}.{name}({first}, {second}, ...)")
    assert wrong == []
