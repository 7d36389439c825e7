"""The package import and every `coho-euler run` load no module they do not use,
and the package binds each of its functions to one public name.

Watched: scipy (only `validate` may import it), hashlib with OpenSSL's
`_hashlib` (the config hash uses the built-in SHA-256), `numpy.ma` and
`numpy.random`. No run loads any of them, `random_fourier` initial data
included: its seeded draws come from `numerics.seeded_uniform`, not from
`numpy.random`, whose import of `secrets` would bring in `hmac` and hashlib.

Each import check runs in a fresh interpreter, since this test process may
already have imported any of them.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coho_euler
from coho_euler import catalog

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import coho_euler, coho_euler.cli
WATCHED = ("scipy", "hashlib", "_hashlib", "numpy.ma", "numpy.random")
loaded = lambda: sorted(
    m for m in sys.modules if any(m == w or m.startswith(w + ".") for w in WATCHED)
)
after_import = loaded()
if len(sys.argv) > 1:
    code = coho_euler.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
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
    return json.loads(out.stdout.strip().splitlines()[-1])


def short_config(tmp_path, name, t_end):
    src = catalog.example_path(name)
    raw = json.loads(src.read_text())
    raw["solver"]["t_end"] = t_end
    if "csv" in raw.get("profile", {}):
        raw["profile"]["csv"] = str(src.parent / raw["profile"]["csv"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


def test_package_import_loads_no_scipy():
    assert watched_modules()["after_import"] == []


@pytest.mark.parametrize("name", catalog.example_names())
def test_run_loads_no_scipy(tmp_path, name):
    # analytic and tabulated profiles and seeded random_fourier data alike
    path = short_config(tmp_path, name, 0.01)
    mods = watched_modules(path, tmp_path / "out")
    assert mods == {"after_import": [], "after_run": []}


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
