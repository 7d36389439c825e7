"""How a run is put together: one geometry per run, and traceable layers.

A run builds its initial state's geometry once and shares it between the
step, the recorder and the pressures; a public per-state function given
that geometry builds none. perfbench's tracer wraps the layers of a run by name,
so a rename or a fused-away layer must fail here rather than turn that
layer silently into "absent" in the trace.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from coho_euler import (
    c1_monitor,
    catalog,
    diagnostics,
    divergence_residual,
    endpoint_taylor_monitor,
    energy,
    homogeneous_geometry,
    pointwise_speed,
    pressure_reconstruct,
    rhs,
    step_rk4,
)
from coho_euler.cli import run_command
from coho_euler.config import build_problem, build_solver_config
from coho_euler.diagnostics import grid_layout

from bundled import initial_problem, variant

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
FIVE_STEPS = {"solver.t_end": 0.005}  # every bundled dt is 1e-3


@pytest.mark.parametrize("name", catalog.example_names())
def test_one_geometry_per_run(monkeypatch, tmp_path, name):
    cfg = variant(name, FIVE_STEPS, parse=True)

    calls = {"geometry": 0, "gamma": 0}
    init = diagnostics.GridGeometry.__init__
    tensors = homogeneous_geometry.connection_tensors

    def counted_init(self, *args, **kwargs):
        calls["geometry"] += 1
        init(self, *args, **kwargs)

    def counted_tensors(*args, **kwargs):
        calls["gamma"] += 1
        return tensors(*args, **kwargs)

    monkeypatch.setattr(diagnostics.GridGeometry, "__init__", counted_init)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("coho_euler") and getattr(module, "connection_tensors",
                                                         None) is tensors:
            monkeypatch.setattr(module, "connection_tensors", counted_tensors)

    assert run_command(cfg, tmp_path / "out") == 0
    # the step reads the run's one geometry's Gamma, built once on a fibre
    # with a bracket (su2) and never on an abelian one
    assert calls["geometry"] == 1
    assert calls["gamma"] == (0 if name in ("t3_circle", "s3_t2_interval") else 1)


@pytest.mark.parametrize("name", catalog.example_names())
def test_snapshot_nodes_are_the_layout_nodes(tmp_path, name):
    # the r column is the geometry's nodes, which grid_layout places: bit for
    # bit on a grid example, and 0 on the homogeneous one
    cfg = variant(name, FIVE_STEPS, parse=True)
    assert run_command(cfg, tmp_path) == 0
    if cfg.kind == "homogeneous":
        want = np.zeros(1)
    else:
        want = grid_layout(build_problem(cfg)[1].profile, cfg.solver["N"])[0]
    files = sorted((tmp_path / "snapshots").glob("*.csv"))
    assert len(files) == 2
    for path in files:
        r = np.array([float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]])
        assert r.tobytes() == want.tobytes(), path.name


def test_perfbench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        (layer, module_name, path)
        for layer, targets in child.TARGETS.items()
        for module_name, path, *_ in targets
        if child.resolve(module_name, path) is None
    ]
    assert missing == []
    assert child.resolve("coho_euler.reduced_euler", "integrate") is not None


def public_calls(state, geom, config):
    """Each public per-state function on a run's initial state, by name."""
    calls = {
        "energy": lambda g: energy(state, g),
        "pointwise_speed": lambda g: pointwise_speed(state, g),
        "c1_monitor": lambda g: c1_monitor(state, g),
        "divergence_residual": lambda g: divergence_residual(state, g),
        "rhs": lambda g: rhs(state, g),
        "step_rk4": lambda g: step_rk4(state, g, config),
        "pressure_reconstruct": lambda g: pressure_reconstruct(state, g),
    }
    if geom.kind == "homogeneous":
        return calls
    h = np.linspace(0.5, 1.5, len(state.v))
    calls["pointwise_speed_j"] = lambda g: pointwise_speed(state, g, j=3)
    calls["divergence_residual_h"] = lambda g: divergence_residual(state, g, h_samples=h)
    if geom.singular_windows:
        calls["endpoint_taylor_monitor"] = lambda g: endpoint_taylor_monitor([state] * 3, g)
    return calls


def bits(x):
    """A result as nested bytes, so that equal bits compare equal."""
    if dataclasses.is_dataclass(x):
        return bits(vars(x))
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [bits(v) for v in x]
    if x is None:
        return None
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name", catalog.example_names())
def test_public_calls_reuse_a_built_geometry(monkeypatch, name):
    cfg = catalog.load_example(name)
    state, geom, source = initial_problem(name)
    calls = public_calls(state, geom, build_solver_config(cfg))
    want = {key: bits(call(source)) for key, call in calls.items()}

    builds = []
    init = diagnostics.GridGeometry.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(diagnostics.GridGeometry, "__init__", counted_init)
    for key, call in calls.items():
        assert bits(call(geom)) == want[key], key
    assert builds == []
