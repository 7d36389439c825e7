"""How a run is put together: one geometry per run, counted set-up work, and
traceable layers.

A run builds its initial state's geometry once and shares it between the
step, the recorder and the pressures; a public per-state function given
that geometry builds none. The check pass makes a counted number of solves
and spline builds and evaluations, and a volume needs no solve. perfbench's tracer wraps the layers of a run by name,
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
    coho_geometry,
    diagnostics,
    divergence_residual,
    endpoint_taylor_monitor,
    energy,
    homogeneous_geometry,
    numerics,
    pointwise_speed,
    pressure_reconstruct,
    rhs,
    step_rk4,
)
from coho_euler.cli import run_command
from coho_euler.config import build_problem, build_solver_config, check_config
from coho_euler.diagnostics import grid_layout

from bundled import initial_problem, variant

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
FIVE_STEPS = {"solver.t_end": 0.005}  # every bundled dt is 1e-3


# a homogeneous run on an abelian fibre, whose right-hand side is zero
ABELIAN_HOMOGENEOUS = ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": 3}})
# the runs whose fibre has a bracket, so whose right-hand side reads a Gamma
BRACKETED = ("su2_rigid_body", "berger_circle", "boundary_interval")


@pytest.mark.parametrize("name", [*catalog.example_names(), "abelian_homogeneous"])
def test_one_geometry_per_run(monkeypatch, tmp_path, name):
    source, updates = ABELIAN_HOMOGENEOUS if name == "abelian_homogeneous" else (name, {})
    cfg = variant(source, {**updates, **FIVE_STEPS}, parse=True)

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
    # the run's one right-hand side builds Gamma once on a fibre with a
    # bracket (su2) and never on an abelian one, the one-node geometry's included
    assert calls["geometry"] == 1
    assert calls["gamma"] == (1 if name in BRACKETED else 0)


# set-up work of check_config on each example: np.linalg.solve calls (S once
# for the trace identity and once for the grid, then rho's two whitening
# solves), and builds and evaluations of the tabulated profile's one spline
SETUP_WORK = {
    "su2_rigid_body": dict(solve=0, spline=0, spline_eval=0),
    "s3_t2_interval": dict(solve=4, spline=0, spline_eval=0),
    "t3_circle": dict(solve=4, spline=0, spline_eval=0),
    "berger_circle": dict(solve=4, spline=0, spline_eval=0),
    "boundary_interval": dict(solve=4, spline=1, spline_eval=9),
}


@pytest.mark.parametrize("name", catalog.example_names())
def test_setup_work_is_done_once(monkeypatch, name):
    cfg = catalog.load_example(name)
    calls = dict.fromkeys(SETUP_WORK[name], 0)

    def counted(owner, attr, key):
        inner = getattr(owner, attr)

        def call(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, call)

    counted(np.linalg, "solve", "solve")
    counted(coho_geometry, "cubic_spline", "spline")
    counted(numerics.PiecewisePolynomial, "__call__", "spline_eval")
    report, _, geom = check_config(cfg)
    assert report.passed
    assert calls == SETUP_WORK[name]
    if geom.profile is not None:  # a volume is read from the positivity test, without S
        calls["solve"] = 0
        geom.profile.volume_at(np.linspace(0.1, 0.4, 7))
        assert calls["solve"] == 0


@pytest.mark.parametrize("name", catalog.example_names())
def test_snapshot_nodes_are_the_layout_nodes(tmp_path, name):
    # the r column is the geometry's nodes, which grid_layout places: bit for
    # bit on a grid example, and 0 on the homogeneous one
    cfg = variant(name, FIVE_STEPS, parse=True)
    assert run_command(cfg, tmp_path) == 0
    if cfg.kind == "homogeneous":
        want = np.zeros(1)
    else:
        want = grid_layout(build_problem(cfg)[1].profile, cfg.raw["solver"]["N"])[0]
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
