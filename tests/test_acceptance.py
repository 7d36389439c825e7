"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Shared long runs are session-scoped fixtures.
"""

import json
import subprocess
import sys
import time


import numpy as np
import pytest

from coho_euler import (
    CircleProblem,
    HomogeneousProblem,
    IntervalProblem,
    SolverConfig,
    berger_circle,
    catalog,
    integrate,
    warped_torus,
)
from coho_euler.coho_geometry import RoundS3T2Profile, trace_identity_probes
from coho_euler.config import build_problem, build_solver_config, parse_config_dict
from coho_euler.reduced_euler import trajectory_pressures

from oracles import coordinate_divergence_fd, euler_top_elliptic


def criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description} ({detail})"


def load_modified(name, **solver_updates):
    cfg = catalog.load_example(name)
    raw = json.loads(json.dumps(cfg.raw))
    cadence = solver_updates.pop("_diag_cadence", None)
    raw["solver"].update(solver_updates)
    if cadence is not None:
        raw.setdefault("output", {})["diagnostics_cadence"] = cadence
    return parse_config_dict(raw, cfg.source_path)


@pytest.fixture(scope="session")
def su2_run():
    cfg = catalog.load_example("su2_rigid_body")
    problem = build_problem(cfg)
    solver = build_solver_config(cfg)
    solver.snapshot_cadence = 100  # states every 0.1 time units
    t0 = time.perf_counter()
    snapshots, report = integrate(problem, solver)
    runtime = time.perf_counter() - t0
    return snapshots, report, runtime


@pytest.fixture(scope="session")
def berger_run():
    cfg = catalog.load_example("berger_circle")
    problem = build_problem(cfg)
    snapshots, report = integrate(problem, build_solver_config(cfg))
    return problem, snapshots, report


def test_criterion_1_rigid_body_conservation(su2_run):
    _, report, runtime = su2_run
    quad = np.asarray(report.series["max_speed"]) ** 2  # gram(X, X)
    drift = float(np.max(np.abs(quad - quad[0])))
    criterion(
        1,
        "rigid-body speed conservation over t_end=100 at dt=1e-3",
        drift < 1e-8 and runtime < 10.0,
        f"drift={drift:.2e}, runtime={runtime:.1f}s",
    )


def test_criterion_2_euler_top_oracle(su2_run):
    snapshots, _, _ = su2_run
    t = np.array([s.t for s in snapshots])
    oracle = euler_top_elliptic((1.0, 2.0, 3.0), np.ones(3) / np.sqrt(6.0), t)
    dev = float(np.max(np.abs(np.stack([s.v for s in snapshots]) - oracle)))
    criterion(
        2,
        "trajectory matches the closed-form (Jacobi elliptic) Euler top on [0, 100]",
        len(t) >= 1000 and abs(t[-1] - 100.0) < 1e-9 and dev < 1e-10,
        f"max deviation={dev:.2e} over {len(t)} states",
    )


def test_criterion_3_interval_steadiness():
    cfg = catalog.load_example("s3_t2_interval")
    problem = build_problem(cfg)
    snapshots, report = integrate(problem, build_solver_config(cfg))
    v0 = snapshots[0].v
    v_dev = max(float(np.max(np.abs(s.v - v0))) for s in snapshots)
    speed_drift = float(np.max(report.series["speed_drift"]))
    pressure = trajectory_pressures(problem, snapshots)[-1]
    grid = snapshots[-1].grid
    want = -(1.0**2 - 2.0**2) * np.sin(grid) ** 2 / 2.0
    want -= want[0]
    p_err = float(np.max(np.abs(pressure.samples - want)))
    criterion(
        3,
        "interval flow steady with pointwise speeds conserved and closed-form pressure",
        v_dev < 1e-10 and speed_drift < 1e-10 and p_err < 1e-8,
        f"state dev={v_dev:.2e}, speed drift={speed_drift:.2e}, pressure err={p_err:.2e}",
    )


def test_criterion_4_convention_resolution():
    cfg = catalog.load_example("boundary_interval")
    tabulated = build_problem(cfg).profile
    profiles = [
        RoundS3T2Profile(),
        warped_torus(1.0, [[0.0, 0.2, -0.1], [0.1, 0.1, 0.05]]),
        berger_circle(1.0, [[0.0, 0.04, 0.0], [0.26, -0.03, 0.02], [0.47, 0.03, -0.02]]),
        tabulated,
    ]
    eps = 1e-5
    worst_trace = 0.0
    for prof in profiles:
        probes = trace_identity_probes(prof)
        assert probes.size == 512
        for r in probes:
            lnv = np.log(prof.volume_at(r + eps)) - np.log(prof.volume_at(r - eps))
            worst_trace = max(worst_trace, abs(prof.mean_curvature_at(r) + lnv / (2 * eps)))
    # coordinate-oracle divergence of c h0 dr on the circle families
    worst_div = 0.0
    for prof in profiles[1:3]:
        for r in np.linspace(0.01, 0.99, 64):
            worst_div = max(worst_div, abs(coordinate_divergence_fd(prof, prof.h0_at, r)))
    criterion(
        4,
        "no-half mean-curvature convention: trace identity and solenoidal h0",
        worst_trace < 1e-6 and worst_div < 1e-8,
        f"trace residual={worst_trace:.2e}, divergence={worst_div:.2e}",
    )


def test_criterion_5_transport_exactness():
    cfg = catalog.load_example("t3_circle")
    problem = build_problem(cfg)
    snapshots, report = integrate(problem, build_solver_config(cfg))
    err = float(np.max(np.abs(snapshots[-1].v - snapshots[0].v)))
    drift = report.summary["energy"]["max_rel_drift"]
    criterion(
        5,
        "flat-torus transport returns after one period; energy conserved",
        abs(snapshots[-1].t - 1.0) < 1e-12 and err < 1e-5 and drift < 1e-6,
        f"return error={err:.2e}, energy drift={drift:.2e}",
    )


def test_criterion_6_amplitude_bound(berger_run):
    _, _, report = berger_run
    c = np.asarray(report.series["c"])
    margin = float(np.max(c**2 - report.c_bound))
    p_res = float(np.max(report.series["p_periodicity"]))
    criterion(
        6,
        "horizontal amplitude bound c^2 <= 2E0 / int h0^2 vol and periodic pressure",
        margin <= 1e-8 and p_res < 1e-8,
        f"worst margin={margin:.2e}, pressure residual={p_res:.2e}",
    )


def test_criterion_7_max_principle_envelope(berger_run):
    _, _, report = berger_run
    ratio = report.summary["max_principle"]["max_ratio"]
    criterion(
        7,
        "vertical energy stays within 5% of the exponential envelope",
        ratio <= 1.05,
        f"max ratio={ratio:.4f}",
    )


def test_criterion_8_global_regularity_witness():
    details = []
    ok = True
    for name in catalog.example_names():
        cfg = load_modified(name, t_end=100.0, _diag_cadence=10)
        problem = build_problem(cfg)
        _, report = integrate(problem, build_solver_config(cfg))
        growth = report.summary["c1_monitor"]["growth_factor"]
        ok &= report.failure is None and growth < 10.0
        details.append(f"{name}:{growth:.2f}")
    criterion(
        8,
        "C1 monitor below 10x its initial value over t_end=100 on all bundled examples",
        ok,
        " ".join(details),
    )


def _final_state(problem, dt, t_end):
    snaps, _ = integrate(problem, SolverConfig(dt=dt, t_end=t_end, snapshot_cadence=10**9))
    s = snaps[-1]
    return (0.0 if s.c is None else s.c), s.v


def _observed_order(make_problem, dts, t_end):
    finals = []
    for dt in dts:
        c, v = _final_state(make_problem(), dt, t_end)
        finals.append(np.concatenate([[c], v.ravel()]))
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    return np.log2(e1 / e2)


def test_criterion_9_rk4_self_convergence():
    su2_cfg = catalog.load_example("su2_rigid_body")
    boundary_cfg = catalog.load_example("boundary_interval")
    berger_cfg = catalog.load_example("berger_circle")
    orders = {
        "homogeneous": _observed_order(
            lambda: build_problem(su2_cfg), (0.05, 0.025, 0.0125), 1.0
        ),
        "interval": _observed_order(
            lambda: build_problem(boundary_cfg), (0.04, 0.02, 0.01), 1.0
        ),
        "circle": _observed_order(
            lambda: build_problem(berger_cfg), (0.004, 0.002, 0.001), 0.5
        ),
    }
    criterion(
        9,
        "Richardson triplets show RK4 order >= 3.9 on every problem kind",
        all(order >= 3.9 for order in orders.values()),
        " ".join(f"{k}:{v:.2f}" for k, v in orders.items()),
    )


def test_criterion_10_equivariance():
    # reflection r -> pi/2 - r with fibre swap on the round 3-sphere
    prof = RoundS3T2Profile()
    n = 64
    from coho_euler.reduced_euler import interval_grid

    grid = interval_grid(prof, n)
    v0 = np.column_stack([np.cos(2 * grid), np.cos(4 * grid)])

    def reflect(v):
        return v[::-1, ::-1].copy()

    solver = SolverConfig(dt=1e-3, t_end=10.0)
    probA = IntervalProblem(prof, v0)
    snapsA, _ = integrate(probA, solver)
    probB = IntervalProblem(prof, reflect(v0))
    snapsB, _ = integrate(probB, solver)
    dev_reflect = float(np.max(np.abs(reflect(snapsA[-1].v) - snapsB[-1].v)))
    # the reflected pressure agrees up to the gauge constant; the two
    # cumulative-integration routes differ by quadrature error only
    pA = trajectory_pressures(probA, snapsA)[-1].samples
    pB = trajectory_pressures(probB, snapsB)[-1].samples
    p_map = pA[::-1] - pB
    dev_pressure = float(np.max(np.abs(p_map - p_map[0])))

    # half-period translation on the flat 3-torus
    cfg = load_modified("t3_circle", t_end=10.0)
    probC = build_problem(cfg)
    shift = probC.v0.shape[0] // 2

    def translate(v):
        return np.roll(v, shift, axis=0)

    snapsC, _ = integrate(probC, build_solver_config(cfg))
    probD = CircleProblem(probC.profile, probC.c0, translate(probC.v0))
    snapsD, _ = integrate(probD, build_solver_config(cfg))
    dev_translate = float(np.max(np.abs(translate(snapsC[-1].v) - snapsD[-1].v)))

    criterion(
        10,
        "isometries commute with 10-second integrations",
        dev_reflect < 1e-10 and dev_pressure < 1e-5 and dev_translate < 1e-10,
        f"reflection={dev_reflect:.2e}, pressure={dev_pressure:.2e}, "
        f"translation={dev_translate:.2e}",
    )


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def test_criterion_11_run_determinism(tmp_path):
    ok = True
    details = []
    for name in catalog.example_names():
        cfg = catalog.load_example(name)
        raw = json.loads(json.dumps(cfg.raw))
        raw["solver"]["t_end"] = 0.05
        if raw.get("profile", {}).get("family") == "tabulated":
            raw["profile"]["csv"] = str(cfg.source_path.parent / raw["profile"]["csv"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        trees = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            res = subprocess.run(
                [sys.executable, "-m", "coho_euler.cli", "run",
                 "--config", str(path), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert res.returncode == 0, f"{name}: {res.stderr}"
            trees.append(_tree_bytes(out))
        same = bool(trees[0]) and trees[0] == trees[1]
        ok &= same
        details.append(f"{name}:{len(trees[0])} files {'=' if same else '!'}")
    criterion(
        11,
        "byte-identical artifacts from two fresh runs of every example",
        ok,
        ", ".join(details),
    )


def test_criterion_12_spatial_self_convergence():
    """berger_circle to t = 1 at N = 32, 64, 128 against N = 256, on shared nodes.

    The circle is the only kind with a spatial error to converge: interval
    runs are node-decoupled (their right-hand side is -Gamma(v, v) node by
    node), so their states carry no stencil error at all. dt = 5e-4 keeps
    the RK4 error well below the N = 128 spatial error.
    """
    finals = {}
    for n in (32, 64, 128, 256):
        cfg = load_modified("berger_circle", N=n, dt=5e-4, t_end=1.0, _diag_cadence=2000)
        snaps, report = integrate(build_problem(cfg), build_solver_config(cfg))
        assert report.failure is None and snaps[-1].t == 1.0
        finals[n] = snaps[-1]
    ref = finals[256]
    errors = {}
    for n in (32, 64, 128):
        state = finals[n]
        shared = ref.v[:: 256 // n]  # node k of N is node k 256/N of the reference
        errors[n] = max(abs(state.c - ref.c), float(np.max(np.abs(state.v - shared))))
        print(f"  N = {n:3d}   error vs N = 256: {errors[n]:.3e}")
    orders = [np.log2(errors[n] / errors[2 * n]) for n in (32, 64)]
    for n, order in zip((64, 128), orders):
        print(f"  N = {n:3d}   observed order {order:.2f}")
    criterion(
        12,
        "fourth-order spatial self-convergence of the coupled circle system",
        min(orders) >= 3.8,
        " ".join(f"{n}:{errors[n]:.2e}" for n in errors)
        + " orders " + " ".join(f"{o:.2f}" for o in orders),
    )
