"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Shared long runs are session-scoped fixtures.
"""

import subprocess
import sys
import time


import numpy as np
import pytest

from coho_euler import (
    ReducedState,
    SolverConfig,
    berger_circle,
    catalog,
    integrate,
    warped_torus,
)
from coho_euler.coho_geometry import RoundS3T2Profile, trace_identity_probes
from coho_euler.config import build_problem, build_solver_config
from coho_euler.diagnostics import grid_layout
from coho_euler.reduced_euler import pressure_reconstruct, trajectory_pressures

from bundled import variant
from oracles import casimir, coordinate_divergence_fd, euler_top_elliptic
from recorded_rows import collect_rows


def criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description} ({detail})"


@pytest.fixture(scope="session")
def su2_run():
    cfg = catalog.load_example("su2_rigid_body")
    state, geom = build_problem(cfg)
    solver = build_solver_config(cfg)
    solver.snapshot_cadence = 100  # states every 0.1 time units
    t0 = time.perf_counter()
    snapshots, report, series = collect_rows(state, geom, solver)
    runtime = time.perf_counter() - t0
    return geom, snapshots, report, series, runtime


@pytest.fixture(scope="session")
def berger_run():
    cfg = catalog.load_example("berger_circle")
    state, geom = build_problem(cfg)
    snapshots, report, series = collect_rows(state, geom, build_solver_config(cfg))
    return geom, snapshots, report, series


@pytest.fixture(scope="session")
def long_runs(su2_run):
    """Criterion 8's t_end = 100 runs, name -> (geom, snapshots, report), rows
    every 10 steps; the su2 entry is su2_run, which records every row."""
    runs = {"su2_rigid_body": su2_run[:3]}
    for name in catalog.example_names():
        if name not in runs:
            cfg = variant(name, {"solver.t_end": 100.0, "output.diagnostics_cadence": 10},
                          parse=True)
            state, geom = build_problem(cfg)
            runs[name] = geom, *integrate(state, geom, build_solver_config(cfg))
    return runs


def test_criterion_1_rigid_body_conservation(su2_run):
    _, _, _, series, runtime = su2_run
    quad = np.asarray(series["max_speed"]) ** 2  # gram(X, X)
    drift = float(np.max(np.abs(quad - quad[0])))
    criterion(
        1,
        "rigid-body speed conservation over t_end=100 at dt=1e-3",
        drift < 1e-8 and runtime < 10.0,
        f"drift={drift:.2e}, runtime={runtime:.1f}s",
    )


def test_criterion_2_euler_top_oracle(su2_run):
    snapshots = su2_run[1]
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
    state, geom = build_problem(cfg)
    snapshots, _, series = collect_rows(state, geom, build_solver_config(cfg))
    v0 = snapshots[0].v
    v_dev = max(float(np.max(np.abs(s.v - v0))) for s in snapshots)
    speed_drift = float(np.max(series["speed_drift"]))
    pressure = trajectory_pressures(snapshots, geom)[-1]
    grid = geom.r
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
    tabulated = build_problem(cfg)[1].profile
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
    snapshots, report = integrate(*build_problem(cfg), build_solver_config(cfg))
    err = float(np.max(np.abs(snapshots[-1].v - snapshots[0].v)))
    drift = report.summary["energy"]["max_rel_drift"]
    criterion(
        5,
        "flat-torus transport returns after one period; energy conserved",
        abs(snapshots[-1].t - 1.0) < 1e-12 and err < 1e-5 and drift < 1e-6,
        f"return error={err:.2e}, energy drift={drift:.2e}",
    )


def test_criterion_6_amplitude_bound(berger_run):
    _, _, report, series = berger_run
    c = np.asarray(series["c"])
    margin = float(np.max(c**2 - report.c_bound))
    p_res = float(np.max(series["p_periodicity"]))
    criterion(
        6,
        "horizontal amplitude bound c^2 <= 2E0 / int h0^2 vol and periodic pressure",
        margin <= 1e-8 and p_res < 1e-8,
        f"worst margin={margin:.2e}, pressure residual={p_res:.2e}",
    )


def test_criterion_7_max_principle_envelope(berger_run):
    _, _, report, _ = berger_run
    ratio = report.summary["max_principle"]["max_ratio"]
    criterion(
        7,
        "vertical energy stays within 5% of the exponential envelope",
        ratio <= 1.05,
        f"max ratio={ratio:.4f}",
    )


def test_criterion_8_global_regularity_witness(long_runs):
    details = []
    ok = True
    for name, (_, _, report) in long_runs.items():
        growth = report.summary["c1_monitor"]["growth_factor"]
        ok &= report.failure is None and growth < 10.0
        details.append(f"{name}:{growth:.2f}")
    criterion(
        8,
        "C1 monitor below 10x its initial value over t_end=100 on all bundled examples",
        ok,
        " ".join(details),
    )


def _final_state(start, dt, t_end):
    """The last state of a run from ``start``, an (initial state, geometry) pair."""
    snaps, _ = integrate(*start, SolverConfig(dt=dt, t_end=t_end, snapshot_cadence=10**9))
    s = snaps[-1]
    return s.c, s.v


def _observed_order(make_start, dts, t_end):
    finals = []
    for dt in dts:
        c, v = _final_state(make_start(), dt, t_end)
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


def test_criterion_10_equivariance(long_runs):
    # reflection r -> pi/2 - r with fibre swap on the round 3-sphere
    prof = RoundS3T2Profile()
    n = 64
    grid = grid_layout(prof, n)[0]
    v0 = np.column_stack([np.cos(2 * grid), np.cos(4 * grid)])

    def reflect(v):
        return v[::-1, ::-1].copy()

    solver = SolverConfig(dt=1e-3, t_end=10.0)
    snapsA, _ = integrate(ReducedState(0.0, 0.0, v0), prof, solver)
    snapsB, _ = integrate(ReducedState(0.0, 0.0, reflect(v0)), prof, solver)
    dev_reflect = float(np.max(np.abs(reflect(snapsA[-1].v) - snapsB[-1].v)))
    # the reflected pressure agrees up to the gauge constant; the two
    # cumulative-integration routes differ by quadrature error only
    pA = trajectory_pressures(snapsA, prof)[-1].samples
    pB = trajectory_pressures(snapsB, prof)[-1].samples
    p_map = pA[::-1] - pB
    dev_pressure = float(np.max(np.abs(p_map - p_map[0])))

    # half-period translation on the flat 3-torus; the untranslated run is
    # criterion 8's, whose states are snapshot every 1000 steps
    cfg = variant("t3_circle", {"solver.t_end": 10.0}, parse=True)
    stateC, geom = build_problem(cfg)
    shift = stateC.v.shape[0] // 2

    def translate(v):
        return np.roll(v, shift, axis=0)

    stateD = ReducedState(0.0, stateC.c, translate(stateC.v))
    finalC = long_runs["t3_circle"][1][10]
    assert finalC.t == 10.0
    snapsD, _ = integrate(stateD, geom, build_solver_config(cfg))
    dev_translate = float(np.max(np.abs(translate(finalC.v) - snapsD[-1].v)))

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
        path = variant(name, {"solver.t_end": 0.05}, write_to=tmp_path)
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

    Each final state's pressure converges too, on the same shared nodes: the
    gauge p(r_0) = 0 holds at node 0 for every N. Measured errors 1.363e-07,
    9.780e-09 and 5.744e-10 at a pressure scale of 2.43e-3, orders 3.80 and
    4.09, against 3.95 and 4.08 for v; so the pressure has its own threshold.
    """
    finals, pressures = {}, {}
    for n in (32, 64, 128, 256):
        cfg = variant("berger_circle", {"solver.N": n, "solver.dt": 5e-4, "solver.t_end": 1.0,
                                        "output.diagnostics_cadence": 2000}, parse=True)
        state, geom = build_problem(cfg)
        snaps, report = integrate(state, geom, build_solver_config(cfg))
        assert report.failure is None and snaps[-1].t == 1.0
        finals[n] = snaps[-1]
        pressures[n] = pressure_reconstruct(snaps[-1], geom).samples
    ref = finals[256]
    errors, p_errors = {}, {}
    for n in (32, 64, 128):
        state = finals[n]
        shared = ref.v[:: 256 // n]  # node k of N is node k 256/N of the reference
        errors[n] = max(abs(state.c - ref.c), float(np.max(np.abs(state.v - shared))))
        p_errors[n] = float(np.max(np.abs(pressures[n] - pressures[256][:: 256 // n])))
        print(f"  N = {n:3d}   error vs N = 256: v {errors[n]:.3e}  p {p_errors[n]:.3e}")
    orders = [np.log2(errors[n] / errors[2 * n]) for n in (32, 64)]
    p_orders = [np.log2(p_errors[n] / p_errors[2 * n]) for n in (32, 64)]
    for n, order, p_order in zip((64, 128), orders, p_orders):
        print(f"  N = {n:3d}   observed order v {order:.2f}  p {p_order:.2f}")
    criterion(
        12,
        "fourth-order spatial self-convergence of the coupled circle system and its pressure",
        min(orders) >= 3.8 and min(p_orders) >= 3.6,
        " ".join(f"{n}:{errors[n]:.2e}" for n in errors)
        + " orders " + " ".join(f"{o:.2f}" for o in orders)
        + "; pressure " + " ".join(f"{n}:{p_errors[n]:.2e}" for n in p_errors)
        + " orders " + " ".join(f"{o:.2f}" for o in p_orders),
    )


def _casimirs(geom, snapshots):
    """(gram, C): g at the nodes, from g_r or the orbit's metric, and the
    Casimir at each node of each snapshot, (T, n)."""
    gram = geom.gram if geom.profile is None else geom.profile.gram_at(geom.r)
    vs = np.stack([np.reshape(s.v, (geom.n, geom.d)) for s in snapshots])
    return gram, casimir(gram, geom.split.bracket_on_m(), vs)


def test_criterion_14_casimir_transport(berger_run, long_runs):
    """The coadjoint Casimir C of m = g v is carried by the flow.

    Energy and pointwise speeds stay put under a rotation of v that is skew
    in g; C does not. C is conserved at every node of an interval or a single
    orbit (largest drift measured: 8.5e-14 on boundary_interval), and its
    integral over a circle: measured drifts 7.5e-9 on berger_circle at
    t = 10 and 8.5e-11 on t3_circle at t = 100, under tolerances of about
    10x those.
    """
    pointwise = {}
    for name in ("su2_rigid_body", "s3_t2_interval", "boundary_interval"):
        geom, snapshots, _ = long_runs[name]
        C = _casimirs(geom, snapshots)[1]
        pointwise[name] = float(np.max(np.abs(C - C[0]) / np.abs(C[0])))
    integral = {}
    for name, (geom, snapshots) in {"berger_circle": berger_run[:2],
                                    "t3_circle": long_runs["t3_circle"][:2]}.items():
        gram, C = _casimirs(geom, snapshots)
        total = C @ np.sqrt(np.linalg.det(gram))  # uniform nodes: the periodic trapezoid rule
        integral[name] = float(np.max(np.abs(total - total[0])) / abs(total[0]))
    criterion(
        14,
        "Casimir transport: C conserved pointwise off the circle, int C vol dr on it",
        max(pointwise.values()) < 1e-12 and integral["berger_circle"] < 1e-7
        and integral["t3_circle"] < 1e-9,
        " ".join(f"{k}:{v:.2e}" for k, v in {**pointwise, **integral}.items()),
    )
