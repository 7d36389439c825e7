import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from coho_euler import (
    InputError,
    InvariantMetric,
    ReducedState,
    SolverConfig,
    berger_circle,
    c1_monitor,
    conservation_report,
    divergence_residual,
    endpoint_taylor_monitor,
    energy,
    integrate,
    pointwise_speed,
    pressure_reconstruct,
    rhs,
    step_rk4,
    warped_torus,
)
from coho_euler import LieAlgebraSpec, abelian, catalog, diagnostics, reductive_split, su2
from coho_euler.config import build_problem, build_solver_config
from coho_euler.coho_geometry import BOUNDARY, CIRCLE, INTERVAL, OrbitSpace, TabulatedProfile
from coho_euler.diagnostics import (
    GRID_NODES,
    PERIODICITY_TOL,
    GridGeometry,
    RunRecorder,
    chunk_rows,
    grid_layout,
    grid_rule,
    state_geometry,
    write_diagnostics_csv,
    write_snapshot_csv,
)
from coho_euler.errors import ConfigError

from bundled import initial_problem, variant
from oracles import conservation_summary
from recorded_rows import collect_rows, concatenate


def interval_state(values, n=128):
    return ReducedState(0.0, 0.0, np.tile(values, (n, 1)))


def test_grid_geometry_rho_matches_generalized_eigh(coupled_tabulated):
    prof = coupled_tabulated("interval")
    geom = GridGeometry(prof, 64)
    want = np.array(
        [
            np.max(np.abs(eigh(-0.5 * gp, g, eigvals_only=True)))
            for g, gp in zip(geom.gram, geom.gram_prime)
        ]
    )
    assert np.max(np.abs(geom.gram[:, 0, 1])) > 0.1  # the pencil is not diagonal
    assert np.max(np.abs(geom.rho - want) / want) <= 1e-13


@pytest.mark.parametrize("kind", ["circle", "singular_interval", "boundary_interval"])
def test_grid_rule_is_one_rule(kind, flat_torus, round_s3_t2, coupled_tabulated):
    profile = {"circle": flat_torus, "singular_interval": round_s3_t2,
               "boundary_interval": coupled_tabulated(INTERVAL)}[kind]
    low, even = GRID_NODES[profile.orbit_space.kind]
    GridGeometry(profile, low)

    # one node count below the rule, refused alike by every entry point
    few = low - 2 if even else low - 1
    v0 = np.zeros((few, profile.dim))
    messages = set()
    for build in (lambda: grid_layout(profile, few),
                  lambda: GridGeometry(profile, few),
                  lambda: integrate(ReducedState(0.0, 0.0, v0), profile,
                                    SolverConfig(dt=1e-3, t_end=1e-3))):
        with pytest.raises(InputError) as exc:
            build()
        messages.add(str(exc.value))
    assert messages == {f"{grid_rule(profile.orbit_space.kind)}, got {few}"}


def test_energy_zero_state(flat_torus):
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)))
    assert energy(state, flat_torus) == 0.0


def test_energy_flat_torus_pure_horizontal(flat_torus):
    state = ReducedState(0.0, 1.0, np.zeros((64, 2)))
    assert abs(energy(state, flat_torus) - 0.5) < 1e-14


def test_energy_round_s3_t2_quadrature(round_s3_t2):
    # 2E = int_0^{pi/2} cos^2 r * (sin r cos r) dr = 1/4
    state = interval_state([1.0, 0.0], n=128)
    assert abs(2.0 * energy(state, round_s3_t2) - 0.25) < 1e-8


def test_energy_homogeneous(rigid_body_metric):
    state = ReducedState(0.0, 0.0, np.array([1.0, 0.0, 1.0]))
    assert abs(energy(state, rigid_body_metric) - 0.5 * (1.0 + 3.0)) < 1e-15


def test_pointwise_speed_examples(round_s3_t2, flat_torus):
    zero = interval_state([0.0, 0.0], n=16)
    assert pointwise_speed(zero, round_s3_t2, 3) == 0.0

    # N = 127 interior nodes puts a node exactly at pi/4
    a, b = 1.5, -0.4
    state = interval_state([a, b], n=127)
    j = 63
    assert abs(grid_layout(round_s3_t2, 127)[0][j] - np.pi / 4) < 1e-12
    want = np.sqrt((a * a + b * b) / 2.0)
    assert abs(pointwise_speed(state, round_s3_t2, j) - want) < 1e-12

    horiz = ReducedState(0.0, 2.0, np.zeros((32, 2)))
    assert abs(pointwise_speed(horiz, flat_torus, 5) - 2.0) < 1e-15


def test_pointwise_speed_index_error(flat_torus):
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)))
    with pytest.raises(InputError):
        pointwise_speed(state, flat_torus, 32)


def test_c1_monitor_zero_state(round_s3_t2):
    state = interval_state([0.0, 0.0], n=16)
    assert c1_monitor(state, round_s3_t2) == 0.0


def test_c1_monitor_constant_on_steady_run(round_s3_t2):
    state = interval_state([1.0, 2.0], n=64)
    series = collect_rows(state, round_s3_t2, SolverConfig(dt=1e-2, t_end=1.0))[2]
    c1 = np.asarray(series["c1_monitor"])
    assert np.max(np.abs(c1 - c1[0])) < 1e-10


def test_c1_monitor_constant_under_transport(flat_torus):
    n = 128
    grid = grid_layout(flat_torus, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = np.sin(2 * np.pi * grid)
    state = ReducedState(0.0, 1.0, v0)
    series = collect_rows(state, flat_torus, SolverConfig(dt=1e-3, t_end=1.0))[2]
    c1 = np.asarray(series["c1_monitor"])
    # sup-over-grid of a sliding profile wobbles by O((pi/N)^2) between nodes
    assert np.max(np.abs(c1 - c1[0])) / c1[0] < 1e-3
    # after one full period the phase realigns with the grid exactly
    assert abs(c1[-1] - c1[0]) / c1[0] < 1e-6


def test_divergence_residual_interval(round_s3_t2):
    state = interval_state([0.7, -1.1], n=64)
    assert divergence_residual(state, round_s3_t2) < 1e-10


def test_divergence_residual_circle_h0():
    # bundled-scale profile: the 4th-order stencil floor sits well under 1e-8
    wt = warped_torus(1.0, [[0.0, 0.08, -0.05]])
    state = ReducedState(0.0, 1.0, np.zeros((256, 1)))
    assert divergence_residual(state, wt) < 1e-8


def test_divergence_residual_detects_constant_h():
    # constant horizontal amplitude on a variable-volume circle: not solenoidal
    wt = warped_torus(1.0, [[0.0, 0.8, 0.0]])
    state = ReducedState(0.0, 0.0, np.zeros((256, 1)))
    res = divergence_residual(state, wt, h_samples=np.ones(256))
    assert res > 0.1


def test_endpoint_taylor_steady(round_s3_t2):
    state = interval_state([1.0, 2.0], n=64)
    snaps, _ = integrate(state, round_s3_t2, SolverConfig(dt=1e-2, t_end=1.0))
    mon = endpoint_taylor_monitor(snaps, round_s3_t2)
    assert np.max(np.abs(mon["alpha"] - mon["alpha"][0])) < 1e-12
    assert np.max(np.abs(mon["beta"] - mon["beta"][0])) < 1e-12
    assert mon["bounded"]


def test_endpoint_taylor_zero_state(round_s3_t2):
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)))
    mon = endpoint_taylor_monitor([state], round_s3_t2)
    assert np.max(np.abs(mon["alpha"])) == 0.0
    assert np.max(np.abs(mon["beta"])) == 0.0
    assert np.max(mon["misfit"]) == 0.0


def test_endpoint_taylor_flags_odd_parity(round_s3_t2):
    grid = grid_layout(round_s3_t2, 128)[0]
    v = np.zeros((128, 2))
    v[:, 0] = grid  # v_1 = r: odd about the left singular endpoint
    state = ReducedState(0.0, 0.0, v)
    mon = endpoint_taylor_monitor([state], round_s3_t2)
    assert mon["misfit"][0, 0] > 1e-3  # 3.0e-3 at N = 128
    # constants stay far below it
    flat = ReducedState(0.0, 0.0, np.tile([1.0, 2.0], (128, 1)))
    mon2 = endpoint_taylor_monitor([flat], round_s3_t2)
    assert np.max(mon2["misfit"]) < 1e-12


def test_endpoint_taylor_needs_singular_endpoint(flat_torus):
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)))
    with pytest.raises(ConfigError):
        endpoint_taylor_monitor([state], flat_torus)


def test_conservation_report_steady_run(round_s3_t2):
    state = interval_state([1.0, 2.0], n=32)
    _, report = integrate(state, round_s3_t2, SolverConfig(dt=1e-2, t_end=1.0))
    s = report.summary
    assert s["energy"]["max_rel_drift"] == 0.0
    assert s["pointwise_speed"]["max_drift"] == 0.0
    assert s["endpoint_taylor"]["ok"]
    assert s["all_ok"]


def test_conservation_report_flags_fault_injection(flat_torus, dcdt_fault):
    n = 32
    grid = grid_layout(flat_torus, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.1 * np.sin(2 * np.pi * grid)
    dcdt_fault(1.0)
    _, report = integrate(ReducedState(0.0, 0.5, v0), flat_torus,
                          SolverConfig(dt=1e-3, t_end=0.1))
    s = report.summary
    assert report.failure is not None
    assert not s["pressure_periodicity"]["ok"]
    assert not s["all_ok"]


def test_divergence_invariant_under_integration():
    # solenoidality is structural: the residual must not drift with time
    wt = warped_torus(1.0, [[0.0, 0.06, -0.03], [0.1, -0.04, 0.02]])
    n = 128
    grid = grid_layout(wt, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.2 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.1 * np.cos(2 * np.pi * grid)
    state = ReducedState(0.0, 0.4, v0)
    series = collect_rows(state, wt, SolverConfig(dt=2e-3, t_end=1.0))[2]
    res = np.asarray(series["div_residual"])
    assert np.max(res) < 1e-8
    assert np.max(np.abs(res - res[0])) < 1e-8


def _assert_rows_match_public(s, snaps, geometry, rows):
    """Recorded rows equal the public per-state functions on the same states, bit for bit."""
    for j in rows:
        state = snaps[j]
        assert state.t == s["t"][j]
        assert state.c == s["c"][j]
        assert energy(state, geometry) == s["E"][j]
        assert pointwise_speed(state, geometry) == s["max_speed"][j]
        assert c1_monitor(state, geometry) == s["c1_monitor"][j]
        assert divergence_residual(state, geometry) == s["div_residual"][j]


def test_recorder_rows_match_public_diagnostics(rigid_body_metric, round_s3_t2):
    # runs and the public one-shot functions share one evaluator: equal bits,
    # whether a row sat inside a full chunk, at either side of a chunk
    # boundary or in the final partial chunk
    wt = warped_torus(1.0, [[0.0, 0.04, -0.02], [0.1, 0.02, 0.01]])
    n = 64
    grid = grid_layout(wt, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.2 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.1 + 0.05 * np.cos(2 * np.pi * grid)
    v0_interval = np.tile([0.7, -0.4], (64, 1))
    v0_interval[:, 0] += 0.1 * np.cos(2 * grid_layout(round_s3_t2, 64)[0])
    cases = [
        (ReducedState(0.0, 0.3, v0), wt, n * 2),
        (ReducedState(0.0, 0.0, v0_interval), round_s3_t2, 64 * 2),
        (ReducedState(0.0, 0.0, [0.0, 1.0, 1.0]), rigid_body_metric, 3),
    ]
    for state, geometry, state_values in cases:
        chunk = chunk_rows(state_values)
        dt = 2e-3  # a chunk and a half of steps, then the initial row
        cfg = SolverConfig(dt=dt, t_end=(chunk + chunk // 2) * dt, snapshot_cadence=1)
        snaps, _, series = collect_rows(state, geometry, cfg)
        n_rows = len(series["t"])
        assert n_rows == cfg.n_records() == len(snaps)
        assert chunk < n_rows < 2 * chunk  # one full chunk, then a partial one
        _assert_rows_match_public(series, snaps, geometry, [0, chunk // 2, chunk - 1, chunk,
                                                            n_rows - 2, n_rows - 1])


@pytest.mark.parametrize("name", ["t3_circle", "berger_circle", "s3_t2_interval",
                                  "boundary_interval"])
def test_rows_bits_do_not_depend_on_stack_size(name):
    # a row evaluated inside a stack of T states equals the row of that
    # state alone, for every T the recorder can hand over
    state, geom = build_problem(catalog.load_example(name))
    rng = np.random.default_rng(1)
    chunk = chunk_rows(geom.n * geom.d)
    vs = state.v * (1.0 + 0.1 * rng.standard_normal((chunk, geom.n, geom.d)))
    cs = rng.uniform(-1.0, 1.0, chunk)
    alone = [geom.rows(cs[t : t + 1], vs[t : t + 1]) for t in range(chunk)]
    for T in sorted({2, 3, 5, chunk - 1, chunk}):
        stacked = geom.rows(cs[:T], vs[:T])
        for key, val in stacked.items():
            for t in range(T):
                assert np.array_equal(val[t], alone[t][key][0]), (T, key, t)


@pytest.mark.parametrize("kind", ["cfl", "pressure_periodicity"])
def test_failure_mid_chunk_leaves_every_row_evaluated(monkeypatch, dcdt_fault, kind):
    # the run fails at row 13 with chunks of 8 rows: one full chunk, then a
    # partial one that finish() must still evaluate
    monkeypatch.setattr(diagnostics, "CHUNK_ROWS", 8)
    wt = warped_torus(1.0, [[0.0, 0.05, -0.03], [0.1, 0.03, 0.02]])
    n, dt, k = 32, 1e-3, 13
    grid = grid_layout(wt, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.3 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.2 * np.cos(2 * np.pi * grid)
    state = ReducedState(0.0, 0.4, v0)
    dcdt_fault(1e-12)
    _, ref, ref_series = collect_rows(state, wt, SolverConfig(dt=dt, t_end=20 * dt))
    assert ref.failure is None
    if kind == "cfl":
        # |c| still grows here: a guard between rows k - 1 and k trips at row k
        c = np.abs(ref_series["c"])
        assert c[k] > np.max(c[:k])
        geom = GridGeometry(wt, n)
        guard = 0.5 * (np.max(c[:k]) + c[k]) * dt * geom.h0_max / geom.dr
        cfg = SolverConfig(dt=dt, t_end=20 * dt, cfl_guard=guard, snapshot_cadence=1)
    else:
        # the periodicity residual is linear in the offset and still grows
        # here: a scaled offset first crosses the tolerance at row k
        p = ref_series["p_periodicity"]
        assert p[k] > np.max(p[:k]) * (1.0 + 1e-6)
        offset = 1e-12 * PERIODICITY_TOL / np.sqrt(np.max(p[:k]) * p[k])
        dcdt_fault(offset)
        cfg = SolverConfig(dt=dt, t_end=20 * dt, snapshot_cadence=1)
    snaps, report, s = collect_rows(state, wt, cfg)
    assert report.failure["kind"] == kind
    assert {len(val) for val in s.values()} == {k + 1}
    assert s["t"][-1] == k * dt == report.failure["t"]
    assert report.failure["step"] == k  # steps taken to the failing state
    _assert_rows_match_public(s, snaps, wt, range(k + 1))
    if kind == "cfl":
        # the same trajectory as the reference run, row for row
        for key, val in s.items():
            assert np.array_equal(val, ref_series[key][: k + 1]), key
    else:
        assert s["p_periodicity"][-1] == report.failure["residual"] > PERIODICITY_TOL
        assert np.max(s["p_periodicity"][:-1]) <= PERIODICITY_TOL
    _assert_summary_matches_oracle(report, s)


def _assert_summary_matches_oracle(report, series):
    """The folded summary equals the array-form oracle over every row, as JSON."""
    want = conservation_summary(series, report.kind, report.c_bound, report.failure)
    assert report.rows == len(series["t"])
    assert json.dumps(report.summary, sort_keys=True) == json.dumps(want, sort_keys=True)


def _short_example(name, steps=20):
    """A bundled example cut to ``steps`` steps: (state, geometry, solver config)."""
    cfg = variant(name, {"solver.t_end": steps * 1e-3}, parse=True)  # every bundled dt is 1e-3
    return *build_problem(cfg), build_solver_config(cfg)


FAILING_RUNS = {
    "cfl": lambda ft, rb: (ReducedState(0.0, 100.0, np.zeros((32, 2))), ft,
                           SolverConfig(dt=1e-3, t_end=1.0)),
    "pressure_periodicity": lambda ft, rb: (ReducedState(0.0, 0.5, np.zeros((32, 2))), ft,
                                            SolverConfig(dt=1e-3, t_end=1.0)),
    "non_finite": lambda ft, rb: (ReducedState(0.0, 0.0, [1e200, 1e200, 0.0]), rb,
                                  SolverConfig(dt=1e-3, t_end=1.0)),
    # the four stages are finite and their combination overflows
    "overflowing_combine": lambda ft, rb: (ReducedState(0.0, 0.0, [1e154, 1e154, 1e154]), rb,
                                           SolverConfig(dt=1e-300, t_end=1e-300)),
}


@pytest.mark.parametrize("chunk", [3, 8, diagnostics.CHUNK_ROWS])
@pytest.mark.parametrize("case", catalog.example_names() + list(FAILING_RUNS))
def test_folded_summary_matches_array_oracle(monkeypatch, flat_torus, rigid_body_metric,
                                             dcdt_fault, case, chunk):
    # the summary is folded a chunk at a time; NaN and inf fold as np.max
    # over the whole series takes them
    monkeypatch.setattr(diagnostics, "CHUNK_ROWS", chunk)
    if case in FAILING_RUNS:
        if case == "pressure_periodicity":
            dcdt_fault(1.0)
        state, geometry, config = FAILING_RUNS[case](flat_torus, rigid_body_metric)
    else:
        state, geometry, config = _short_example(case)
    _, report, series = collect_rows(state, geometry, config)
    assert (report.failure is None) == (case not in FAILING_RUNS)
    _assert_summary_matches_oracle(report, series)


def test_folded_summary_takes_overflow_in_a_later_chunk(monkeypatch, rigid_body_metric):
    # finite rows in the first chunk, overflowing squares in later ones
    monkeypatch.setattr(diagnostics, "CHUNK_ROWS", 3)
    chunks = []
    recorder = RunRecorder(GridGeometry(rigid_body_metric), chunks.append)
    for i in range(7):  # |v| up to 2e300: the squares overflow from the fifth row on
        recorder.record(0.1 * i, 0.0, np.array([1.0, -2.0, 0.5]) * 10.0 ** (50 * i))
    report = recorder.finish()
    conservation_report(report)
    series = concatenate(chunks)
    assert np.isinf(report.summary["energy"]["max_rel_drift"])
    _assert_summary_matches_oracle(report, series)


def test_rest_state_circle_run_reads_max_ratio_one(flat_torus):
    # v = 0 with c != 0 stays at rest: the maximum principle reads 1, not a ratio
    state = ReducedState(0.0, 0.5, np.zeros((32, 2)))
    _, report, series = collect_rows(state, flat_torus, SolverConfig(dt=1e-3, t_end=2e-2))
    assert np.max(series["max_vertical"]) == 0.0
    assert report.summary["max_principle"] == {"max_ratio": 1.0, "tol": 1.05, "ok": True}
    assert report.summary["all_ok"]
    _assert_summary_matches_oracle(report, series)


def test_rest_state_that_moves_reads_max_ratio_inf(monkeypatch, flat_torus):
    # rows fed to the recorder directly: at rest in the first chunk, moving
    # in a later one, so the fold sees the first row's rest in a later chunk
    monkeypatch.setattr(diagnostics, "CHUNK_ROWS", 3)
    chunks = []
    recorder = RunRecorder(GridGeometry(flat_torus, 32), chunks.append)
    for i in range(7):  # v = 0 in the first four rows, then 1e-10 on every node
        recorder.record(0.1 * i, 0.5, np.full((32, 2), 1e-10 if i > 3 else 0.0))
    report = recorder.finish()
    conservation_report(report)
    assert report.summary["max_principle"] == {"max_ratio": np.inf, "tol": 1.05, "ok": False}
    assert not report.summary["all_ok"]
    _assert_summary_matches_oracle(report, concatenate(chunks))


def test_recorder_memory_does_not_grow_with_rows(rigid_body_metric):
    # the recorder holds one chunk of rows whatever the run's length; the
    # 15000 more rows of the longer run, at 11 float64 values each, would
    # take 1.3 MB if they were kept
    state, geom = ReducedState(0.0, 0.0, [0.4, 0.4, 0.4]), GridGeometry(rigid_body_metric)
    integrate(state, geom, SolverConfig(dt=1e-3, t_end=1e-2))  # numpy's first-call allocations
    peaks = []
    for rows in (5001, 20001):
        tracemalloc.start()
        try:
            _, report = integrate(state, geom, SolverConfig(dt=1e-3, t_end=(rows - 1) * 1e-3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.rows == rows
    assert peaks[1] - peaks[0] <= 64 * 1024


# tracemalloc peaks of a 400-step run, one row per step, measured with
# numpy 2.4 on CPython 3.11: 772, 654 and 843 kB with the recorder's
# node-last buffer read in place. A transposed (T, n, d) copy of each chunk
# raised them to 1027, 906 and 1099 kB, and the (T, n, d) buffer with its
# (n, d, T) work copies and BLAS edge closures of the earlier recorder to
# 2521, 1833 and 2683 kB.
RECORDER_PEAK_KB = {"boundary_interval": 890, "berger_circle": 760, "s3_t2_interval": 970}


@pytest.mark.parametrize("name", sorted(RECORDER_PEAK_KB))
def test_recorder_working_set(name):
    # a chunk is evaluated where it was buffered: no transposed copy of a
    # whole chunk, and no temporaries of one per stencil operation
    state, geom, config = _short_example(name, steps=400)
    integrate(state, geom, config)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        _, report = integrate(state, geom, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rows == 401 and report.failure is None
    assert peak <= RECORDER_PEAK_KB[name] * 1024, peak // 1024


def gamma_trace(geom):
    """Gamma[j,a,b,a] at each node: the divergence form read off the connection."""
    return np.einsum("jaba->jb", geom.gamma)


def test_div_form_is_minus_trace_ad_at_every_node(su2_split):
    # the divergence form is -tr(ad_{e_b}) whatever the metric: zero on su2,
    # (-2, 0, 0) on the non-unimodular [e1, e2] = e2, [e1, e3] = e3; the trace
    # of the connection agrees with it at every node, and rows read it there
    rng = np.random.default_rng(3)

    def random_spd():
        a = rng.uniform(-1.0, 1.0, (3, 3))
        return a @ a.T + 0.5 * np.eye(3)

    for _ in range(50):
        geom = GridGeometry(InvariantMetric(su2_split, random_spd()))
        assert np.array_equal(geom.div_form, np.zeros(3))
        assert np.max(np.abs(gamma_trace(geom))) <= 1e-14
    structure = np.zeros((3, 3, 3))
    structure[0, 1, 1] = structure[0, 2, 2] = 1.0
    structure[1, 0, 1] = structure[2, 0, 2] = -1.0
    split = reductive_split(LieAlgebraSpec(3, structure, np.eye(3)), [])
    r = np.linspace(0.0, 1.0, 33)
    a = 2.0 * np.pi * r
    base = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    wobble = np.array([[0.2, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.1]])
    gram = base + np.sin(a)[:, None, None] * wobble
    prime = (2.0 * np.pi * np.cos(a))[:, None, None] * wobble
    space = OrbitSpace(INTERVAL, 1.0, (BOUNDARY, BOUNDARY))
    profile = TabulatedProfile(split, space, r, gram, prime)
    geom = GridGeometry(profile, 40)
    oracle = -np.array([np.trace(split.ad_on_m(e)) for e in np.eye(3)])
    assert np.array_equal(oracle, [-2.0, 0.0, 0.0])
    assert np.array_equal(geom.div_form, oracle)
    assert np.max(np.abs(gamma_trace(geom) - oracle)) <= 1e-13
    for _ in range(50):
        one_node = GridGeometry(InvariantMetric(split, random_spd()))
        assert np.array_equal(one_node.div_form, oracle)
        assert np.max(np.abs(gamma_trace(one_node) - oracle)) <= 1e-13
    # a field that is nonzero at one node only, which no fixed probe set need hold
    v = np.zeros((geom.n, 3))
    v[5, 0] = 0.25
    assert divergence_residual(ReducedState(0.0, 0.0, v), geom) == 0.5


def test_discrete_energy_exchange_identity():
    # d/dt (v' G v) = -h d_r (v' G v) + 2 h g(S v, v) along a real trajectory,
    # checked with a centred difference in time; pins the sign of the
    # shape-operator exchange term against the integrated dynamics
    wt = warped_torus(1.0, [[0.0, 0.05, -0.03], [0.1, 0.03, 0.02]])
    n = 128
    grid = grid_layout(wt, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.3 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.2 * np.cos(2 * np.pi * grid)
    dt = 1e-4
    snaps, _ = integrate(ReducedState(0.0, 0.4, v0), wt,
                         SolverConfig(dt=dt, t_end=10 * dt, snapshot_cadence=1))
    geom = GridGeometry(wt, n)

    def vG(state):
        return np.einsum("ja,jab,jb->j", state.v, geom.gram, state.v)

    mid = snaps[5]
    lhs = (vG(snaps[6]) - vG(snaps[4])) / (2 * dt)
    h = float(mid.c) * geom.h0
    Sv = np.einsum("jab,jb->ja", geom.S, mid.v)
    q = np.einsum("ja,jab,jb->j", Sv, geom.gram, mid.v)
    rhs = -h * geom.deriv(vG(mid)) + 2.0 * h * q
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-5
    # the opposite exchange sign is far outside the error band
    wrong = -h * geom.deriv(vG(mid)) - 2.0 * h * q
    assert np.max(np.abs(lhs - wrong)) / scale > 1e-2


def test_report_series_aligned_even_after_failure(flat_torus):
    state = ReducedState(0.0, 5.0, np.zeros((32, 2)))  # CFL violation
    series = collect_rows(state, flat_torus, SolverConfig(dt=0.05, t_end=1.0))[2]
    lengths = {len(v) for v in series.values()}
    assert len(lengths) == 1
    for key, vals in series.items():
        assert np.all(np.isfinite(np.asarray(vals, dtype=float).ravel())), key


def write_diagnostics(path, series):
    """diagnostics.csv of rows handed over at once."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_diagnostics_csv(fh, series)


def test_diagnostics_csv_roundtrip(tmp_path, monkeypatch, round_s3_t2):
    monkeypatch.setattr(diagnostics, "CHUNK_ROWS", 3)
    state = interval_state([1.0, 2.0], n=32)
    path = tmp_path / "diag.csv"
    chunks = []

    def sink(rows):  # writes a chunk of 3 rows at a time, as the CLI's sink does
        chunks.append(rows)
        write_diagnostics_csv(fh, rows)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        integrate(state, round_s3_t2, SolverConfig(dt=1e-2, t_end=0.1), sink)
    series = concatenate(chunks)
    assert len(chunks) == 4
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["t", "E", "c", "max_speed", "c1_monitor", "div_residual", "p_periodicity"]
    assert "alpha_1" in header and "beta_2" in header
    assert len(lines) == 1 + len(series["t"])
    # byte determinism of the writer, whatever the chunks it is handed
    path2 = tmp_path / "diag2.csv"
    write_diagnostics(path2, series)
    assert path.read_bytes() == path2.read_bytes()


SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-20, 5e-324,
           2.225073858507201e-308, -1.5e-310, 0.1, 1.0 / 3.0, 123456789.0]


def _fstring_csv(header, columns):
    rows = np.column_stack(columns)
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows
    )


def test_csv_writers_match_fstring_format(tmp_path, coupled_tabulated, rigid_body_metric):
    rng = np.random.default_rng(0)
    n = diagnostics.CSV_BLOCK_ROWS + 37  # a full block and a partial one
    cols = ["t", "E", "c", "max_speed", "c1_monitor", "div_residual", "p_periodicity"]
    series = {k: rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for k in cols}
    series["E"][: len(SPECIAL)] = SPECIAL
    edge = diagnostics.CSV_BLOCK_ROWS - len(SPECIAL) // 2  # straddles the block edge
    series["c"][edge : edge + len(SPECIAL)] = SPECIAL
    series["alpha"] = rng.standard_normal((n, 2, 2))
    series["beta"] = rng.standard_normal((n, 2, 2))
    series["beta"][-len(SPECIAL) :, 0, 1] = SPECIAL
    path = tmp_path / "diag.csv"
    write_diagnostics(path, series)
    header = cols + ["alpha_1", "alpha_2", "beta_1", "beta_2"]
    want = _fstring_csv(header, [series[k] for k in cols]
                        + [series["alpha"][:, 0], series["beta"][:, 0]])
    assert path.read_bytes() == want.encode()

    finite = [x for x in SPECIAL if np.isfinite(x)]
    # the nodes of a boundary interval of length 1 include both ends
    grid = np.linspace(0.0, 1.0, len(SPECIAL))
    v = np.column_stack([np.resize(finite, len(SPECIAL)), grid[::-1]])
    state = ReducedState(0.0, 0.0, v)
    pressure = np.array(SPECIAL)
    write_snapshot_csv(tmp_path / "snap.csv", state, coupled_tabulated(INTERVAL), pressure)
    want = _fstring_csv(["r", "v_1", "v_2", "p"], [grid, v, pressure])
    assert (tmp_path / "snap.csv").read_bytes() == want.encode()
    orbit = ReducedState(0.0, 0.0, np.array(finite[:3]))
    write_snapshot_csv(tmp_path / "orbit.csv", orbit, rigid_body_metric, np.zeros(1))
    want = _fstring_csv(["r", "v_1", "v_2", "v_3", "p"], [np.zeros(1), orbit.v[None], np.zeros(1)])
    assert (tmp_path / "orbit.csv").read_bytes() == want.encode()


# malformed input to a public entry point, each with a metric profile or
# invariant metric and with the run's built geometry, which a constructor
# ignores: (example, what the InputError says, call)
MALFORMED = {
    "v_width": ("berger_circle", "shape", lambda s, g: energy(replace(s, v=s.v[:, :2]), g)),
    "v_str": ("berger_circle", "state coefficients v is not an array of real numbers",
              lambda s, g: energy(replace(s, v=s.v.astype(str)), g)),
    "v_nodes": ("berger_circle", "shape|circle grids need an even N >= 16, got 10",
                lambda s, g: pressure_reconstruct(replace(s, v=s.v[:10]), g)),
    "h_samples": ("berger_circle", "h_samples",
                  lambda s, g: divergence_residual(s, g, h_samples=np.ones(5))),
    "h_samples_nan": ("berger_circle", "h_samples contains non-finite entries",
                      lambda s, g: divergence_residual(s, g, h_samples=np.full(len(s.v), np.nan))),
    "c_none": ("berger_circle", "horizontal amplitude c must be a finite real, got None",
               lambda s, g: rhs(replace(s, c=None), g)),
    "t_str": ("su2_rigid_body", "time t must be a finite real, got 'x'",
              lambda s, g: integrate(replace(s, t="x"), g, SolverConfig(dt=1e-3, t_end=1e-3))),
    "t_inf": ("berger_circle", "time t must be a finite real, got inf",
              lambda s, g: integrate(replace(s, t=np.inf), g, SolverConfig(dt=1e-3, t_end=1e-3))),
    "c_off_circle": ("s3_t2_interval", "finite horizontal amplitude",
                     lambda s, g: step_rk4(replace(s, c=0.5), g,
                                           SolverConfig(dt=1e-3, t_end=1e-3))),
    "orbit_v_width": ("su2_rigid_body", "shape",
                      lambda s, g: pointwise_speed(replace(s, v=s.v[:2]), g)),
    "orbit_grid": ("su2_rigid_body", "shape",
                   lambda s, g: energy(replace(s, v=s.v[None]), g)),
    "orbit_j": ("su2_rigid_body", r"grid index 7 out of range \[0, 1\)",
                lambda s, g: pointwise_speed(s, g, j=7)),
    "j_bool": ("berger_circle", "grid index must be an integer, got True",
               lambda s, g: pointwise_speed(s, g, j=True)),
    "j_str": ("berger_circle", "grid index must be an integer, got '3'",
              lambda s, g: pointwise_speed(s, g, j="3")),
    "j_float": ("berger_circle", "grid index must be an integer, got 1.5",
                lambda s, g: pointwise_speed(s, g, j=1.5)),
    "orbit_h_samples": ("su2_rigid_body", r"h_samples has shape \(3,\)",
                        lambda s, g: divergence_residual(s, g, h_samples=[1, 2, 3])),
    "orbit_c_off_circle": ("su2_rigid_body", "finite horizontal amplitude",
                           lambda s, g: c1_monitor(replace(s, c=-1.0), g)),
    "orbit_x_on_grid": ("t3_circle", "shape|circle grids need an even N >= 16, got 2",
                        lambda s, g: rhs(ReducedState(0.0, 0.0, s.v[0]), g)),
    # not a geometry at all
    "geometry_none": ("berger_circle", "or a GridGeometry; got NoneType",
                      lambda s, g: energy(s, None)),
    "geometry_str": ("berger_circle", "or a GridGeometry; got str",
                     lambda s, g: energy(s, "berger")),
    "geometry_int": ("berger_circle", "or a GridGeometry; got int",
                     lambda s, g: energy(s, 3)),
    # a caller's number of the wrong type, and a list argument that is no list
    "dt_str": ("su2_rigid_body", "dt must be a positive real, got '0.1'",
               lambda s, g: SolverConfig(dt="0.1", t_end=1.0)),
    "t_end_list": ("su2_rigid_body", r"t_end must be a positive real, got \[1.0\]",
                   lambda s, g: SolverConfig(dt=0.1, t_end=[1.0])),
    "cfl_guard_none": ("su2_rigid_body", "cfl_guard must be a positive real, got None",
                       lambda s, g: SolverConfig(dt=0.1, t_end=1.0, cfl_guard=None)),
    "length_str": ("su2_rigid_body", "orbit-space length must be a positive real, got '1'",
                   lambda s, g: OrbitSpace(CIRCLE, "1")),
    "length_list": ("su2_rigid_body", r"orbit-space length must be a positive real, got \[1.0\]",
                    lambda s, g: OrbitSpace(CIRCLE, [1.0])),
    "torus_length_str": ("su2_rigid_body", "orbit-space length must be a positive real, got '1'",
                         lambda s, g: warped_torus("1", [[0.0]])),
    "torus_coefficients_int": ("su2_rigid_body", "Fourier coefficients must be a list, got 5",
                               lambda s, g: warped_torus(1.0, 5)),
    "berger_coefficients_none": ("su2_rigid_body", "Fourier coefficients must be a list, got None",
                                 lambda s, g: berger_circle(1.0, None)),
    "berger_length_none": ("su2_rigid_body", "orbit-space length must be a positive real, got None",
                           lambda s, g: berger_circle(None, [[0.0]] * 3)),
    "abelian_str": ("su2_rigid_body", "algebra dimension must be an integer, got '2'",
                    lambda s, g: abelian("2")),
    "abelian_float": ("su2_rigid_body", "algebra dimension must be an integer, got 2.0",
                      lambda s, g: abelian(2.0)),
    "dim_str": ("su2_rigid_body", "algebra dimension must be an integer, got '3'",
                lambda s, g: LieAlgebraSpec("3", su2().structure, np.eye(3))),
    "h_basis_none": ("su2_rigid_body", "h_basis must be a list, got None",
                     lambda s, g: reductive_split(su2(), None)),
    "h_basis_float": ("su2_rigid_body", "h_basis must be a list, got 1.0",
                      lambda s, g: reductive_split(su2(), 1.0)),
    "n_float": ("berger_circle", "node count n must be an integer, got 16.0",
                lambda s, g: GridGeometry(state_geometry(s, g).profile, 16.0)),
    "n_str": ("berger_circle", "node count n must be an integer, got '16'",
              lambda s, g: GridGeometry(state_geometry(s, g).profile, "16")),
    "config_str": ("berger_circle", "a solver config is a SolverConfig; got str",
                   lambda s, g: integrate(s, g, "cfg")),
    "config_none": ("berger_circle", "a solver config is a SolverConfig; got NoneType",
                    lambda s, g: step_rk4(s, g, None)),
    # a package object of the wrong type
    "algebra_none": ("su2_rigid_body", "an algebra is a LieAlgebraSpec; got NoneType",
                     lambda s, g: reductive_split(None, [])),
    "split_none": ("su2_rigid_body", "a split is a ReductiveSplit; got NoneType",
                   lambda s, g: InvariantMetric(None, np.eye(3))),
    "profile_split_none": ("berger_circle", "a split is a ReductiveSplit; got NoneType",
                           lambda s, g: TabulatedProfile(None, OrbitSpace(CIRCLE, 1.0), [], [], [])),
    "profile_space_str": ("berger_circle", "an orbit space is an OrbitSpace; got str",
                          lambda s, g: TabulatedProfile(state_geometry(s, g).split, "circle",
                                                        [], [], [])),
    "grid_from_none": ("berger_circle", "or a GridGeometry; got NoneType",
                       lambda s, g: GridGeometry(None, 16)),
    "grid_from_grid": ("berger_circle", "or a GridGeometry; got GridGeometry",
                       lambda s, g: GridGeometry(state_geometry(s, g), 16)),
    "state_none": ("berger_circle", "a state is a ReducedState; got NoneType",
                   lambda s, g: integrate(None, g, SolverConfig(dt=1e-3, t_end=1e-3))),
    "state_str": ("s3_t2_interval", "a state is a ReducedState; got str",
                  lambda s, g: step_rk4("x", g, SolverConfig(dt=1e-3, t_end=1e-3))),
    "state_float": ("su2_rigid_body", "a state is a ReducedState; got float",
                    lambda s, g: energy(1.5, g)),
    "speed_state_none": ("t3_circle", "a state is a ReducedState; got NoneType",
                         lambda s, g: pointwise_speed(None, g)),
    "pressure_state_str": ("boundary_interval", "a state is a ReducedState; got str",
                           lambda s, g: pressure_reconstruct("x", g)),
}


@pytest.mark.parametrize("built", [False, True], ids=["source", "built"])
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_public_input_raises_input_error(case, built):
    name, message, call = MALFORMED[case]
    state, geom, source = initial_problem(name)
    geometry = geom if built else source
    with pytest.raises(InputError, match=message):
        call(state, geometry)


@pytest.mark.parametrize("algebra, diag", [(abelian(2), (-1.0, -1.0)), (su2(), (1.0, -1.0, -1.0))],
                         ids=["minus-identity", "two-negative-entries"])
def test_indefinite_profile_raises_input_error(algebra, diag):
    # det g = 1 at every radius: only the eigenvalues show that g is not
    # positive definite, before any Cholesky factor or volume is taken
    r = np.linspace(0.0, 1.0, 9)
    gram = np.tile(np.diag(diag), (r.size, 1, 1))
    profile = TabulatedProfile(reductive_split(algebra, []), OrbitSpace(CIRCLE, 1.0), r, gram,
                               np.zeros_like(gram))
    state = ReducedState(0.0, 0.5, np.ones((16, len(diag))))
    config = SolverConfig(dt=1e-3, t_end=1e-3)
    # an abelian fibre builds no connection: the grid itself checks g_r at every node
    calls = (lambda: GridGeometry(profile, 16), lambda: state_geometry(state, profile),
             lambda: profile.volume_at(0.3),
             lambda: profile.volume_at(r), lambda: profile.h0_at(0.3),
             lambda: energy(state, profile), lambda: rhs(state, profile),
             lambda: step_rk4(state, profile, config),
             lambda: pressure_reconstruct(state, profile),
             lambda: integrate(state, profile, config))
    for call in calls:
        with pytest.raises(InputError, match="not positive definite"):
            call()
