import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from coho_euler import (
    CircleProblem,
    HomogeneousProblem,
    InputError,
    IntervalProblem,
    InvariantMetric,
    ReducedState,
    SolverConfig,
    c1_monitor,
    conservation_report,
    divergence_residual,
    endpoint_taylor_monitor,
    energy,
    integrate,
    pointwise_speed,
    warped_torus,
)
from coho_euler import LieAlgebraSpec, catalog, diagnostics, reductive_split
from coho_euler.config import check_config
from coho_euler.coho_geometry import BOUNDARY, INTERVAL, OrbitSpace, TabulatedProfile
from coho_euler.diagnostics import (
    GRID_NODES,
    PERIODICITY_TOL,
    GridGeometry,
    RunReport,
    chunk_rows,
    grid_rule,
    parity_tolerance,
    write_diagnostics_csv,
    write_snapshot_csv,
)
from coho_euler.errors import ConfigError
from coho_euler.homogeneous_geometry import divergence_form
from coho_euler.reduced_euler import circle_grid, interval_grid


def interval_state(profile, values, n=128):
    grid = interval_grid(profile, n)
    return ReducedState(0.0, 0.0, np.tile(values, (n, 1)), grid)


def test_grid_geometry_rho_matches_generalized_eigh(coupled_tabulated):
    prof = coupled_tabulated("interval")
    geom = GridGeometry(prof, interval_grid(prof, 64))
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
    grid = circle_grid(profile, low)
    GridGeometry(profile, grid)
    for j in (0, low // 2, low - 1):
        moved = grid.copy()
        moved[j] += 1e-6 * profile.length
        with pytest.raises(InputError, match="not the"):
            GridGeometry(profile, moved)

    # one node count below the rule, refused alike by every entry point
    few = low - 2 if even else low - 1
    v0 = np.zeros((few, profile.dim))
    messages = set()
    for build in (lambda: circle_grid(profile, few), lambda: interval_grid(profile, few),
                  lambda: GridGeometry(profile, grid[:few]),
                  lambda: CircleProblem(profile, 0.0, v0) if kind == "circle"
                  else IntervalProblem(profile, v0)):
        with pytest.raises(InputError) as exc:
            build()
        messages.add(str(exc.value))
    assert messages == {f"{grid_rule(profile.orbit_space.kind)}, got {few}"}


def test_energy_zero_state(flat_torus):
    grid = circle_grid(flat_torus, 32)
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)), grid)
    assert energy(state, flat_torus) == 0.0


def test_energy_flat_torus_pure_horizontal(flat_torus):
    grid = circle_grid(flat_torus, 64)
    state = ReducedState(0.0, 1.0, np.zeros((64, 2)), grid)
    assert abs(energy(state, flat_torus) - 0.5) < 1e-14


def test_energy_round_s3_t2_quadrature(round_s3_t2):
    # 2E = int_0^{pi/2} cos^2 r * (sin r cos r) dr = 1/4
    state = interval_state(round_s3_t2, [1.0, 0.0], n=128)
    assert abs(2.0 * energy(state, round_s3_t2) - 0.25) < 1e-8


def test_energy_homogeneous(rigid_body_metric):
    state = ReducedState(0.0, None, np.array([1.0, 0.0, 1.0]), None)
    assert abs(energy(state, rigid_body_metric) - 0.5 * (1.0 + 3.0)) < 1e-15


def test_pointwise_speed_examples(round_s3_t2, flat_torus):
    zero = interval_state(round_s3_t2, [0.0, 0.0], n=16)
    assert pointwise_speed(zero, round_s3_t2, 3) == 0.0

    # N = 127 interior nodes puts a node exactly at pi/4
    a, b = 1.5, -0.4
    state = interval_state(round_s3_t2, [a, b], n=127)
    j = 63
    assert abs(state.grid[j] - np.pi / 4) < 1e-12
    want = np.sqrt((a * a + b * b) / 2.0)
    assert abs(pointwise_speed(state, round_s3_t2, j) - want) < 1e-12

    grid = circle_grid(flat_torus, 32)
    horiz = ReducedState(0.0, 2.0, np.zeros((32, 2)), grid)
    assert abs(pointwise_speed(horiz, flat_torus, 5) - 2.0) < 1e-15


def test_pointwise_speed_index_error(flat_torus):
    grid = circle_grid(flat_torus, 32)
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)), grid)
    with pytest.raises(InputError):
        pointwise_speed(state, flat_torus, 32)


def test_c1_monitor_zero_state(round_s3_t2):
    state = interval_state(round_s3_t2, [0.0, 0.0], n=16)
    assert c1_monitor(state, round_s3_t2) == 0.0


def test_c1_monitor_constant_on_steady_run(round_s3_t2):
    prob = IntervalProblem(round_s3_t2, np.tile([1.0, 2.0], (64, 1)))
    _, report = integrate(prob, SolverConfig(dt=1e-2, t_end=1.0))
    c1 = np.asarray(report.series["c1_monitor"])
    assert np.max(np.abs(c1 - c1[0])) < 1e-10


def test_c1_monitor_constant_under_transport(flat_torus):
    n = 128
    grid = circle_grid(flat_torus, n)
    v0 = np.zeros((n, 2))
    v0[:, 0] = np.sin(2 * np.pi * grid)
    prob = CircleProblem(flat_torus, 1.0, v0)
    _, report = integrate(prob, SolverConfig(dt=1e-3, t_end=1.0))
    c1 = np.asarray(report.series["c1_monitor"])
    # sup-over-grid of a sliding profile wobbles by O((pi/N)^2) between nodes
    assert np.max(np.abs(c1 - c1[0])) / c1[0] < 1e-3
    # after one full period the phase realigns with the grid exactly
    assert abs(c1[-1] - c1[0]) / c1[0] < 1e-6


def test_divergence_residual_interval(round_s3_t2):
    state = interval_state(round_s3_t2, [0.7, -1.1], n=64)
    assert divergence_residual(state, round_s3_t2) < 1e-10


def test_divergence_residual_circle_h0():
    # bundled-scale profile: the 4th-order stencil floor sits well under 1e-8
    wt = warped_torus(1.0, [[0.0, 0.08, -0.05]])
    grid = circle_grid(wt, 256)
    state = ReducedState(0.0, 1.0, np.zeros((256, 1)), grid)
    assert divergence_residual(state, wt) < 1e-8


def test_divergence_residual_detects_constant_h():
    # constant horizontal amplitude on a variable-volume circle: not solenoidal
    wt = warped_torus(1.0, [[0.0, 0.8, 0.0]])
    grid = circle_grid(wt, 256)
    state = ReducedState(0.0, 0.0, np.zeros((256, 1)), grid)
    res = divergence_residual(state, wt, h_samples=np.ones(256))
    assert res > 0.1


def test_endpoint_taylor_steady(round_s3_t2):
    prob = IntervalProblem(round_s3_t2, np.tile([1.0, 2.0], (64, 1)))
    snaps, _ = integrate(prob, SolverConfig(dt=1e-2, t_end=1.0))
    mon = endpoint_taylor_monitor(snaps, round_s3_t2)
    assert np.max(np.abs(mon["alpha"] - mon["alpha"][0])) < 1e-12
    assert np.max(np.abs(mon["beta"] - mon["beta"][0])) < 1e-12
    assert mon["bounded"]


def test_endpoint_taylor_zero_state(round_s3_t2):
    grid = interval_grid(round_s3_t2, 32)
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)), grid)
    mon = endpoint_taylor_monitor([state], round_s3_t2)
    assert np.max(np.abs(mon["alpha"])) == 0.0
    assert np.max(np.abs(mon["beta"])) == 0.0
    assert np.max(mon["misfit"]) == 0.0


def test_endpoint_taylor_flags_odd_parity(round_s3_t2):
    grid = interval_grid(round_s3_t2, 128)
    v = np.zeros((128, 2))
    v[:, 0] = grid  # v_1 = r: odd about the left singular endpoint
    state = ReducedState(0.0, 0.0, v, grid)
    mon = endpoint_taylor_monitor([state], round_s3_t2)
    geom = GridGeometry(round_s3_t2, grid)
    assert mon["misfit"][0, 0] > parity_tolerance(geom)
    # constants stay far below the parity cut
    flat = ReducedState(0.0, 0.0, np.tile([1.0, 2.0], (128, 1)), grid)
    mon2 = endpoint_taylor_monitor([flat], round_s3_t2)
    assert np.max(mon2["misfit"]) < 1e-12


def test_endpoint_taylor_needs_singular_endpoint(flat_torus):
    grid = circle_grid(flat_torus, 32)
    state = ReducedState(0.0, 0.0, np.zeros((32, 2)), grid)
    with pytest.raises(ConfigError):
        endpoint_taylor_monitor([state], flat_torus)


def test_conservation_report_steady_run(round_s3_t2):
    prob = IntervalProblem(round_s3_t2, np.tile([1.0, 2.0], (32, 1)))
    _, report = integrate(prob, SolverConfig(dt=1e-2, t_end=1.0))
    s = report.summary
    assert s["energy"]["max_rel_drift"] == 0.0
    assert s["pointwise_speed"]["max_drift"] == 0.0
    assert s["endpoint_taylor"]["ok"]
    assert s["all_ok"]


def test_conservation_report_flags_fault_injection(flat_torus):
    n = 32
    grid = circle_grid(flat_torus, n)
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.1 * np.sin(2 * np.pi * grid)
    prob = CircleProblem(flat_torus, 0.5, v0)
    _, report = integrate(prob, SolverConfig(dt=1e-3, t_end=0.1, dcdt_offset=1.0))
    s = report.summary
    assert report.failure is not None
    assert not s["pressure_periodicity"]["ok"]
    assert not s["all_ok"]


def test_divergence_invariant_under_integration():
    # solenoidality is structural: the residual must not drift with time
    wt = warped_torus(1.0, [[0.0, 0.06, -0.03], [0.1, -0.04, 0.02]])
    n = 128
    grid = circle_grid(wt, n)
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.2 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.1 * np.cos(2 * np.pi * grid)
    prob = CircleProblem(wt, 0.4, v0)
    _, report = integrate(prob, SolverConfig(dt=2e-3, t_end=1.0))
    res = np.asarray(report.series["div_residual"])
    assert np.max(res) < 1e-8
    assert np.max(np.abs(res - res[0])) < 1e-8


def test_component_energies_recorded(flat_torus):
    prob = CircleProblem(flat_torus, 0.0, np.tile([1.0, 0.5], (32, 1)))
    _, report = integrate(prob, SolverConfig(dt=1e-2, t_end=0.1))
    comp = np.asarray(report.series["component_energy"])
    assert comp.shape[1] == 2
    assert np.allclose(comp[0], [0.5, 0.125])


def _assert_rows_match_public(report, snaps, geometry, rows):
    """Recorded rows equal the public per-state functions on the same states, bit for bit."""
    s = report.series
    for j in rows:
        state = snaps[j]
        assert state.t == s["t"][j]
        assert float(state.c or 0.0) == s["c"][j]
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
    grid = circle_grid(wt, n)
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.2 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.1 + 0.05 * np.cos(2 * np.pi * grid)
    v0_interval = np.tile([0.7, -0.4], (64, 1))
    v0_interval[:, 0] += 0.1 * np.cos(2 * interval_grid(round_s3_t2, 64))
    cases = [
        (CircleProblem(wt, 0.3, v0), wt, 0.6, n * 2),
        (IntervalProblem(round_s3_t2, v0_interval), round_s3_t2, 0.6, 64 * 2),
        (HomogeneousProblem(rigid_body_metric, [0.0, 1.0, 1.0]), rigid_body_metric, 1.2, 3),
    ]
    for prob, geometry, t_end, state_values in cases:
        cfg = SolverConfig(dt=2e-3, t_end=t_end, snapshot_cadence=1)
        snaps, report = integrate(prob, cfg)
        chunk = chunk_rows(state_values)
        n_rows = len(report.series["t"])
        assert n_rows == cfg.n_records() == len(snaps)
        assert chunk < n_rows < 2 * chunk  # one full chunk, then a partial one
        _assert_rows_match_public(report, snaps, geometry, [0, chunk // 2, chunk - 1, chunk,
                                                            n_rows - 2, n_rows - 1])


@pytest.mark.parametrize("name", ["t3_circle", "berger_circle", "s3_t2_interval",
                                  "boundary_interval"])
def test_rows_bits_do_not_depend_on_stack_size(name):
    # a row evaluated inside a stack of T states equals the row of that
    # state alone, for every T the recorder can hand over
    problem = check_config(catalog.load_example(name))[1]
    geom = GridGeometry(problem.profile, problem.grid)
    rng = np.random.default_rng(1)
    chunk = chunk_rows(geom.n * geom.d)
    vs = problem.v0 * (1.0 + 0.1 * rng.standard_normal((chunk, geom.n, geom.d)))
    cs = rng.uniform(-1.0, 1.0, chunk)
    alone = [geom.rows(cs[t : t + 1], vs[t : t + 1]) for t in range(chunk)]
    for T in sorted({2, 3, 5, chunk - 1, chunk}):
        stacked = geom.rows(cs[:T], vs[:T])
        for key, val in stacked.items():
            for t in range(T):
                assert np.array_equal(val[t], alone[t][key][0]), (T, key, t)


@pytest.mark.parametrize("kind", ["cfl", "pressure_periodicity"])
def test_failure_mid_chunk_leaves_every_row_evaluated(monkeypatch, kind):
    # the run fails at row 13 with chunks of 8 rows: one full chunk, then a
    # partial one that finish() must still evaluate
    monkeypatch.setattr(diagnostics, "CHUNK_ROWS", 8)
    wt = warped_torus(1.0, [[0.0, 0.05, -0.03], [0.1, 0.03, 0.02]])
    n, dt, k = 32, 1e-3, 13
    grid = circle_grid(wt, n)
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.3 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.2 * np.cos(2 * np.pi * grid)
    prob = CircleProblem(wt, 0.4, v0)
    _, ref = integrate(prob, SolverConfig(dt=dt, t_end=20 * dt, dcdt_offset=1e-12))
    assert ref.failure is None
    if kind == "cfl":
        # |c| still grows here: a guard between rows k - 1 and k trips at row k
        c = np.abs(ref.series["c"])
        assert c[k] > np.max(c[:k])
        geom = GridGeometry(wt, grid)
        guard = 0.5 * (np.max(c[:k]) + c[k]) * dt * geom.h0_max / geom.dr
        cfg = SolverConfig(dt=dt, t_end=20 * dt, cfl_guard=guard, snapshot_cadence=1,
                           dcdt_offset=1e-12)
    else:
        # the periodicity residual is linear in the offset and still grows
        # here: a scaled offset first crosses the tolerance at row k
        p = ref.series["p_periodicity"]
        assert p[k] > np.max(p[:k]) * (1.0 + 1e-6)
        offset = 1e-12 * PERIODICITY_TOL / np.sqrt(np.max(p[:k]) * p[k])
        cfg = SolverConfig(dt=dt, t_end=20 * dt, snapshot_cadence=1, dcdt_offset=offset)
    snaps, report = integrate(prob, cfg)
    assert report.failure["kind"] == kind
    s = report.series
    assert {len(val) for val in s.values()} == {k + 1}
    assert s["t"][-1] == k * dt == report.failure["t"]
    assert report.failure["step"] == k  # steps taken to the failing state
    _assert_rows_match_public(report, snaps, wt, range(k + 1))
    if kind == "cfl":
        # the same trajectory as the reference run, row for row
        for key, val in s.items():
            assert np.array_equal(val, ref.series[key][: k + 1]), key
    else:
        assert s["p_periodicity"][-1] == report.failure["residual"] > PERIODICITY_TOL
        assert np.max(s["p_periodicity"][:-1]) <= PERIODICITY_TOL


def test_recorder_memory_per_row(rigid_body_metric):
    # 14 float64 series cost 112 bytes a row; one Python list per series
    # held about 520 bytes a row at this size
    prob = HomogeneousProblem(rigid_body_metric, [0.4, 0.4, 0.4])
    cfg = SolverConfig(dt=1e-3, t_end=5.0)
    tracemalloc.start()
    try:
        _, report = integrate(prob, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(report.series["t"])
    assert rows == 5001
    assert peak / rows < 200


def test_div_forms_match_per_probe_divergence_form(su2_split):
    # the divergence form is -tr(ad_{e_b}) whatever the metric: zero on su2,
    # (-2, 0, 0) on the non-unimodular [e1, e2] = e2, [e1, e3] = e3
    rng = np.random.default_rng(3)

    def random_spd():
        a = rng.uniform(-1.0, 1.0, (3, 3))
        return a @ a.T + 0.5 * np.eye(3)

    for _ in range(50):
        assert np.max(np.abs(divergence_form(InvariantMetric(su2_split, random_spd())))) <= 1e-14
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
    geom = GridGeometry(profile, interval_grid(profile, 40))
    want = np.array([divergence_form(InvariantMetric(split, geom.gram[j]))
                     for j in geom.div_probe_idx])
    assert len(want) == diagnostics.N_DIV_PROBES
    assert np.array_equal(geom.div_forms, want)
    oracle = -np.array([np.trace(split.ad_on_m(e)) for e in np.eye(3)])
    assert np.array_equal(oracle, [-2.0, 0.0, 0.0])
    assert np.max(np.abs(geom.div_forms - oracle)) <= 1e-13
    for _ in range(50):
        assert np.max(np.abs(divergence_form(InvariantMetric(split, random_spd())) - oracle)) <= 1e-13


def test_discrete_energy_exchange_identity():
    # d/dt (v' G v) = -h d_r (v' G v) + 2 h g(S v, v) along a real trajectory,
    # checked with a centred difference in time; pins the sign of the
    # shape-operator exchange term against the integrated dynamics
    wt = warped_torus(1.0, [[0.0, 0.05, -0.03], [0.1, 0.03, 0.02]])
    n = 128
    grid = circle_grid(wt, n)
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.3 * np.sin(2 * np.pi * grid)
    v0[:, 1] = 0.2 * np.cos(2 * np.pi * grid)
    prob = CircleProblem(wt, 0.4, v0)
    dt = 1e-4
    snaps, _ = integrate(prob, SolverConfig(dt=dt, t_end=10 * dt, snapshot_cadence=1))
    geom = GridGeometry(wt, grid)

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
    prob = CircleProblem(flat_torus, 5.0, np.zeros((32, 2)))  # CFL violation
    _, report = integrate(prob, SolverConfig(dt=0.05, t_end=1.0))
    lengths = {len(v) for v in report.series.values()}
    assert len(lengths) == 1
    for key, vals in report.series.items():
        assert np.all(np.isfinite(np.asarray(vals, dtype=float).ravel())), key


def test_diagnostics_csv_roundtrip(tmp_path, round_s3_t2):
    prob = IntervalProblem(round_s3_t2, np.tile([1.0, 2.0], (32, 1)))
    _, report = integrate(prob, SolverConfig(dt=1e-2, t_end=0.1))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(report, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["t", "E", "c", "max_speed", "c1_monitor", "div_residual", "p_periodicity"]
    assert "alpha_1" in header and "beta_2" in header
    assert len(lines) == 1 + len(report.series["t"])
    # byte determinism of the writer
    path2 = tmp_path / "diag2.csv"
    write_diagnostics_csv(report, path2)
    assert path.read_bytes() == path2.read_bytes()


SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-20, 5e-324,
           2.225073858507201e-308, -1.5e-310, 0.1, 1.0 / 3.0, 123456789.0]


def _fstring_csv(header, columns):
    rows = np.column_stack(columns)
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows
    )


def test_csv_writers_match_fstring_format(tmp_path):
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
    report = RunReport(kind="interval", n_coeff=2, n_singular=2, series=series)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(report, path)
    header = cols + ["alpha_1", "alpha_2", "beta_1", "beta_2"]
    want = _fstring_csv(header, [series[k] for k in cols]
                        + [series["alpha"][:, 0], series["beta"][:, 0]])
    assert path.read_bytes() == want.encode()

    finite = [x for x in SPECIAL if np.isfinite(x)]
    grid = np.linspace(0.0, 1.0, len(SPECIAL))
    v = np.column_stack([np.resize(finite, len(SPECIAL)), grid[::-1]])
    state = ReducedState(0.0, 0.0, v, grid)
    pressure = np.array(SPECIAL)
    write_snapshot_csv(tmp_path / "snap.csv", state, pressure)
    want = _fstring_csv(["r", "v_1", "v_2", "p"], [grid, v, pressure])
    assert (tmp_path / "snap.csv").read_bytes() == want.encode()
    orbit = ReducedState(0.0, None, np.array(finite[:3]), None)
    write_snapshot_csv(tmp_path / "orbit.csv", orbit, pressure)
    want = _fstring_csv(["r", "v_1", "v_2", "v_3", "p"], [np.zeros(1), orbit.v[None], np.zeros(1)])
    assert (tmp_path / "orbit.csv").read_bytes() == want.encode()
