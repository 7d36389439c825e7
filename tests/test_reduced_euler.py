import dataclasses

import numpy as np
import pytest

from coho_euler import (
    InputError,
    InvariantMetric,
    LieAlgebraSpec,
    ReducedState,
    SolverConfig,
    abelian,
    catalog,
    integrate,
    invariant_connection,
    pressure_reconstruct,
    reductive_split,
    rhs,
    step_rk4,
    su2,
    warped_torus,
)
from coho_euler.coho_geometry import BOUNDARY, INTERVAL, OrbitSpace, TabulatedProfile
from coho_euler.config import build_problem, build_solver_config
from coho_euler.diagnostics import GridGeometry, grid_layout
from coho_euler.errors import NumericalFailureError
from coho_euler.reduced_euler import _check_stage, _make_disc, trajectory_pressures

from recorded_rows import collect_rows


def su2_const_tabulated(diag=(1.0, 2.0, 3.0), n=33):
    split = reductive_split(su2(), [])
    space = OrbitSpace(INTERVAL, 1.0, (BOUNDARY, BOUNDARY))
    r = np.linspace(0.0, 1.0, n)
    gram = np.zeros((n, 3, 3))
    prime = np.zeros((n, 3, 3))
    for i, d in enumerate(diag):
        gram[:, i, i] = d
    return TabulatedProfile(split, space, r, gram, prime)


# -- grids and config ----------------------------------------------------------


def test_circle_grid_constraints(flat_torus):
    with pytest.raises(InputError):
        grid_layout(flat_torus, 15)[0]
    with pytest.raises(InputError):
        grid_layout(flat_torus, 14)[0]
    grid = grid_layout(flat_torus, 16)[0]
    assert grid[0] == 0.0 and grid[-1] < flat_torus.length


def test_interval_grid_excludes_singular_endpoints(round_s3_t2):
    grid = grid_layout(round_s3_t2, 128)[0]
    assert grid.size == 128
    dr = grid[1] - grid[0]
    assert abs(grid[0] - dr) < 1e-15
    assert abs(grid[-1] - (np.pi / 2 - dr)) < 1e-14


def test_interval_grid_includes_boundary_endpoints():
    prof = su2_const_tabulated()
    grid = grid_layout(prof, 64)[0]
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_solver_config_validation():
    bad = [
        {"dt": -1.0, "t_end": 1.0},
        {"dt": 1e-3, "t_end": 0.0},
        {"dt": 0.01, "t_end": 0.1, "snapshot_cadence": 0},
        {"dt": 0.01, "t_end": 0.1, "snapshot_cadence": -1},
        {"dt": 0.01, "t_end": 0.1, "snapshot_cadence": 2.0},
        {"dt": 0.01, "t_end": 0.1, "snapshot_cadence": True},
        {"dt": 0.01, "t_end": 0.1, "diagnostics_cadence": 0},
        {"dt": 0.01, "t_end": 0.1, "diagnostics_cadence": 1.5},
        {"dt": 0.01, "t_end": 0.1, "diagnostics_cadence": None},
        {"dt": 0.01, "t_end": 0.1, "cfl_guard": np.inf},
        {"dt": 0.01, "t_end": 0.1, "cfl_guard": np.nan},
    ]
    for kwargs in bad:
        with pytest.raises(InputError):
            SolverConfig(**kwargs)
    with pytest.raises(InputError):
        SolverConfig(dt=1e-3, t_end=1.0005).n_steps()
    assert SolverConfig(dt=1e-3, t_end=1.0).n_steps() == 1000
    assert SolverConfig(dt=0.01, t_end=0.1, snapshot_cadence=np.int64(3)).snapshot_cadence == 3


def test_reduced_state_rejects_non_finite():
    with pytest.raises(InputError):
        ReducedState(0.0, 0.0, np.array([[np.inf, 0.0]]))


# -- right-hand sides ----------------------------------------------------------


def homogeneous_dudt(metric, x):
    """du/dt of the orbit problem: ``rhs`` of the homogeneous state x, whose dc/dt is 0."""
    dc, du = rhs(ReducedState(0.0, 0.0, x), metric)
    assert dc == 0.0
    return du


def test_homogeneous_rhs_steady_cases(su2_split):
    assert np.allclose(homogeneous_dudt(InvariantMetric(su2_split, np.eye(3)), [3.0, -1.0, 2.0]), 0.0)
    flat = InvariantMetric(reductive_split(abelian(2), []), np.eye(2))
    assert np.allclose(homogeneous_dudt(flat, [1.0, 1.0]), 0.0)


def test_homogeneous_rhs_equals_euler_arnold(rigid_body_metric):
    x = np.array([0.0, 1.0, 1.0])
    assert np.allclose(
        homogeneous_dudt(rigid_body_metric, x), -invariant_connection(rigid_body_metric, x, x)
    )


def test_homogeneous_rhs_is_the_run_rhs(rigid_body_metric):
    # bit-equal to the right-hand side a run steps with; -nabla_x x from
    # invariant_connection is the geometric form, equal to rounding only
    disc = _make_disc(GridGeometry(rigid_body_metric))
    for x in np.random.default_rng(5).normal(size=(200, 3)):
        assert np.array_equal(homogeneous_dudt(rigid_body_metric, x), disc.rhs(0.0, x)[1])


@pytest.mark.parametrize("scale", [2.0, 0.25])
def test_homogeneous_flow_does_not_depend_on_q(scale):
    # su(2) under Q = scale * I: the same flow read in the Q-orthonormal rows M
    G, x = np.diag([1.0, 2.0, 3.0]), np.array([1.0, 0.5, -0.3])
    want = homogeneous_dudt(InvariantMetric(reductive_split(su2(), []), G), x)
    split = reductive_split(LieAlgebraSpec(3, su2().structure, scale * np.eye(3)), [])
    M = split.m_basis
    got = homogeneous_dudt(InvariantMetric(split, M @ G @ M.T), np.linalg.solve(M.T, x)) @ M
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_interval_rhs_abelian_is_steady(round_s3_t2):
    v = np.column_stack([np.full(16, 1.0), np.full(16, 2.0)])
    state = ReducedState(0.0, 0.0, v)
    assert rhs(state, round_s3_t2)[0] == 0.0
    assert np.allclose(rhs(state, round_s3_t2)[1], 0.0)
    zero = ReducedState(0.0, 0.0, np.zeros((16, 2)))
    assert np.allclose(rhs(zero, round_s3_t2)[1], 0.0)


def test_interval_rhs_reduces_to_homogeneous_per_node(rigid_body_metric):
    prof = su2_const_tabulated()
    v = np.tile([0.0, 1.0, 1.0], (16, 1))
    state = ReducedState(0.0, 0.0, v)
    dc, dv = rhs(state, prof)
    assert dc == 0.0
    want = homogeneous_dudt(rigid_body_metric, np.array([0.0, 1.0, 1.0]))
    for j in range(16):
        assert np.allclose(dv[j], want, atol=1e-12)


def test_circle_rhs_pure_horizontal_is_steady():
    wt = warped_torus(1.0, [[0.0, 0.2, -0.1]])
    state = ReducedState(0.0, 2.0, np.zeros((64, 1)))
    dc, dv = rhs(state, wt)
    assert dc == 0.0
    assert np.allclose(dv, 0.0)


def test_circle_rhs_constant_state_flat_torus(flat_torus):
    state = ReducedState(0.0, 1.5, np.tile([0.4, -0.2], (32, 1)))
    dc, dv = rhs(state, flat_torus)
    assert dc == 0.0
    assert np.max(np.abs(dv)) < 1e-13


def test_circle_rhs_transport_term(flat_torus):
    n = 256
    grid = grid_layout(flat_torus, n)[0]
    v = np.zeros((n, 2))
    v[:, 0] = np.sin(2 * np.pi * grid)
    state = ReducedState(0.0, 1.0, v)
    dc, dv = rhs(state, flat_torus)
    assert dc == 0.0
    want = -2 * np.pi * np.cos(2 * np.pi * grid)
    assert np.max(np.abs(dv[:, 0] - want)) < 1e-7  # 4th-order stencil floor
    assert np.allclose(dv[:, 1], 0.0)


# -- pressure ------------------------------------------------------------------


def test_pressure_closed_form_round_s3_t2(round_s3_t2):
    a, b = 1.0, 2.0
    grid = grid_layout(round_s3_t2, 128)[0]
    state = ReducedState(0.0, 0.0, np.tile([a, b], (128, 1)))
    field = pressure_reconstruct(state, round_s3_t2)
    want = -(a * a - b * b) * np.sin(grid) ** 2 / 2.0
    want -= want[0]  # same gauge
    assert np.max(np.abs(field.samples - want)) < 1e-8
    assert field.periodicity_residual == 0.0


def test_pressure_symmetric_coefficients_cancel(round_s3_t2):
    state = ReducedState(0.0, 0.0, np.tile([1.3, 1.3], (64, 1)))
    field = pressure_reconstruct(state, round_s3_t2)
    assert np.max(np.abs(field.samples)) < 1e-14


def test_pressure_pure_horizontal_exact_antiderivative():
    wt = warped_torus(1.0, [[0.0, 0.0, 0.4]])
    n = 256
    grid = grid_layout(wt, n)[0]
    c = 1.0
    state = ReducedState(0.0, c, np.zeros((n, 1)))
    field = pressure_reconstruct(state, wt)
    h0 = np.array([wt.h0_at(r) for r in grid])
    want = -c * c * (h0**2 - h0[0] ** 2) / 2.0
    assert np.max(np.abs(field.samples - want)) < 1e-8
    assert field.periodicity_residual < 1e-8


def test_pressure_flags_inconsistent_dcdt(flat_torus, dcdt_fault):
    grid = grid_layout(flat_torus, 32)[0]
    v = np.zeros((32, 2))
    v[:, 0] = np.sin(2 * np.pi * grid)
    state = ReducedState(0.0, 1.0, v)
    dcdt_fault(1.0)
    with pytest.raises(NumericalFailureError):
        pressure_reconstruct(state, flat_torus)
    field = pressure_reconstruct(state, flat_torus, check=False)
    assert field.periodicity_residual > 1e-3


def test_pressure_default_dcdt_is_the_closure():
    # shape-operator coupling makes dc/dt nonzero: a default of 0 broke periodicity
    wt = warped_torus(1.0, [[0.0, 0.1, 0.05], [0.2, -0.1, 0.03]])
    grid = grid_layout(wt, 64)[0]
    v = np.column_stack([np.sin(2 * np.pi * grid), 0.5 * np.cos(2 * np.pi * grid)])
    state = ReducedState(0.0, 0.3, v)
    field = pressure_reconstruct(state, wt)
    want = trajectory_pressures([state], wt)[0]
    assert np.array_equal(field.samples, want.samples)
    assert field.periodicity_residual == want.periodicity_residual


# -- stepping ------------------------------------------------------------------


def test_step_rk4_steady_state_only_advances_time(round_s3_t2):
    state = ReducedState(0.0, 0.0, np.tile([1.0, 2.0], (16, 1)))
    cfg = SolverConfig(dt=0.25, t_end=1.0)
    new = step_rk4(state, round_s3_t2, cfg)
    assert new.t == 0.25
    assert np.array_equal(new.v, state.v)


def test_step_rk4_deterministic(rigid_body_metric):
    state = ReducedState(0.0, 0.0, np.array([1.0, 1.0, 1.0]) / np.sqrt(6))
    cfg = SolverConfig(dt=1e-2, t_end=1.0)
    a = step_rk4(state, rigid_body_metric, cfg)
    b = step_rk4(state, rigid_body_metric, cfg)
    assert np.array_equal(a.v, b.v)


def test_step_rk4_order_four_homogeneous(rigid_body_metric):
    x0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(6)

    def run(dt):
        snaps, _ = integrate(ReducedState(0.0, 0.0, x0), rigid_body_metric,
                             SolverConfig(dt=dt, t_end=1.0, snapshot_cadence=10**9))
        return snaps[-1].v

    ref = run(1.0 / 512)
    errs = [np.max(np.abs(run(dt) - ref)) for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.8)


# -- integrate -----------------------------------------------------------------


def test_integrate_continues_from_the_state_time(rigid_body_metric):
    # a run's clock starts at its state's t: one step from t = 0.25 lands where step_rk4 does
    state = ReducedState(0.25, 0.0, np.array([1.0, 1.0, 1.0]) / np.sqrt(6))
    cfg = SolverConfig(dt=0.25, t_end=0.25)
    snaps, report = integrate(state, rigid_body_metric, cfg)
    stepped = step_rk4(state, rigid_body_metric, cfg)
    assert snaps[0] is state
    assert snaps[-1].t == stepped.t == report.t_final == 0.5
    assert np.array_equal(snaps[-1].v, stepped.v)


def test_integrate_interval_steady(round_s3_t2):
    v0 = np.tile([1.0, 2.0], (32, 1))
    snaps, report = integrate(ReducedState(0.0, 0.0, v0), round_s3_t2,
                              SolverConfig(dt=1e-2, t_end=1.0))
    assert np.array_equal(snaps[-1].v, v0)
    assert report.summary["pointwise_speed"]["max_drift"] == 0.0
    assert report.failure is None


def test_integrate_steady_horizontal_circle(flat_torus):
    state = ReducedState(0.0, 3.0, np.zeros((32, 2)))
    # CFL guard: |h| = 3 needs dt below 0.5 * dr / 3
    snaps, report = integrate(state, flat_torus, SolverConfig(dt=5e-3, t_end=0.5))
    assert snaps[-1].c == 3.0
    assert report.failure is None


def test_integrate_transport_one_period(flat_torus):
    n = 64
    grid = grid_layout(flat_torus, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = np.sin(2 * np.pi * grid)
    snaps, report = integrate(ReducedState(0.0, 1.0, v0), flat_torus,
                              SolverConfig(dt=2e-3, t_end=1.0))
    assert np.max(np.abs(snaps[-1].v - v0)) < 2e-5  # N=64 stencil floor
    assert report.summary["energy"]["max_rel_drift"] < 1e-6
    assert report.failure is None


def test_integrate_cfl_failure(flat_torus):
    state = ReducedState(0.0, 5.0, np.zeros((32, 2)))
    snaps, report = integrate(state, flat_torus, SolverConfig(dt=0.05, t_end=1.0))
    assert report.failure is not None
    assert report.failure["kind"] == "cfl"
    assert len(snaps) >= 1  # partial trajectory preserved


@pytest.mark.parametrize("name", catalog.example_names())
def test_time_reversal_round_trip(name):
    """Witness of the solution on all of the time line, not only forward.

    Every reduced system is quadratic in (c, v), so if (c, v)(t) solves it,
    so does -(c, v)(-t): integrating to T, negating, integrating to T again
    and negating returns to the start, up to the RK4 error of both legs.
    Reversal holds for any quadratic right-hand side, so this cannot catch
    a wrong coefficient of one; it catches a non-quadratic term, a stage
    order bug or a recorder that mutates the state.
    """
    cfg = catalog.load_example(name)
    start, geom = build_problem(cfg)
    solver = dataclasses.replace(build_solver_config(cfg), t_end=1.0)
    # a copy runs, so that a run mutating its state cannot move the start
    snaps, report = integrate(ReducedState(0.0, start.c, start.v.copy()), geom, solver)
    assert report.failure is None
    assert snaps[-1].t == 1.0
    negated = ReducedState(0.0, -snaps[-1].c, -snaps[-1].v)
    back, report = integrate(negated, geom, solver)
    assert report.failure is None
    end = back[-1]
    c0, c_end = start.c or 0.0, end.c or 0.0
    scale = max(abs(c0), float(np.max(np.abs(start.v))))
    err = max(abs(c_end + c0), float(np.max(np.abs(end.v + start.v)))) / scale
    assert err <= 1e-10, err


def test_integrate_non_finite_failure(su2_split):
    metric = InvariantMetric(su2_split, np.diag([1.0, 2.0, 3.0]))
    state = ReducedState(0.0, 0.0, np.array([1e200, 1e200, 0.0]))
    dt = 1e-3
    snaps, report = integrate(state, metric, SolverConfig(dt=dt, t_end=1.0))
    failure = report.failure
    assert failure is not None
    assert failure["kind"] == "non_finite"
    assert failure["stage"] >= 1
    assert failure["t"] == failure["step"] * dt
    # dx3/dt carries x1 x2, the product that overflows first
    assert (failure["node"], failure["coefficient"]) == (0, 2)


class _FaultyDisc:
    """A right-hand side that goes non-finite at one RK4 stage, in c or at one entry of v."""

    def __init__(self, stage, entry):
        self.calls, self.stage, self.entry = 0, stage, entry

    def rhs(self, c, v):
        self.calls += 1
        kc, kv = 0.0, np.zeros_like(v)
        if self.calls == self.stage:
            if self.entry == "c":
                kc = np.inf
            else:
                kv[self.entry] = np.nan
        return kc, kv


@pytest.mark.parametrize("shape, stage, entry, where", [
    ((8, 2), 1, (5, 1), (5, 1)),
    ((8, 2), 3, (2, 0), (2, 0)),
    ((8, 2), 2, "c", (None, "c")),
    ((3,), 4, 2, (0, 2)),  # a (d,) state is node 0
])
def test_non_finite_failure_names_node_and_coefficient(shape, stage, entry, where):
    # the cold path names the failing stage and its first non-finite entry;
    # a NaN stepped amplitude sends the screen there
    v = np.zeros(shape)
    with pytest.raises(NumericalFailureError) as exc:
        _check_stage(_FaultyDisc(stage, entry), 0.0, v, 1e-3, 7, 7e-3, np.nan, v)
    record = exc.value.record()
    assert (record["stage"], record["step"]) == (stage, 7)
    assert (record["node"], record["coefficient"]) == where


def test_integrate_dcdt_fault_injection(flat_torus, dcdt_fault):
    n = 32
    grid = grid_layout(flat_torus, n)[0]
    v0 = np.zeros((n, 2))
    v0[:, 0] = 0.1 * np.sin(2 * np.pi * grid)
    dcdt_fault(1.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    snaps, report = integrate(ReducedState(0.0, 0.5, v0), flat_torus, cfg)
    assert report.failure is not None
    assert report.failure["kind"] == "pressure_periodicity"


@pytest.mark.parametrize("kind", ["cfl", "non_finite", "pressure_periodicity"])
def test_failed_run_snapshot_times_increase(flat_torus, rigid_body_metric, dcdt_fault, kind):
    # every step is snapshotted, so the failing state may already be the last snapshot
    if kind == "cfl":
        state, geometry = ReducedState(0.0, 100.0, np.zeros((32, 2))), flat_torus
    elif kind == "non_finite":
        state, geometry = ReducedState(0.0, 0.0, [1e200, 1e200, 0.0]), rigid_body_metric
    else:
        dcdt_fault(1.0)
        state, geometry = ReducedState(0.0, 0.5, np.zeros((32, 2))), flat_torus
    snaps, report = integrate(state, geometry,
                              SolverConfig(dt=1e-3, t_end=1.0, snapshot_cadence=1))
    assert report.failure["kind"] == kind
    times = [s.t for s in snaps]
    assert times[-1] == report.failure["t"]
    assert all(a < b for a, b in zip(times, times[1:])), times[-3:]


def test_integrate_records_diagnostics_each_step(flat_torus):
    state = ReducedState(0.0, 1.0, np.zeros((32, 2)))
    series = collect_rows(state, flat_torus, SolverConfig(dt=1e-2, t_end=0.1))[2]
    assert len(series["t"]) == 11
    assert np.allclose(np.diff(series["t"]), 1e-2)


def test_trajectory_pressures_match_public_op(round_s3_t2, rigid_body_metric):
    v0 = np.tile([1.0, 2.0], (32, 1))
    snaps, _ = integrate(ReducedState(0.0, 0.0, v0), round_s3_t2, SolverConfig(dt=1e-2, t_end=0.1))
    fields = trajectory_pressures(snaps, round_s3_t2)
    direct = pressure_reconstruct(snaps[-1], round_s3_t2)
    assert np.allclose(fields[-1].samples, direct.samples)

    state = ReducedState(0.0, 0.0, [0.0, 1.0, 1.0])
    snaps, _ = integrate(state, rigid_body_metric, SolverConfig(dt=1e-2, t_end=0.1))
    fields = trajectory_pressures(snaps, rigid_body_metric)
    direct = pressure_reconstruct(snaps[-1], rigid_body_metric)
    assert np.array_equal(fields[-1].samples, direct.samples)
    assert direct.periodicity_residual == fields[-1].periodicity_residual == 0.0
