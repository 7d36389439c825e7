"""The three reduced Euler integrators and pressure reconstruction.

Homogeneous runs integrate du/dt = -nabla_u u on a single orbit. Interval
runs have no horizontal component at all, so each grid node evolves by the
orbit equation independently. Circle runs couple a horizontal amplitude
c(t) to the vertical coefficients through

    dv/dt = 2 h S_r v - h dv/dr - nabla^r_v v,      h = c(t) h0(r),
    dc/dt = -(int q dr) / (int h0 dr),              q = g_r(S_r v, v),

where the dc/dt closure is exactly the solvability condition that keeps the
reconstructed pressure periodic (the int h0 h0' dr term drops by
periodicity). Both integrals use the same quadrature weights, so the
periodicity residual cancels to rounding and any externally injected dc/dt
offset shows up immediately.

Time stepping is fixed-step classical RK4 on a single thread; identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coho_geometry import CIRCLE, INTERVAL, SINGULAR, MetricProfile
from .diagnostics import (
    PERIODICITY_TOL,
    GridGeometry,
    RunRecorder,
    conservation_report,
)
from .errors import InputError, NumericalFailureError
from .homogeneous_geometry import InvariantMetric, connection_tensors, euler_arnold_rhs
from .numerics import as_float_array, cumulative_integral

CFL_EPS = 1e-12


def _is_positive_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


@dataclass
class SolverConfig:
    """Fixed-step RK4 configuration."""

    dt: float
    t_end: float
    cfl_guard: float = 0.5
    snapshot_cadence: int | None = None
    diagnostics_cadence: int = 1
    dcdt_offset: float = 0.0  # test-only fault injection into the c closure

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise InputError("dt must be a positive real")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise InputError("t_end must be a positive real")
        if not (self.cfl_guard > 0):
            raise InputError("cfl_guard must be positive")
        if self.snapshot_cadence is not None and not _is_positive_int(self.snapshot_cadence):
            raise InputError("snapshot_cadence must be a positive integer or None")
        if not _is_positive_int(self.diagnostics_cadence):
            raise InputError("diagnostics_cadence must be a positive integer")

    def n_steps(self) -> int:
        steps = self.t_end / self.dt
        if not np.isfinite(steps):  # a subnormal dt
            raise InputError("t_end / dt overflows: too many steps")
        n = int(round(steps))
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise InputError("t_end must be a positive integer multiple of dt")
        return n

    def n_records(self) -> int:
        """Diagnostic rows of a full run: step 0, every cadence-th step and the last."""
        n, every = self.n_steps(), self.diagnostics_cadence
        return 1 + n // every + (1 if n % every else 0)


@dataclass
class ReducedState:
    """Reduced velocity at one instant.

    ``c`` is the horizontal amplitude (None for homogeneous runs, 0.0 on
    intervals); ``v`` holds vertical coefficients per grid node, or the
    single coefficient vector for homogeneous runs (grid is None there).
    """

    t: float
    c: float | None
    v: np.ndarray
    grid: np.ndarray | None

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if not np.all(np.isfinite(self.v)):
            raise InputError("state coefficients contain non-finite entries")
        if self.c is not None and not np.isfinite(self.c):
            raise InputError("horizontal amplitude is not finite")


@dataclass
class PressureField:
    """Pressure samples on the grid, gauged to zero at the first node."""

    samples: np.ndarray
    periodicity_residual: float = 0.0


def circle_grid(profile: MetricProfile, n: int) -> np.ndarray:
    if n < 16 or n % 2:
        raise InputError(f"circle grids need an even node count >= 16, got {n}")
    return profile.length * np.arange(n) / n


def interval_grid(profile: MetricProfile, n: int) -> np.ndarray:
    """State nodes of the uniform closed grid: singular endpoints excluded."""
    left, right = profile.orbit_space.endpoint_kinds
    if n < 6:
        raise InputError(f"interval grids need at least 6 state nodes, got {n}")
    m = n + (left == SINGULAR) + (right == SINGULAR)
    closed = np.linspace(0.0, profile.length, m)
    lo = 1 if left == SINGULAR else 0
    return closed[lo : lo + n]


@dataclass
class HomogeneousProblem:
    metric: InvariantMetric
    x0: np.ndarray
    kind: str = field(default="homogeneous", init=False)

    def __post_init__(self):
        self.x0 = as_float_array(self.x0, (self.metric.split.dim_m,), "x0")

    def initial_state(self) -> ReducedState:
        return ReducedState(0.0, None, self.x0.copy(), None)


@dataclass
class IntervalProblem:
    profile: MetricProfile
    v0: np.ndarray
    kind: str = field(default="interval", init=False)

    def __post_init__(self):
        if self.profile.orbit_space.kind != INTERVAL:
            raise InputError("IntervalProblem needs an interval orbit space")
        self.v0 = np.asarray(self.v0, dtype=float)
        if self.v0.ndim != 2 or self.v0.shape[1] != self.profile.dim:
            raise InputError(f"v0 must have shape (n, {self.profile.dim})")
        self.grid = interval_grid(self.profile, self.v0.shape[0])

    def initial_state(self) -> ReducedState:
        return ReducedState(0.0, 0.0, self.v0.copy(), self.grid.copy())


@dataclass
class CircleProblem:
    profile: MetricProfile
    c0: float
    v0: np.ndarray
    kind: str = field(default="circle", init=False)

    def __post_init__(self):
        if self.profile.orbit_space.kind != CIRCLE:
            raise InputError("CircleProblem needs a circle orbit space")
        self.v0 = np.asarray(self.v0, dtype=float)
        if self.v0.ndim != 2 or self.v0.shape[1] != self.profile.dim:
            raise InputError(f"v0 must have shape (n, {self.profile.dim})")
        self.grid = circle_grid(self.profile, self.v0.shape[0])

    def initial_state(self) -> ReducedState:
        return ReducedState(0.0, float(self.c0), self.v0.copy(), self.grid.copy())


# -- right-hand sides ---------------------------------------------------------


class _HomogeneousDisc:
    kind = "homogeneous"

    def __init__(self, metric: InvariantMetric):
        gamma = metric.connection_tensor()
        self.d = gamma.shape[0]
        self._g2 = np.ascontiguousarray(gamma.reshape(self.d, self.d * self.d))

    def rhs(self, c, x):
        m = (x @ self._g2).reshape(self.d, self.d)
        return 0.0, -(x @ m)


class _GridDisc:
    def __init__(self, geom: GridGeometry):
        self.geom = geom
        self.gamma = connection_tensors(geom.profile.split, geom.gram)
        self.has_gamma = bool(np.max(np.abs(self.gamma)) > 0.0)
        self.has_S = bool(np.max(np.abs(geom.S)) > 0.0)

    def _gamma_vv(self, v):
        if not self.has_gamma:
            return np.zeros_like(v)
        return np.einsum("jabc,ja,jb->jc", self.gamma, v, v)


class _IntervalDisc(_GridDisc):
    kind = "interval"

    def rhs(self, c, v):
        return 0.0, -self._gamma_vv(v)


class _CircleDisc(_GridDisc):
    kind = "circle"

    def __init__(self, geom: GridGeometry, dcdt_offset: float = 0.0):
        super().__init__(geom)
        self.dcdt_offset = float(dcdt_offset)

    def q_samples(self, v):
        return np.einsum("ja,jab,jb->j", v, self.geom.gramS, v)

    def dcdt(self, v):
        if not self.has_S:
            return self.dcdt_offset
        q_int = float(np.sum(self.geom.weights * self.q_samples(v)))
        return -q_int / self.geom.int_h0 + self.dcdt_offset

    def rhs(self, c, v):
        geom = self.geom
        h = c * geom.h0
        hcol = h[:, None]
        dv = -hcol * geom.deriv(v)
        if self.has_S:
            dv += (2.0 * hcol) * np.einsum("jab,jb->ja", geom.S, v)
        if self.has_gamma:
            dv -= self._gamma_vv(v)
        return self.dcdt(v), dv


def _make_disc(geometry, grid, dcdt_offset: float = 0.0):
    """The discretisation of an invariant metric, or of a profile on a grid."""
    if isinstance(geometry, InvariantMetric):
        return _HomogeneousDisc(geometry)
    geom = GridGeometry(geometry, grid)
    if geom.kind == CIRCLE:
        return _CircleDisc(geom, dcdt_offset)
    return _IntervalDisc(geom)


def _make_state(disc, t: float, c: float, v: np.ndarray) -> ReducedState:
    """A snapshot of (c, v) on the disc's grid; c is kept only on a circle."""
    if disc.kind == "homogeneous":
        return ReducedState(t, None, v.copy(), None)
    return ReducedState(t, c if disc.kind == "circle" else 0.0, v.copy(), disc.geom.r)


def homogeneous_rhs(metric: InvariantMetric, X) -> np.ndarray:
    """du/dt for the orbit problem; delegates to the Euler-Arnold field."""
    return euler_arnold_rhs(metric, X)


def interval_rhs(state: ReducedState, profile: MetricProfile) -> np.ndarray:
    """Node-decoupled dv/dt = -nabla^r_v v on an interval of orbits."""
    return _make_disc(profile, state.grid).rhs(0.0, state.v)[1]


def circle_rhs(state: ReducedState, profile: MetricProfile, dcdt_offset: float = 0.0):
    """(dc/dt, dv/dt) for the circle problem."""
    return _make_disc(profile, state.grid, dcdt_offset).rhs(float(state.c), state.v)


def _pressure_gradient(geom: GridGeometry, c: float, v: np.ndarray, dcdt: float):
    """Radial pressure gradient samples and the loop (periodicity) residual."""
    q = np.einsum("ja,jab,jb->j", v, geom.gramS, v)
    if geom.kind == CIRCLE:
        pprime = -dcdt * geom.h0 - (c * c) * geom.h0 * geom.h0_prime - q
        loop = float(np.sum(geom.weights * pprime))
        scale = max(geom.profile.length * float(np.max(np.abs(pprime))), 1e-30)
        residual = 0.0 if loop == 0.0 else abs(loop) / scale
    else:
        pprime = -q
        residual = 0.0
    return pprime, residual


def _pressure(disc, state: ReducedState, dcdt: float) -> PressureField:
    """Pressure samples (gauge p(r_0) = 0) and the periodicity residual."""
    if disc.kind == "homogeneous":
        return PressureField(np.zeros(1))
    c = float(state.c) if disc.kind == "circle" else 0.0
    pprime, residual = _pressure_gradient(disc.geom, c, state.v, dcdt)
    return PressureField(cumulative_integral(pprime, disc.geom.dr), residual)


def pressure_reconstruct(
    state: ReducedState,
    geometry,
    dcdt: float | None = None,
    check: bool = True,
) -> PressureField:
    """Integrate the radial momentum balance to the pressure, gauge p(r_0)=0.

    ``geometry`` is a metric profile for grid states, or an invariant metric
    for homogeneous states, whose pressure is the zero field. ``dcdt``
    defaults to the closure's dc/dt of the state on a circle (as in
    :func:`trajectory_pressures`) and to 0 elsewhere; a given value is used
    as is.
    """
    disc = _make_disc(geometry, state.grid)
    if dcdt is None:
        dcdt = disc.dcdt(state.v) if disc.kind == "circle" else 0.0
    field = _pressure(disc, state, dcdt)
    residual = field.periodicity_residual
    if check and residual > PERIODICITY_TOL:
        raise NumericalFailureError(
            f"pressure periodicity residual {residual:.3e} exceeds {PERIODICITY_TOL:.1e} "
            "(dc/dt inconsistent with the periodic closure)",
            kind="pressure_periodicity",
            t=state.t,
            detail={"residual": residual},
        )
    return field


def trajectory_pressures(problem, snapshots) -> list[PressureField]:
    """Pressure fields for a trajectory, sharing one discretisation build."""
    if problem.kind == "homogeneous":
        return [PressureField(np.zeros(1)) for _ in snapshots]
    disc = _make_disc(problem.profile, problem.grid)
    if disc.kind == "circle":
        return [_pressure(disc, s, disc.dcdt(s.v)) for s in snapshots]
    return [_pressure(disc, s, 0.0) for s in snapshots]


# -- time stepping ------------------------------------------------------------


def _check_stage(dc, dv, stage, step, t):
    # cheap screen first; a non-finite entry always poisons the sum
    if np.isfinite(dc) and np.isfinite(float(np.sum(dv))):
        return
    if np.isfinite(dc) and bool(np.all(np.isfinite(dv))):
        return  # finite values whose sum overflowed
    raise NumericalFailureError(
        f"non-finite right-hand side at RK4 stage {stage}",
        kind="non_finite",
        step=step,
        t=t,
        detail={"stage": stage},
    )


def _rk4(disc, c, v, dt, step, t):
    rhs = disc.rhs
    k1c, k1v = rhs(c, v)
    _check_stage(k1c, k1v, 1, step, t)
    k2c, k2v = rhs(c + 0.5 * dt * k1c, v + (0.5 * dt) * k1v)
    _check_stage(k2c, k2v, 2, step, t)
    k3c, k3v = rhs(c + 0.5 * dt * k2c, v + (0.5 * dt) * k2v)
    _check_stage(k3c, k3v, 3, step, t)
    k4c, k4v = rhs(c + dt * k3c, v + dt * k3v)
    _check_stage(k4c, k4v, 4, step, t)
    c_new = c + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return c_new, v_new


def _cfl_check(disc, config, c, step, t):
    if disc.kind != "circle":
        return
    hmax = abs(c) * disc.geom.h0_max
    limit = config.cfl_guard * disc.geom.dr / max(hmax, CFL_EPS)
    if config.dt > limit:
        raise NumericalFailureError(
            f"dt = {config.dt:.3e} violates the CFL guard {limit:.3e} "
            f"(|h|max = {hmax:.3e}, dr = {disc.geom.dr:.3e})",
            kind="cfl",
            step=step,
            t=t,
            detail={"dt": config.dt, "limit": limit},
        )


def step_rk4(state: ReducedState, geometry, config: SolverConfig) -> ReducedState:
    """One deterministic RK4 step of the appropriate reduced system."""
    disc = _make_disc(geometry, state.grid, config.dcdt_offset)
    c = float(state.c) if disc.kind == "circle" else 0.0
    _cfl_check(disc, config, c, 0, state.t)
    c_new, v_new = _rk4(disc, c, state.v, config.dt, 0, state.t)
    return _make_state(disc, state.t + config.dt, c_new, v_new)


def integrate(problem, config: SolverConfig):
    """Run the problem to t_end; returns (snapshots, report).

    A CFL or non-finite failure ends the run early with the partial
    trajectory preserved and a failure record in the report; it never exits
    silently.
    """
    n_steps = config.n_steps()
    dt = config.dt
    snap_every = config.snapshot_cadence
    if snap_every is None:
        snap_every = max(1, int(round(1.0 / dt)))
    diag_every = config.diagnostics_cadence

    state = problem.initial_state()
    n_rows = config.n_records()
    if problem.kind == "homogeneous":
        disc = _make_disc(problem.metric, None)
        recorder = RunRecorder("homogeneous", None, problem.metric, n_rows)
    else:
        disc = _make_disc(problem.profile, state.grid, config.dcdt_offset)
        recorder = RunRecorder(problem.kind, disc.geom, None, n_rows)
    c = 0.0 if state.c is None else state.c
    v = state.v

    def record_with_pressure_watchdog(n, cc, vv):
        # the state after n steps; the offending row is recorded before
        # raising: failures leave a diagnostic tail, never a silent exit
        t = n * dt
        residual = 0.0
        if disc.kind == "circle":
            _, residual = _pressure_gradient(disc.geom, cc, vv, disc.dcdt(vv))
        recorder.record(t, cc, vv, residual)
        if residual > PERIODICITY_TOL:
            raise NumericalFailureError(
                f"pressure periodicity residual {residual:.3e} exceeds "
                f"{PERIODICITY_TOL:.1e}",
                kind="pressure_periodicity",
                step=n,
                t=t,
                detail={"residual": residual},
            )

    snapshots = []
    failure = None
    t_now = 0.0
    try:
        record_with_pressure_watchdog(0, c, v)
        snapshots.append(_make_state(disc, 0.0, c, v))
        for step in range(n_steps):
            _cfl_check(disc, config, c, step, t_now)
            c, v = _rk4(disc, c, v, dt, step, t_now)
            t_now = (step + 1) * dt
            last = step + 1 == n_steps
            if (step + 1) % diag_every == 0 or last:
                record_with_pressure_watchdog(step + 1, c, v)
            if (step + 1) % snap_every == 0 or last:
                snapshots.append(_make_state(disc, t_now, c, v))
    except NumericalFailureError as exc:
        if exc.t is None:
            exc.t = t_now
        failure = exc.record()
        snapshots.append(_make_state(disc, t_now, c, v))

    report = recorder.finish(failure)
    if disc.kind == "circle":
        # the energy bound on c^2 comes from the first recorded row, which
        # is evaluated only once finish() has flushed the recorder
        report.c_bound = 2.0 * float(report.series["E"][0]) / disc.geom.int_h02_vol
    conservation_report(report)
    return snapshots, report
