"""The reduced Euler system of each regime, its integrator and pressure reconstruction.

Homogeneous runs integrate du/dt = -nabla_u u on a single orbit. Interval
runs have no horizontal component at all, so each grid node evolves by the
orbit equation independently. Circle runs couple a horizontal amplitude
c(t) to the vertical coefficients through

    dv/dt = 2 h S_r v - h dv/dr - nabla^r_v v,      h = c(t) h0(r),
    dc/dt = -(int q dr) / (int h0 dr),              q = g_r(S_r v, v),

where the dc/dt closure is exactly the solvability condition that keeps the
reconstructed pressure periodic (the int h0 h0' dr term drops by
periodicity). Both integrals use the same quadrature weights, so the
periodicity residual cancels to rounding and any other dc/dt shows up
immediately.

Time stepping is fixed-step classical RK4 on a single thread; identical
inputs give bit-identical outputs. A run, like the public right-hand side,
step and pressure, takes a state and its geometry as
:func:`~coho_euler.diagnostics.state_geometry` does: a metric profile, an
invariant metric, or a built :class:`~coho_euler.diagnostics.GridGeometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coho_geometry import CIRCLE, INTERVAL
from .diagnostics import (
    PERIODICITY_TOL,
    GridGeometry,
    RunRecorder,
    conservation_report,
    state_geometry,
)
from .errors import InputError, NumericalFailureError, require_instance
from .homogeneous_geometry import connection_tensors
from .numerics import as_count, as_float_array, as_real, cumulative_integral

CFL_EPS = 1e-12


@dataclass
class SolverConfig:
    """Fixed-step RK4 configuration."""

    dt: float
    t_end: float
    cfl_guard: float = 0.5
    snapshot_cadence: int | None = None
    diagnostics_cadence: int = 1

    def __post_init__(self):
        for name in ("dt", "t_end", "cfl_guard"):
            setattr(self, name, as_real(getattr(self, name), name, positive=True))
        if self.snapshot_cadence is not None:
            self.snapshot_cadence = as_count(self.snapshot_cadence, "snapshot_cadence", 1)
        self.diagnostics_cadence = as_count(self.diagnostics_cadence, "diagnostics_cadence", 1)

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

    ``t`` is a finite time and ``c`` the finite horizontal amplitude, 0.0
    off the circle, both floats; ``v`` holds the vertical coefficients per
    node, (n, d), or the single coefficient vector (d,) of a homogeneous
    run. The nodes are not part of the state: its geometry places them (see
    ``state_geometry``).
    """

    t: float
    c: float
    v: np.ndarray

    def __post_init__(self):
        self.v = as_float_array(self.v, name="state coefficients v")
        if self.v.ndim == 0:
            raise InputError("state coefficients v must have shape (n, d) or (d,)")
        self.t = as_real(self.t, "time t")
        self.c = as_real(self.c, "horizontal amplitude c")


@dataclass
class PressureField:
    """Pressure samples on the grid, gauged to zero at the first node."""

    samples: np.ndarray
    periodicity_residual: float = 0.0


# -- right-hand sides ---------------------------------------------------------


class _Disc:
    """The right-hand side on a geometry and its nodes' Gamma, None on an abelian fibre."""

    def __init__(self, geom: GridGeometry):
        self.geom = geom
        self.gamma = connection_tensors(geom.split, geom.gram) if geom.has_gamma else None

    def _gamma_vv(self, v):
        if self.gamma is None:
            return np.zeros_like(v)
        return np.einsum("jabc,ja,jb->jc", self.gamma, v, v)


class _HomogeneousDisc(_Disc):
    def __init__(self, geom: GridGeometry):
        super().__init__(geom)
        d = self.d = geom.d
        # x @ G2, then x @ m: the contraction order of the su2 reference run
        gamma = np.zeros((1, d, d, d)) if self.gamma is None else self.gamma
        self._g2 = np.ascontiguousarray(gamma[0].reshape(d, d * d))

    def rhs(self, c, x):
        m = (x @ self._g2).reshape(self.d, self.d)
        return 0.0, -(x @ m)


class _IntervalDisc(_Disc):
    def rhs(self, c, v):
        return 0.0, -self._gamma_vv(v)


class _CircleDisc(_Disc):
    def dcdt(self, v):
        return _closure(self.geom, v)[1]

    def rhs(self, c, v):
        geom = self.geom
        h = c * geom.h0
        hcol = h[:, None]
        dv = -hcol * geom.deriv(v)
        if geom.has_S:
            dv += (2.0 * hcol) * np.einsum("jab,jb->ja", geom.S, v)
        if self.gamma is not None:
            dv -= self._gamma_vv(v)
        return self.dcdt(v), dv


_DISCS = {"homogeneous": _HomogeneousDisc, INTERVAL: _IntervalDisc, CIRCLE: _CircleDisc}


def _make_disc(geom: GridGeometry):
    """The discretisation on a geometry."""
    return _DISCS[geom.kind](geom)


def rhs(state: ReducedState, geometry):
    """(dc/dt, dv/dt) of a reduced state, as a run evaluates it.

    dc/dt is 0.0 off the circle. A homogeneous state ``ReducedState(0.0,
    0.0, x)`` gives du/dt = -nabla_u u; an interval state node-decoupled
    dv/dt = -nabla^r_v v.
    """
    return _make_disc(state_geometry(state, geometry)).rhs(state.c, state.v)


def _closure(geom: GridGeometry, v: np.ndarray):
    """q = g(S v, v) per node, and the dc/dt closure: the one dc/dt of the system.

    dc/dt is nonzero only on a circle with shape-operator coupling.
    """
    if not geom.has_S:
        return np.zeros(geom.n), 0.0
    q = np.einsum("ja,jab,jb->j", v, geom.gramS, v)
    if geom.kind != CIRCLE:
        return q, 0.0
    return q, -float(np.sum(geom.weights * q)) / geom.int_h0


def _pressure_gradient(geom: GridGeometry, c: float, v: np.ndarray):
    """Radial pressure gradient samples and the loop (periodicity) residual.

    dc/dt is the closure's, as in a run's right-hand side.
    """
    q, dcdt = _closure(geom, v)
    if geom.kind == CIRCLE:
        pprime = -dcdt * geom.h0 - (c * c) * geom.h0 * geom.h0_prime - q
        loop = float(np.sum(geom.weights * pprime))
        scale = max(geom.profile.length * float(np.max(np.abs(pprime))), 1e-30)
        residual = 0.0 if loop == 0.0 else abs(loop) / scale
    else:
        pprime = -q
        residual = 0.0
    return pprime, residual


def _periodicity_failure(residual: float, t: float, step: int | None = None):
    """The failure of a state whose pressure loop residual exceeds PERIODICITY_TOL."""
    return NumericalFailureError(
        f"pressure periodicity residual {residual:.3e} exceeds {PERIODICITY_TOL:.1e}",
        kind="pressure_periodicity", step=step, t=t, detail={"residual": residual},
    )


def pressure_reconstruct(state: ReducedState, geometry, check: bool = True) -> PressureField:
    """Integrate the radial momentum balance to the pressure, gauge p(r_0)=0.

    A homogeneous state's pressure is the zero field. On a circle dc/dt is
    the closure's, as in a run. With ``check``, a periodicity residual above
    PERIODICITY_TOL raises the run's ``pressure_periodicity`` failure.
    """
    geom = state_geometry(state, geometry)
    if geom.kind == "homogeneous":
        return PressureField(np.zeros(1))
    pprime, residual = _pressure_gradient(geom, state.c, state.v)
    if check and residual > PERIODICITY_TOL:
        raise _periodicity_failure(residual, state.t)
    return PressureField(cumulative_integral(pprime, geom.dr), residual)


def trajectory_pressures(trajectory, geometry) -> list[PressureField]:
    """Pressure fields for a trajectory on the geometry its run used, unchecked.

    A failed run's last states can overflow the pressure as they overflowed
    the run: as in ``integrate``, the failure record, not a numpy warning,
    reports it.
    """
    fields = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in trajectory:  # a geometry built for the first state serves the rest
            geometry = state_geometry(s, geometry)
            fields.append(pressure_reconstruct(s, geometry, check=False))
    return fields


# -- time stepping ------------------------------------------------------------


def _stages(rhs, c, v, dt):
    """The four RK4 stages (dc/dt, dv/dt) from (c, v), in order."""
    k1c, k1v = rhs(c, v)
    k2c, k2v = rhs(c + 0.5 * dt * k1c, v + (0.5 * dt) * k1v)
    k3c, k3v = rhs(c + 0.5 * dt * k2c, v + (0.5 * dt) * k2v)
    k4c, k4v = rhs(c + dt * k3c, v + dt * k3v)
    return (k1c, k1v), (k2c, k2v), (k3c, k3v), (k4c, k4v)


def _check_stage(disc, c, v, dt, step, t, c_new, v_new):
    """Screen the stepped state once; on failure, name where it went non-finite.

    A non-finite stage always poisons the stepped state, so one check per
    step sees every failure. The cold path re-runs the stages from (c, v)
    and names the first non-finite one, or "combine" when all four are
    finite and only their combination overflowed, with the node and
    coefficient of its first non-finite entry. Callers step under
    ``np.errstate(over="ignore", invalid="ignore")``: the failure record,
    not a numpy warning, reports a non-finite step.
    """
    # a non-finite entry always poisons the sum; a finite sum can still overflow
    if math.isfinite(c_new) and (math.isfinite(v_new.sum()) or np.isfinite(v_new).all()):
        return
    stages = _stages(disc.rhs, c, v, dt)
    stage, bad_v = next(((i, kv) for i, (kc, kv) in enumerate(stages, 1)
                         if not (math.isfinite(kc) and np.isfinite(kv).all())), ("combine", v_new))
    # node by node; a (d,) state is node 0, and a finite v leaves the amplitude c
    bad = np.flatnonzero(~np.isfinite(bad_v))
    node, coefficient = divmod(int(bad[0]), bad_v.shape[-1]) if bad.size else (None, "c")
    raise NumericalFailureError(
        "non-finite state from the RK4 combine of four finite stages" if stage == "combine"
        else f"non-finite right-hand side at RK4 stage {stage}",
        kind="non_finite",
        step=step,
        t=t,
        detail={"stage": stage, "node": node, "coefficient": coefficient},
    )


def _rk4(disc, c, v, dt, step, t):
    (k1c, k1v), (k2c, k2v), (k3c, k3v), (k4c, k4v) = _stages(disc.rhs, c, v, dt)
    c_new = c + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    _check_stage(disc, c, v, dt, step, t, c_new, v_new)
    return c_new, v_new


def _cfl_check(disc, config, c, step, t):
    if disc.geom.kind != CIRCLE:
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
    require_instance(config, SolverConfig, "a solver config")
    geom = state_geometry(state, geometry)
    disc = _make_disc(geom)
    _cfl_check(disc, config, state.c, 0, state.t)
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_stage
        c_new, v_new = _rk4(disc, state.c, state.v, config.dt, 0, state.t)
    return ReducedState(state.t + config.dt, c_new, v_new)


def integrate(state: ReducedState, geometry, config: SolverConfig, sink=None):
    """Run a state on its geometry for t_end; returns (snapshots, report).

    The clock starts at ``state.t``, as in :func:`step_rk4`, and the first
    snapshot is ``state`` itself.

    Each chunk of diagnostic rows is folded into the report and handed to
    ``sink``, if given (see :class:`~coho_euler.diagnostics.RunRecorder`).
    A CFL or non-finite failure ends the run early with the partial
    trajectory preserved and a failure record in the report; it never exits
    silently.
    """
    require_instance(config, SolverConfig, "a solver config")
    n_steps = config.n_steps()
    dt = config.dt
    snap_every = config.snapshot_cadence
    if snap_every is None:
        snap_every = max(1, int(round(1.0 / dt)))
    diag_every = config.diagnostics_cadence

    geom = state_geometry(state, geometry)
    disc = _make_disc(geom)
    recorder = RunRecorder(geom, sink)
    t0, c, v = state.t, state.c, state.v

    def record_with_pressure_watchdog(n, cc, vv):
        # the state after n steps; the offending row is recorded before
        # raising: failures leave a diagnostic tail, never a silent exit
        t = t0 + n * dt
        residual = _pressure_gradient(geom, cc, vv)[1] if geom.kind == CIRCLE else 0.0
        recorder.record(t, cc, vv, residual)
        if residual > PERIODICITY_TOL:
            raise _periodicity_failure(residual, t, n)

    snapshots = []
    failure = None
    t_now = t0
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_stage
        try:
            record_with_pressure_watchdog(0, c, v)
            snapshots.append(state)
            for step in range(n_steps):
                _cfl_check(disc, config, c, step, t_now)
                c, v = _rk4(disc, c, v, dt, step, t_now)
                t_now = t0 + (step + 1) * dt
                last = step + 1 == n_steps
                if (step + 1) % diag_every == 0 or last:
                    record_with_pressure_watchdog(step + 1, c, v)
                if (step + 1) % snap_every == 0 or last:
                    snapshots.append(ReducedState(t_now, c, v))
        except NumericalFailureError as exc:
            failure = exc.record()
            # a CFL or non-finite failure keeps a state that may be the last snapshot
            if not snapshots or snapshots[-1].t != t_now:
                snapshots.append(ReducedState(t_now, c, v))

    report = recorder.finish(failure)
    conservation_report(report)
    return snapshots, report
