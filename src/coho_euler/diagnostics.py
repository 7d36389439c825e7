"""Conservation, regularity and blow-up monitors for reduced Euler runs.

Every checkable claim becomes a recorded series: energy, pointwise speeds,
a C1 proxy, divergence residuals, pressure periodicity, endpoint Taylor
coefficients, and the amplitude / maximum-principle bounds. The summary
assembled by :func:`conservation_report` carries one pass/fail flag per
claim with pinned tolerances. The public per-state functions take a state
and its geometry as :func:`state_geometry` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coho_geometry import CIRCLE, INTERVAL, SINGULAR, MetricProfile
from .errors import ConfigError, InputError
from .homogeneous_geometry import InvariantMetric, connection_tensors, divergence_forms
from .numerics import (
    Derivative4Interval,
    Derivative4Periodic,
    simpson_weights_closed,
    simpson_weights_periodic,
)

ENERGY_DRIFT_TOL = 1e-6
SPEED_DRIFT_TOL = 1e-8
C_BOUND_MARGIN = 1e-8
DIV_RESIDUAL_TOL = 1e-8
PERIODICITY_TOL = 1e-8
ENVELOPE_FACTOR = 1.05
C1_GROWTH_LIMIT = 10.0
TAYLOR_GROWTH_LIMIT = 10.0
TAYLOR_WINDOW = 6
# the node-count rule of a state grid on each orbit space: (fewest nodes, even only);
# an interval grid holds at least one endpoint Taylor window
GRID_NODES = {CIRCLE: (16, True), INTERVAL: (TAYLOR_WINDOW, False)}
N_DIV_PROBES = 8
# the recorder evaluates up to this many buffered states per rows() call,
# fewer when a state is large: the (T, n, d) temporaries stay near 256 kB
CHUNK_ROWS = 512
CHUNK_VALUES = 32768
CSV_BLOCK_ROWS = 512
# series that are not a field of a row: the recorder fills them itself
RUN_SERIES = ("t", "p_periodicity", "speed_drift", "envelope_rate")


def _generalized_spectral_radius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest |lambda| of a x = lambda b x for each (symmetric a, SPD b) in the stacks.

    Whitening by the Cholesky factor b = L L^T turns the pencil into the
    symmetric matrix L^-1 a L^-T with the same eigenvalues.
    """
    chol = np.linalg.cholesky(b)
    half = np.linalg.solve(chol, a)  # L^-1 a
    whitened = np.linalg.solve(chol, half.swapaxes(1, 2))  # L^-1 a L^-T, as a is symmetric
    return np.max(np.abs(np.linalg.eigvalsh(whitened)), axis=1)


def _abs(a: np.ndarray) -> np.ndarray:
    """|a| in place: a chunk's temporaries are large."""
    return np.abs(a, out=a)


def _first_max(a, b):
    """Elementwise Python ``max(a, b)``: ``a`` unless ``b > a``, NaN included."""
    return np.where(b > a, b, a)


def grid_rule(kind: str) -> str:
    """The node-count rule of :data:`GRID_NODES` in words."""
    low, even = GRID_NODES[kind]
    return f"{kind} grids need {'an even ' if even else ''}N >= {low}"


def grid_layout(profile: MetricProfile, n: int):
    """The state grid of ``n`` nodes on a profile's orbit space: (nodes, weights, dr).

    A circle takes an even n >= 16 nodes on [0, L) with periodic Simpson
    weights. An interval takes n >= 6 nodes (one endpoint Taylor window) of
    the uniform closed grid less its singular endpoints; integrands vanish
    there (volume collapse), so the closed grid's Simpson weights are cut to
    the state nodes. Every state grid of the package is built here.
    """
    kind = profile.orbit_space.kind
    low, even = GRID_NODES[kind]
    if n < low or (even and n % 2):
        raise InputError(f"{grid_rule(kind)}, got {n}")
    L = profile.length
    if kind == CIRCLE:
        dr = L / n
        return L * np.arange(n) / n, simpson_weights_periodic(n, dr), dr
    left, right = profile.orbit_space.endpoint_kinds
    lo = int(left == SINGULAR)
    m = n + lo + (right == SINGULAR)
    nodes = np.linspace(0.0, L, m)[lo : lo + n]
    dr = float(nodes[1] - nodes[0])
    return nodes, simpson_weights_closed(m, dr)[lo : lo + n], dr


class GridGeometry:
    """Per-node metric data shared by the solver and the diagnostics.

    Built once per run from a metric profile and a node count ``n``, whose
    nodes :func:`grid_layout` places and ``r`` keeps, or from an invariant
    metric: a homogeneous state is the one-node case at r = 0, with unit
    weight and volume, zero S, h0 and h0', and a zero derivative. Everything
    downstream is plain numpy on the precomputed arrays, so repeated
    evaluation is cheap and bit-stable.
    """

    def __init__(self, geometry, n=None):
        self.split = geometry.split
        self.d = self.split.dim_m
        if isinstance(geometry, InvariantMetric):
            self.profile, self.kind, self.r, self.n = None, "homogeneous", np.zeros(1), 1
            self.weights = self.vol = np.ones(1)
            self.deriv = np.zeros_like
            self.gram = geometry.gram[None]
            self.S = np.zeros((1, self.d, self.d))
            self.rho = np.zeros(1)
        else:
            self._sample_profile(geometry, n)
        self.trace_S = np.trace(self.S, axis1=1, axis2=2)
        self.gramS = np.einsum("jab,jbc->jac", self.gram, self.S)
        self.has_S = bool(np.max(np.abs(self.S)) > 0.0)
        # the run's one connection tensor: the step and the divergence probes read it
        self.gamma = connection_tensors(self.split, self.gram)
        self.has_gamma = bool(np.max(np.abs(self.gamma)) > 0.0)

        # h = c h0: only a circle carries a horizontal field, so h0 and every
        # constant below are zero on the other kinds
        if self.kind == CIRCLE:
            self.h0 = self.profile.volume_at(0.5 * self.profile.length) / self.vol
        else:
            self.h0 = np.zeros(self.n)
        self.h0_prime = self.trace_S * self.h0
        fd_h0 = self.deriv(self.h0)
        self.h0_max = float(np.max(self.h0))
        self.fd_div_floor = float(np.max(np.abs(fd_h0 - self.h0_prime)))
        self.fd_h0_max = float(np.max(np.abs(fd_h0)))
        self.int_h0 = float(np.sum(self.weights * self.h0))
        self.int_h02_vol = float(np.sum(self.weights * self.h0**2 * self.vol))
        self.envelope_rate_unit = float(np.max(self.h0 * self.rho))
        self.wvol = self.weights * self.vol
        self._work_arrays = None

        # the rounded probe indices are sorted: dropping repeats needs no np.unique,
        # whose masked-array check loads numpy.ma
        probe_idx = np.linspace(0, self.n - 1, N_DIV_PROBES).round().astype(int)
        probe_idx = probe_idx[np.r_[True, np.diff(probe_idx) > 0]]
        self.div_probe_idx = probe_idx
        self.div_forms = divergence_forms(self.gamma[probe_idx])

        self.singular_windows = []
        if self.kind == INTERVAL:
            left, right = self.profile.orbit_space.endpoint_kinds
            if left == SINGULAR:
                self.singular_windows.append(self._taylor_window(0.0, slice(0, TAYLOR_WINDOW)))
            if right == SINGULAR:
                self.singular_windows.append(
                    self._taylor_window(self.profile.length, slice(self.n - TAYLOR_WINDOW, self.n))
                )

    def _sample_profile(self, profile: MetricProfile, n: int):
        """Nodes, quadrature, stencil and the per-node metric of a profile."""
        self.profile = profile
        self.kind = profile.orbit_space.kind
        r, self.weights, self.dr = grid_layout(profile, n)
        self.r, self.n = r, r.size
        if self.kind == CIRCLE:
            self.deriv = Derivative4Periodic(self.n, self.dr)
        else:
            self.deriv = Derivative4Interval(self.n, self.dr)
        self.gram = profile.gram_at(r)
        self.gram_prime = profile.gram_prime_at(r)
        self.S = -0.5 * np.linalg.solve(self.gram, self.gram_prime)
        self.vol = np.sqrt(np.linalg.det(self.gram))
        self.rho = _generalized_spectral_radius(-0.5 * self.gram_prime, self.gram)

    def _taylor_window(self, side, sl):
        rho = np.abs(self.r[sl] - side)
        A = np.column_stack([np.ones_like(rho), rho**2])
        pinv = np.linalg.pinv(A)
        resid_proj = np.eye(rho.size) - A @ pinv
        return {"side": side, "slice": sl, "pinv": pinv, "resid": resid_proj, "rho": rho}

    # -- per-state evaluation ------------------------------------------------

    def taylor_fits(self, vs: np.ndarray):
        """(alpha, beta, parity misfit) of each state near the singular endpoints.

        ``vs`` has shape (T, n, d); the results have shapes (T, n_end, d),
        (T, n_end, d) and (T, n_end).
        """
        coefs, misfits = [], []
        for win in self.singular_windows:
            data = vs[:, win["slice"]]
            coefs.append(win["pinv"] @ data)  # (T, 2, d)
            misfits.append(np.sqrt(np.mean((win["resid"] @ data) ** 2, axis=(1, 2))))
        coef = np.stack(coefs, axis=1)
        return coef[:, :, 0], coef[:, :, 1], np.stack(misfits, axis=1)

    def _work(self, T: int) -> np.ndarray:
        """Four (n, d, T) work arrays for :meth:`rows`, kept between calls.

        Allocated afresh for every chunk, arrays this large are returned to
        the system when freed and cost a page fault per page the next time.
        """
        if self._work_arrays is None or self._work_arrays.shape[-1] != T:
            self._work_arrays = np.empty((4, self.n, self.d, T))
        return self._work_arrays

    def rows(self, cs: np.ndarray, vs: np.ndarray) -> dict:
        """Every per-state diagnostic of T states, as T recorded rows.

        ``cs`` has shape (T,) and ``vs`` (T, n, d). Runs record exactly these
        values and the public per-state functions return them (T = 1), so
        the two cannot disagree; each row's bits do not depend on T. Besides
        the series values the rows hold the speed samples (T, n) and the
        instantaneous envelope rate, from which the recorder derives its
        running series.
        """
        if len(cs) == 1:
            # einsum keeps t as its inner loop only while t has two or more
            # entries; a single state takes the two-state path
            return {key: val[:1] for key, val in self.rows(np.repeat(cs, 2),
                                                           np.repeat(vs, 2, axis=0)).items()}
        T = len(cs)
        vt, gv, gv_rows, Sv = self._work(T)
        gv_rows = gv_rows.reshape(T, self.n, self.d)
        # t last: each einsum below runs its inner loop over the T states
        np.copyto(vt, vs.transpose(1, 2, 0))
        np.einsum("jab,jbt->jat", self.gram, vt, out=gv)
        # summed over a as for one (n, d) state: the reduced axis must be contiguous
        np.copyto(gv_rows, gv.transpose(2, 0, 1))
        quad = np.einsum("tja,tja->tj", vs, gv_rows)
        density = cs[:, None] * self.h0  # h = c h0; h0 is zero on an interval
        density *= density
        density += quad
        speeds = np.sqrt(density)
        max_speed = np.max(speeds, axis=1)
        if self.kind == CIRCLE:
            # one (n, T) component at a time keeps the stencil's temporaries small
            fd_max = np.max([np.max(_abs(self.deriv(vt[:, b])), axis=0)
                             for b in range(self.d)], axis=0)
            fd_max = _first_max(fd_max, np.abs(cs) * self.fd_h0_max)
        else:
            # the closures take one BLAS product per state (see Derivative4Interval)
            fd_max = np.max(_abs(self.deriv(vs.swapaxes(0, 1))), axis=(0, 2))
        np.einsum("jab,jbt->jat", self.S, vt, out=Sv)
        sv_quad = np.max(np.einsum("jat,jab,jbt->jt", Sv, self.gram, Sv), axis=0)
        probes = np.einsum("pa,pat->pt", self.div_forms, vt[self.div_probe_idx])
        density *= self.wvol
        rows = {
            "E": 0.5 * np.sum(density, axis=1),
            "c": cs,
            "max_speed": max_speed,
            "c1_monitor": max_speed + fd_max + np.sqrt(_first_max(sv_quad, 0.0)),
            "c1_sv_raw": np.max(_abs(Sv), axis=(0, 1)),
            "div_residual": _first_max(
                np.abs(cs) * self.fd_div_floor, np.max(np.abs(probes), axis=0)
            ),
            "max_vertical": np.max(quad, axis=1),
            "speeds": speeds,
            "envelope_rate": np.abs(cs) * self.envelope_rate_unit,
        }
        if self.singular_windows:
            rows["alpha"], rows["beta"], rows["parity_misfit"] = self.taylor_fits(vs)
        return rows


def state_geometry(state, geometry) -> GridGeometry:
    """The :class:`GridGeometry` of a reduced state, checked against the state.

    ``geometry`` is a metric profile, whose geometry is built on ``len(state.v)``
    nodes, an invariant metric (homogeneous states) or a built geometry such
    as ``problem.geom``, which is returned as it is. v must have shape (n, d),
    or (d,) on the one-node geometry, and c is zero off the circle.
    """
    if isinstance(geometry, GridGeometry):
        geom = geometry
    elif isinstance(geometry, InvariantMetric):
        geom = GridGeometry(geometry)
    else:
        geom = GridGeometry(geometry, len(state.v))
    shape = (geom.d,) if geom.kind == "homogeneous" else (geom.n, geom.d)
    if np.shape(state.v) != shape:
        raise InputError(f"state v has shape {np.shape(state.v)}, the geometry needs {shape}")
    if geom.kind != CIRCLE and state.c != 0.0:
        raise InputError("only a circle state has a nonzero finite horizontal amplitude; "
                         f"this {geom.kind} state has c = {state.c}")
    return geom


# -- public operations -------------------------------------------------------


def _row(state, geometry, c=None):
    """(row, GridGeometry) of one state; ``c`` replaces its horizontal amplitude."""
    geom = state_geometry(state, geometry)
    c = state.c if c is None else c
    rows = geom.rows(np.array([c]), state.v.reshape(1, geom.n, geom.d))
    return {key: val[0] for key, val in rows.items()}, geom


def energy(state, geometry) -> float:
    """Total kinetic energy of a reduced state (of unit orbit volume if homogeneous)."""
    return float(_row(state, geometry)[0]["E"])


def pointwise_speed(state, geometry, j: int | None = None) -> float:
    row, geom = _row(state, geometry)
    if j is None or geom.kind == "homogeneous":
        return float(row["max_speed"])
    if not 0 <= j < geom.n:
        raise InputError(f"grid index {j} out of range [0, {geom.n})")
    return float(row["speeds"][j])


def c1_monitor(state, geometry) -> float:
    return float(_row(state, geometry)[0]["c1_monitor"])


def divergence_residual(state, geometry, h_samples=None) -> float:
    """Largest divergence defect of a state.

    ``h_samples`` replaces the horizontal amplitude c h0 of a grid state by
    arbitrary samples, whose defect is then evaluated on the stencil.
    """
    # at c = 0 the row's residual is the vertical part alone
    row, geom = _row(state, geometry, c=None if h_samples is None else 0.0)
    if h_samples is None or geom.kind == "homogeneous":
        return float(row["div_residual"])
    h = np.asarray(h_samples, float)
    if h.shape != (geom.n,):
        raise InputError(f"h_samples has shape {h.shape}, the grid needs ({geom.n},)")
    res_h = float(np.max(np.abs(geom.deriv(h) - geom.trace_S * h)))
    return max(res_h, float(row["div_residual"]))


def _coefficient_growth(alpha: np.ndarray, beta: np.ndarray) -> float:
    """Largest |coefficient| over its initial value, for the 10x growth rule."""
    floor = 1e-8 * max(1.0, float(np.max(np.abs(alpha[0]))), float(np.max(np.abs(beta[0]))))
    return max(
        float(np.max(np.abs(alpha) / np.maximum(np.abs(alpha[0]), floor))),
        float(np.max(np.abs(beta) / np.maximum(np.abs(beta[0]), floor))),
    )


def endpoint_taylor_monitor(trajectory, geometry):
    """Fit v_i ~ alpha_i + beta_i rho^2 near each singular endpoint over time.

    Returns a dict with arrays ``t``, ``alpha``, ``beta``, ``misfit`` of
    shapes (T,), (T, n_end, d), (T, n_end, d), (T, n_end), plus a growth
    flag per the 10x coefficient rule.
    """
    states = list(trajectory)
    if not states:
        raise InputError("empty trajectory")
    geom = geometry
    for s in states:  # a geometry built for the first state serves the rest
        geom = state_geometry(s, geom)
    if not geom.singular_windows:
        raise ConfigError("endpoint Taylor monitor needs a singular endpoint")
    t = np.array([s.t for s in states])
    alpha, beta, misfit = geom.taylor_fits(np.stack([s.v for s in states]))
    growth = _coefficient_growth(alpha, beta)
    return {
        "t": t,
        "alpha": alpha,
        "beta": beta,
        "misfit": misfit,
        "max_growth": growth,
        "bounded": growth <= TAYLOR_GROWTH_LIMIT,
        "parity_tol": parity_tolerance(geom),
    }


def parity_tolerance(geom: GridGeometry) -> float:
    """Separates odd-component misfits from smooth even-data fit residuals.

    Measured on the (1, rho^2) fit over 6 nodes: data with an odd component
    leaves a residual ~0.06 * window * slope, while smooth even data leaves
    only the quartic tail ~0.06 * window^4. The window^2.5 cut sits between
    the two at every desk resolution. Compare against misfits normalised by
    the data magnitude on the window.
    """
    window = TAYLOR_WINDOW * geom.dr
    return max(0.06 * window**2.5, 1e-9)


# -- run report --------------------------------------------------------------


def series_shapes(d: int, n_singular: int) -> dict:
    """Series name -> shape of one recorded row, for d coefficients per node."""
    shapes = dict.fromkeys(RUN_SERIES + ("E", "c", "max_speed", "c1_monitor", "c1_sv_raw",
                                         "div_residual", "max_vertical"), ())
    if n_singular:
        shapes.update(alpha=(n_singular, d), beta=(n_singular, d), parity_misfit=(n_singular,))
    return shapes


def chunk_rows(state_values: int) -> int:
    """Buffered states per ``rows`` call, for states of ``state_values`` floats."""
    return min(CHUNK_ROWS, max(1, CHUNK_VALUES // state_values))


def row_width(d: int, n_singular: int) -> int:
    """float64 values the recorder stores per row."""
    return sum(math.prod(shape) for shape in series_shapes(d, n_singular).values())


@dataclass
class RunReport:
    """Per-step diagnostic series plus the conservation summary.

    ``series`` maps each name of :func:`series_shapes` to a float64 array
    with one entry per recorded row: (rows,), (rows, n_end, d) or (rows, n_end).
    """

    kind: str
    n_coeff: int
    n_singular: int = 0
    series: dict = field(default_factory=dict)
    summary: dict | None = None
    failure: dict | None = None
    c_bound: float | None = None


class RunRecorder:
    """Records one diagnostic row per recorded step into preallocated series.

    ``n_rows`` is the number of rows the run records at most; each series is
    one float64 array of that length. :meth:`record` stores t and the
    pressure residual at once and buffers (c, v); a full chunk of buffered
    states is evaluated by one ``rows`` call. :meth:`finish` evaluates the
    partial chunk and hands out the recorded rows as views, with a circle's
    amplitude bound.
    """

    def __init__(self, geom: GridGeometry, n_rows: int):
        d, n_singular = geom.d, len(geom.singular_windows)
        self._geom = geom
        self.report = RunReport(kind=geom.kind, n_coeff=d, n_singular=n_singular)
        shapes = series_shapes(d, n_singular)
        self.series = {k: np.empty((n_rows, *shape)) for k, shape in shapes.items()}
        self._row_keys = [k for k in shapes if k not in RUN_SERIES]
        self._t, self._p = self.series["t"], self.series["p_periodicity"]
        self._chunk = chunk_rows(geom.n * d)
        self._cs = np.empty(self._chunk)
        self._vs = np.empty((self._chunk, geom.n, d))  # a homogeneous (d,) state fills one node
        self._n = 0  # rows recorded
        self._done = 0  # rows evaluated
        self._speeds0 = None
        self._lambda_max = 0.0

    def record(self, t, c, v, p_residual=0.0):
        i = self._n
        self._t[i] = t
        self._p[i] = p_residual
        k = i - self._done
        self._cs[k] = c
        self._vs[k] = v
        self._n = i + 1
        if k + 1 == self._chunk:
            self._flush()

    def _flush(self):
        lo, hi = self._done, self._n
        if hi == lo:
            return
        # a finite state can still overflow its squares (a run failing by overflow)
        with np.errstate(invalid="ignore", over="ignore"):
            rows = self._geom.rows(self._cs[: hi - lo], self._vs[: hi - lo])
            speeds = rows["speeds"]
            if self._speeds0 is None:
                self._speeds0 = speeds[0].copy()
            drift = _abs(speeds - self._speeds0)
        s = self.series
        for key in self._row_keys:
            s[key][lo:hi] = rows[key]
        s["speed_drift"][lo:hi] = np.max(drift, axis=1)
        running = np.maximum(np.maximum.accumulate(rows["envelope_rate"]), self._lambda_max)
        s["envelope_rate"][lo:hi] = running
        self._lambda_max = float(running[-1])
        self._done = hi

    def finish(self, failure=None) -> RunReport:
        self._flush()
        report = self.report
        report.series = {k: val[: self._n] for k, val in self.series.items()}
        report.failure = failure
        if report.kind == CIRCLE:
            # the energy bound on c^2 comes from the first row, evaluated by the flush
            report.c_bound = 2.0 * float(report.series["E"][0]) / self._geom.int_h02_vol
        return report


def conservation_report(report: RunReport) -> dict:
    """Summarise drifts and bound margins; attach pass/fail flags.

    Non-finite series values (possible after an overflow failure) simply
    fail their flags; comparisons with NaN are already False.
    """
    s = report.series
    if len(s["t"]) == 0:
        raise InputError("cannot summarise an empty run report")
    E = s["E"]
    e_scale = max(abs(float(E[0])), 1e-30)
    with np.errstate(invalid="ignore", over="ignore"):
        energy_drift = float(np.max(np.abs(E - E[0]))) / e_scale
    summary = {
        "kind": report.kind,
        "t_final": float(s["t"][-1]),
        "energy": {
            "initial": float(E[0]),
            "max_rel_drift": energy_drift,
            "tol": ENERGY_DRIFT_TOL,
            "ok": bool(energy_drift <= ENERGY_DRIFT_TOL),
        },
    }

    if report.kind in ("homogeneous", "interval"):
        drift = float(np.max(s["speed_drift"]))
        summary["pointwise_speed"] = {
            "max_drift": drift,
            "tol": SPEED_DRIFT_TOL,
            "ok": bool(drift <= SPEED_DRIFT_TOL),
        }

    if report.kind == "circle":  # the recorder sets a circle's c_bound
        margin = float(np.max(np.asarray(s["c"]) ** 2 - report.c_bound))
        summary["c_bound"] = {
            "bound": report.c_bound,
            "max_margin": margin,
            "tol": C_BOUND_MARGIN,
            "ok": bool(margin <= C_BOUND_MARGIN),
        }
        mv = np.asarray(s["max_vertical"])
        t = np.asarray(s["t"])
        lam = np.asarray(s["envelope_rate"])
        if mv[0] > 1e-30:
            envelope = mv[0] * np.exp(2.0 * t * lam)
            ratio = float(np.max(mv / envelope))
        else:
            ratio = 1.0 if float(np.max(mv)) <= 1e-25 else np.inf
        summary["max_principle"] = {
            "max_ratio": ratio,
            "tol": ENVELOPE_FACTOR,
            "ok": bool(ratio <= ENVELOPE_FACTOR),
        }

    c1 = np.asarray(s["c1_monitor"])
    c1_floor = max(abs(float(c1[0])), 1e-12)
    growth = float(np.max(c1)) / c1_floor
    summary["c1_monitor"] = {
        "initial": float(c1[0]),
        "max": float(np.max(c1)),
        "max_sv_raw": float(np.max(s["c1_sv_raw"])),
        "growth_factor": growth,
        "limit": C1_GROWTH_LIMIT,
        "ok": bool(growth <= C1_GROWTH_LIMIT),
    }

    div_max = float(np.max(s["div_residual"]))
    summary["divergence"] = {
        "max_residual": div_max,
        "tol": DIV_RESIDUAL_TOL,
        "ok": bool(div_max <= DIV_RESIDUAL_TOL),
    }

    p_max = float(np.max(s["p_periodicity"]))
    summary["pressure_periodicity"] = {
        "max_residual": p_max,
        "tol": PERIODICITY_TOL,
        "ok": bool(p_max <= PERIODICITY_TOL),
    }

    if "alpha" in s and len(s["alpha"]):
        alpha = np.asarray(s["alpha"])
        beta = np.asarray(s["beta"])
        misfit = np.asarray(s["parity_misfit"])
        growth = _coefficient_growth(alpha, beta)
        summary["endpoint_taylor"] = {
            "max_growth": growth,
            "limit": TAYLOR_GROWTH_LIMIT,
            "max_parity_misfit": float(np.max(misfit)),
            "ok": bool(growth <= TAYLOR_GROWTH_LIMIT),
        }

    if report.failure is not None:
        summary["failure"] = report.failure
    summary["all_ok"] = bool(
        report.failure is None
        and all(v["ok"] for v in summary.values() if isinstance(v, dict) and "ok" in v)
    )
    report.summary = summary
    return summary


# -- artifact writers --------------------------------------------------------


def _write_csv(path, header, columns):
    """Header plus one "%.17g" line per row of the columns, formatted in blocks.

    ``columns`` are arrays of equal length, each (rows,) or (rows, k); a
    block of at most CSV_BLOCK_ROWS rows is stacked and formatted at a time.
    """
    n = len(columns[0])
    width = sum(1 if col.ndim == 1 else col.shape[1] for col in columns)
    template = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            block = np.column_stack([col[lo : lo + CSV_BLOCK_ROWS] for col in columns])
            fh.write("".join([template % tuple(row) for row in block.tolist()]))


def write_diagnostics_csv(report: RunReport, path):
    s = report.series
    cols = ["t", "E", "c", "max_speed", "c1_monitor", "div_residual", "p_periodicity"]
    header = list(cols)
    columns = [s[c] for c in cols]
    if "alpha" in s and len(s["alpha"]):
        d = report.n_coeff
        header += [f"alpha_{i + 1}" for i in range(d)] + [f"beta_{i + 1}" for i in range(d)]
        columns += [s["alpha"][:, 0, :], s["beta"][:, 0, :]]  # first singular endpoint
    _write_csv(path, header, columns)


def write_snapshot_csv(path, state, geometry, pressure_samples):
    """One row (r, v, p) per node of the state's geometry; r = 0 on a homogeneous one."""
    geom = state_geometry(state, geometry)
    header = ["r", *(f"v_{i + 1}" for i in range(geom.d)), "p"]
    _write_csv(path, header, [geom.r, state.v.reshape(geom.n, geom.d), pressure_samples])
