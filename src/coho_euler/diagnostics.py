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
from .errors import ConfigError, InputError, require_instance
from .homogeneous_geometry import InvariantMetric
from .numerics import (
    Derivative4Interval,
    Derivative4Periodic,
    as_count,
    as_float_array,
    simpson_weights_closed,
    simpson_weights_periodic,
    write_csv,
    write_csv_rows,
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
# the most nodes of a state grid: a bracketed fibre's Gamma holds n * d**3 floats
MAX_N = 4096
# the recorder evaluates up to this many buffered states per rows() call,
# fewer when a state is large: its (n, d, T) buffer and each (n, d, T)
# temporary of rows() stay within 128 kB
CHUNK_ROWS = 512
CHUNK_VALUES = 16384
# series that are not a field of a row: the recorder fills them itself
RUN_SERIES = ("t", "p_periodicity", "speed_drift", "envelope_rate")
# series whose largest value over a run the summary reads as it is
PEAK_SERIES = ("speed_drift", "c1_monitor", "c1_sv_raw", "div_residual", "p_periodicity",
               "parity_misfit")


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
    the state nodes. No grid has more than :data:`MAX_N` nodes. Every state
    grid of the package is built here.
    """
    kind = profile.orbit_space.kind
    low, even = GRID_NODES[kind]
    n = as_count(n, "node count n", high=MAX_N)
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

    The fibre's bracket B fixes whether the connection Gamma is nonzero at
    all. Its trace, the vertical divergence -tr_m(P_m ad_{e_b}), is zero: the
    split refuses a complement that is not unimodular. Only a right-hand side
    builds Gamma: a built geometry is read-only.
    """

    def __init__(self, geometry, n=None):
        if not isinstance(geometry, (InvariantMetric, MetricProfile)):
            raise InputError("a GridGeometry is built from a metric profile or an invariant metric, "
                             "and a state's geometry is one of them or a GridGeometry; got "
                             f"{type(geometry).__name__}")
        self.split = geometry.split
        self.d = self.split.dim_m
        self.has_gamma = bool(np.any(self.split.bracket_on_m()))
        if isinstance(geometry, InvariantMetric):
            self.profile, self.kind, self.r, self.n = None, "homogeneous", np.zeros(1), 1
            self.weights = self.vol = np.ones(1)
            self.deriv = np.zeros_like
            self.gram = geometry.gram[None]
            self.S = np.zeros((1, self.d, self.d))
            self.rho = np.zeros(1)
        else:  # nodes, quadrature, stencil and the per-node metric of a profile
            self.profile, self.kind = geometry, geometry.orbit_space.kind
            r, self.weights, self.dr = grid_layout(geometry, n)
            self.r, self.n = r, r.size
            stencil = Derivative4Periodic if self.kind == CIRCLE else Derivative4Interval
            self.deriv = stencil(self.n, self.dr)
            self.gram, self.gram_prime, self.S, self.vol, chol = geometry.metric_at(r)
            # rho, the largest |lambda| of -g'/2 x = lambda g x: whitening by g = L L^T
            # gives the symmetric L^-1 (-g'/2) L^-T, with the same eigenvalues
            half = np.linalg.solve(chol, -0.5 * self.gram_prime)
            whitened = np.linalg.solve(chol, half.swapaxes(1, 2))  # as g' is symmetric
            self.rho = np.max(np.abs(np.linalg.eigvalsh(whitened)), axis=1)
        self.trace_S = np.trace(self.S, axis1=1, axis2=2)
        self.gramS = np.einsum("jab,jbc->jac", self.gram, self.S)
        self.has_S = bool(np.max(np.abs(self.S)) > 0.0)

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

        self.singular_windows = []
        if self.kind == INTERVAL:
            left, right = self.profile.orbit_space.endpoint_kinds
            if left == SINGULAR:
                self.singular_windows.append(self._taylor_window(0.0, slice(0, TAYLOR_WINDOW)))
            if right == SINGULAR:
                self.singular_windows.append(
                    self._taylor_window(self.profile.length, slice(self.n - TAYLOR_WINDOW, self.n))
                )

    def _taylor_window(self, side, sl):
        rho = np.abs(self.r[sl] - side)
        A = np.column_stack([np.ones_like(rho), rho**2])
        pinv = np.linalg.pinv(A)
        return {"slice": sl, "pinv": pinv, "resid": np.eye(rho.size) - A @ pinv}

    # -- per-state evaluation ------------------------------------------------

    def taylor_fits(self, vs: np.ndarray):
        """(alpha, beta, parity misfit) of each state near the singular endpoints.

        ``vs`` has shape (T, n, d), of any strides; the results have shapes
        (T, n_end, d), (T, n_end, d) and (T, n_end). Each window is read into
        one contiguous (T, window, d) block, whose per-state products give
        the same bits whatever the layout of ``vs``.
        """
        coefs, misfits = [], []
        for win in self.singular_windows:
            data = np.ascontiguousarray(vs[:, win["slice"]])
            coefs.append(win["pinv"] @ data)  # (T, 2, d)
            misfits.append(np.sqrt(np.mean((win["resid"] @ data) ** 2, axis=(1, 2))))
        coef = np.stack(coefs, axis=1)
        return coef[:, :, 0], coef[:, :, 1], np.stack(misfits, axis=1)

    def rows(self, cs: np.ndarray, vs: np.ndarray) -> dict:
        """Every per-state diagnostic of T states, as T recorded rows.

        ``cs`` has shape (T,) and ``vs`` (T, n, d). Runs record exactly these
        values and the public per-state functions return them (T = 1), so
        the two cannot disagree; each row's bits do not depend on T. Every
        contraction runs node-last, on ``vs.transpose(1, 2, 0)``: a ``vs``
        that is the transposed view of a contiguous (n, d, T) buffer, as the
        recorder passes, is read in place. Besides the series values the
        rows hold the speed samples (T, n) and the instantaneous envelope
        rate, from which the recorder derives its running series.
        """
        if len(cs) == 1:
            # einsum keeps t as its inner loop only while t has two or more
            # entries; a single state takes the two-state path
            return {key: val[:1] for key, val in self.rows(np.repeat(cs, 2),
                                                           np.repeat(vs, 2, axis=0)).items()}
        T = len(cs)
        # t last: each einsum below runs its inner loop over the T states
        vt = np.ascontiguousarray(vs.transpose(1, 2, 0))
        quad = np.einsum("jat,jat->jt", vt, np.einsum("jab,jbt->jat", self.gram, vt)).T
        density = cs[:, None] * self.h0  # h = c h0; h0 is zero on an interval
        density *= density
        density += quad
        speeds = np.sqrt(density)
        max_speed = np.max(speeds, axis=1)
        # one (n, T) component at a time keeps the stencil's temporaries small;
        # the one-node derivative and fd_h0_max off the circle are zeros, and
        # like the S v terms skipped at zero S, they leave every bit of the row
        fd_max = np.max([np.max(_abs(self.deriv(vt[:, b])), axis=0)
                         for b in range(self.d)], axis=0)
        c1 = max_speed + _first_max(fd_max, np.abs(cs) * self.fd_h0_max)
        sv_raw = np.zeros(T)
        if self.has_S:
            Sv = np.einsum("jab,jbt->jat", self.S, vt)
            gSv = np.einsum("jab,jbt->jat", self.gramS, vt)
            # g(S v, S v) = S v . (g S) v
            sv_quad = np.max(np.einsum("jat,jat->jt", Sv, gSv), axis=0)
            c1 += np.sqrt(_first_max(sv_quad, 0.0))
            sv_raw = np.max(_abs(Sv), axis=(0, 1))
        density *= self.wvol
        rows = {
            "E": 0.5 * np.sum(density, axis=1),
            "c": cs,
            "max_speed": max_speed,
            "c1_monitor": c1,
            "c1_sv_raw": sv_raw,
            "div_residual": np.abs(cs) * self.fd_div_floor,
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
    nodes, an invariant metric (homogeneous states) or a built geometry, such
    as the one ``config.build_problem`` returns for a run, which is returned
    as it is; anything else, which :class:`GridGeometry` refuses, is an
    InputError, as is a state that is no ReducedState. v must have shape
    (n, d), or (d,) on the one-node geometry, and c is zero off the circle.
    """
    from .reduced_euler import ReducedState  # that module imports this one

    require_instance(state, ReducedState, "a state")
    # the one-node geometry takes no n
    geom = geometry if isinstance(geometry, GridGeometry) else GridGeometry(geometry, len(state.v))
    shape = (geom.d,) if geom.kind == "homogeneous" else (geom.n, geom.d)
    if np.shape(state.v) != shape:
        raise InputError(f"state v has shape {np.shape(state.v)}, the geometry needs {shape}")
    if geom.kind != CIRCLE and state.c != 0.0:
        raise InputError("only a circle state has a nonzero finite horizontal amplitude; "
                         f"this {geom.kind} state has c = {state.c}")
    return geom


# -- public operations -------------------------------------------------------


def _row(state, geometry):
    """(row, GridGeometry) of one state."""
    geom = state_geometry(state, geometry)
    rows = geom.rows(np.array([state.c]), state.v.reshape(1, geom.n, geom.d))
    return {key: val[0] for key, val in rows.items()}, geom


def energy(state, geometry) -> float:
    """Total kinetic energy of a reduced state (of unit orbit volume if homogeneous)."""
    return float(_row(state, geometry)[0]["E"])


def pointwise_speed(state, geometry, j: int | None = None) -> float:
    row, geom = _row(state, geometry)
    if j is None:
        return float(row["max_speed"])
    j = as_count(j, "grid index")
    if not 0 <= j < geom.n:
        raise InputError(f"grid index {j} out of range [0, {geom.n})")
    return float(row["speeds"][j])


def c1_monitor(state, geometry) -> float:
    return float(_row(state, geometry)[0]["c1_monitor"])


def divergence_residual(state, geometry, h_samples=None) -> float:
    """Largest divergence defect of a state.

    ``h_samples`` replaces the horizontal amplitude c h0 of a grid state by
    arbitrary samples, whose defect max|h' - tr S h| is then evaluated on the
    stencil. The vertical part is zero: the split's complement is unimodular.
    """
    if h_samples is None:
        return float(_row(state, geometry)[0]["div_residual"])
    geom = state_geometry(state, geometry)
    h = as_float_array(h_samples, (geom.n,), "h_samples")
    return float(np.max(np.abs(geom.deriv(h) - geom.trace_S * h)))


def _growth_ratios(alpha, beta, alpha0, beta0):
    """Largest |alpha| and |beta| over their first values; the 10x rule takes max(alpha, beta)."""
    floor = 1e-8 * max(1.0, float(np.max(np.abs(alpha0))), float(np.max(np.abs(beta0))))
    return (np.max(np.abs(alpha) / np.maximum(np.abs(alpha0), floor)),
            np.max(np.abs(beta) / np.maximum(np.abs(beta0), floor)))


def endpoint_taylor_monitor(trajectory, geometry):
    """Fit v_i ~ alpha_i + beta_i rho^2 near each singular endpoint over time.

    Returns a dict with arrays ``t``, ``alpha``, ``beta``, ``misfit`` of
    shapes (T,), (T, n_end, d), (T, n_end, d), (T, n_end), the largest
    coefficient growth ``max_growth`` and ``bounded``, its 10x rule. The
    misfit is reported, not judged: odd initial data is refused exactly,
    from its coefficients, before a run starts.
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
    growth = max(map(float, _growth_ratios(alpha, beta, alpha[0], beta[0])))
    return {
        "t": t,
        "alpha": alpha,
        "beta": beta,
        "misfit": misfit,
        "max_growth": growth,
        "bounded": growth <= TAYLOR_GROWTH_LIMIT,
    }


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
    """float64 values of one recorded row, as the recorded-rows budget counts them."""
    return sum(math.prod(shape) for shape in series_shapes(d, n_singular).values())


@dataclass
class RunReport:
    """A run's diagnostic rows folded into the values its summary reads.

    ``first`` maps each name of :func:`series_shapes` to the first row's
    value and ``peaks`` holds running maxima over every row (see
    :meth:`RunRecorder._fold`). The rows are not kept: a caller that wants
    them passes a row sink to ``integrate``.
    """

    kind: str
    n_singular: int = 0
    rows: int = 0
    t_final: float | None = None
    first: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)
    summary: dict | None = None
    failure: dict | None = None
    c_bound: float | None = None


class RunRecorder:
    """Records one diagnostic row per recorded step, holding one chunk of rows at a time.

    :meth:`record` buffers t, the pressure residual and (c, v), v as one
    column of a node-last (n, d, chunk) buffer. A full chunk is evaluated in
    place by one ``rows`` call, folded into the report, handed to
    ``sink`` (if any) as a dict of arrays the sink owns, one entry per row
    and keyed by the names of :func:`series_shapes`, and dropped: memory
    does not grow with the run's length. :meth:`finish` flushes the partial
    chunk and returns the report, with a circle's amplitude bound.
    """

    def __init__(self, geom: GridGeometry, sink=None):
        self._geom = geom
        self._sink = sink
        self.report = RunReport(kind=geom.kind, n_singular=len(geom.singular_windows))
        self._chunk = chunk_rows(geom.n * geom.d)
        self._ts, self._ps, self._cs = np.empty((3, self._chunk))
        # node-last, one state per column: rows() reads full chunks in place
        self._vt = np.empty((geom.n, geom.d, self._chunk))
        self._k = 0  # rows buffered
        self._speeds0 = None
        self._lambda_max = 0.0

    def record(self, t, c, v, p_residual=0.0):
        k = self._k
        self._ts[k], self._ps[k], self._cs[k] = t, p_residual, c
        self._vt[..., k] = v  # a (d,) state fills node 0
        self._k = k + 1
        if k + 1 == self._chunk:
            self._flush()

    def _flush(self):
        k = self._k
        if not k:
            return
        # a finite state can still overflow its squares (a run failing by overflow)
        with np.errstate(invalid="ignore", over="ignore"):
            rows = self._geom.rows(self._cs[:k].copy(), self._vt[..., :k].transpose(2, 0, 1))
            speeds = rows.pop("speeds")
            if self._speeds0 is None:
                self._speeds0 = speeds[0].copy()
            rows["speed_drift"] = np.max(_abs(speeds - self._speeds0), axis=1)
            running = np.maximum(np.maximum.accumulate(rows["envelope_rate"]), self._lambda_max)
            rows["envelope_rate"] = running
            self._lambda_max = float(running[-1])
            rows["t"], rows["p_periodicity"] = self._ts[:k].copy(), self._ps[:k].copy()
            self._fold(rows)
        self._k = 0
        if self._sink is not None:
            self._sink(rows)

    def _fold(self, rows):
        """Fold a chunk into the report: its first row and the running maxima.

        The maxima are taken with ``np.maximum``, which, like ``np.max`` over a
        whole series, propagates NaN.
        """
        report = self.report
        first = report.first
        if not first:
            first.update((key, np.copy(val[0])) for key, val in rows.items())
            if report.kind == CIRCLE:
                # the energy bound on c^2 comes from the first row
                report.c_bound = 2.0 * float(first["E"]) / self._geom.int_h02_vol
        report.rows += len(rows["t"])
        report.t_final = float(rows["t"][-1])
        peaks = {key: rows[key] for key in PEAK_SERIES if key in rows}
        peaks["energy"] = np.abs(rows["E"] - first["E"])
        if report.kind == CIRCLE:
            peaks["c_margin"] = rows["c"] ** 2 - report.c_bound
            mv, mv0 = rows["max_vertical"], first["max_vertical"]
            # the envelope ratio; a state starting at rest reads 1 while it stays
            # at rest and inf once it moves (NaN included)
            peaks["envelope"] = (mv / (mv0 * np.exp(2.0 * rows["t"] * rows["envelope_rate"]))
                                 if mv0 > 1e-30 else np.where(mv <= 1e-25, 1.0, np.inf))
        if report.n_singular:
            peaks["alpha"], peaks["beta"] = _growth_ratios(rows["alpha"], rows["beta"],
                                                           first["alpha"], first["beta"])
        for key, val in peaks.items():
            report.peaks[key] = np.maximum(report.peaks.get(key, -np.inf), np.max(val))

    def finish(self, failure=None) -> RunReport:
        self._flush()
        self.report.failure = failure
        return self.report


def _claim(value, limit, value_key, limit_key="tol", /, **values) -> dict:
    """One summary flag: ``value`` against its ``limit``, with the block's other values.

    A NaN value fails its flag, as every comparison with NaN is False.
    """
    return {**values, value_key: value, limit_key: limit, "ok": bool(value <= limit)}


def conservation_report(report: RunReport) -> dict:
    """Summarise drifts and bound margins; attach pass/fail flags.

    Every flag is a :func:`_claim`; non-finite values (possible after an
    overflow failure) simply fail theirs.
    """
    if not report.rows:
        raise InputError("cannot summarise an empty run report")
    first = report.first
    peaks = {key: float(val) for key, val in report.peaks.items()}
    energy_drift = peaks["energy"] / max(abs(float(first["E"])), 1e-30)
    summary = {
        "kind": report.kind,
        "t_final": report.t_final,
        "energy": _claim(energy_drift, ENERGY_DRIFT_TOL, "max_rel_drift",
                         initial=float(first["E"])),
    }
    if report.kind in ("homogeneous", "interval"):
        summary["pointwise_speed"] = _claim(peaks["speed_drift"], SPEED_DRIFT_TOL, "max_drift")
    if report.kind == "circle":  # the recorder sets a circle's c_bound
        summary["c_bound"] = _claim(peaks["c_margin"], C_BOUND_MARGIN, "max_margin",
                                    bound=report.c_bound)
        summary["max_principle"] = _claim(peaks["envelope"], ENVELOPE_FACTOR, "max_ratio")
    c1_0 = float(first["c1_monitor"])
    summary["c1_monitor"] = _claim(
        peaks["c1_monitor"] / max(abs(c1_0), 1e-12), C1_GROWTH_LIMIT, "growth_factor", "limit",
        initial=c1_0, max=peaks["c1_monitor"], max_sv_raw=peaks["c1_sv_raw"])
    summary["divergence"] = _claim(peaks["div_residual"], DIV_RESIDUAL_TOL, "max_residual")
    summary["pressure_periodicity"] = _claim(peaks["p_periodicity"], PERIODICITY_TOL,
                                             "max_residual")
    if report.n_singular:
        summary["endpoint_taylor"] = _claim(
            max(peaks["alpha"], peaks["beta"]), TAYLOR_GROWTH_LIMIT, "max_growth", "limit",
            max_parity_misfit=peaks["parity_misfit"])

    if report.failure is not None:
        summary["failure"] = report.failure
    summary["all_ok"] = bool(
        report.failure is None
        and all(v["ok"] for v in summary.values() if isinstance(v, dict) and "ok" in v)
    )
    report.summary = summary
    return summary


# -- artifact writers --------------------------------------------------------


def write_diagnostics_csv(fh, rows: dict):
    """Append recorded rows, as a run's sink hands them over, to an open diagnostics.csv.

    The header goes first, while the file is still empty. An interval with a
    singular endpoint adds the Taylor coefficients of the first one.
    """
    cols = ["t", "E", "c", "max_speed", "c1_monitor", "div_residual", "p_periodicity"]
    header = list(cols)
    columns = [rows[c] for c in cols]
    if "alpha" in rows:
        d = rows["alpha"].shape[-1]
        header += [f"alpha_{i + 1}" for i in range(d)] + [f"beta_{i + 1}" for i in range(d)]
        columns += [rows["alpha"][:, 0, :], rows["beta"][:, 0, :]]  # first singular endpoint
    if fh.tell() == 0:
        fh.write(",".join(header) + "\n")
    write_csv_rows(fh, columns)


def write_snapshot_csv(path, state, geometry, pressure_samples):
    """One row (r, v, p) per node of the state's geometry; r = 0 on a homogeneous one."""
    geom = state_geometry(state, geometry)
    header = ["r", *(f"v_{i + 1}" for i in range(geom.d)), "p"]
    write_csv(path, header, [geom.r, state.v.reshape(geom.n, geom.d), pressure_samples])
