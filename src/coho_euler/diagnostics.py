"""Conservation, regularity and blow-up monitors for reduced Euler runs.

Every checkable claim becomes a recorded series: energy, pointwise speeds,
a C1 proxy, divergence residuals, pressure periodicity, endpoint Taylor
coefficients, and the amplitude / maximum-principle bounds. The summary
assembled by :func:`conservation_report` carries one pass/fail flag per
claim with pinned tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coho_geometry import CIRCLE, INTERVAL, SINGULAR, MetricProfile
from .errors import ConfigError, InputError
from .homogeneous_geometry import InvariantMetric, divergence_form
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
N_DIV_PROBES = 8


def _generalized_spectral_radius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest |lambda| of a x = lambda b x for each (symmetric a, SPD b) in the stacks.

    Whitening by the Cholesky factor b = L L^T turns the pencil into the
    symmetric matrix L^-1 a L^-T with the same eigenvalues.
    """
    chol = np.linalg.cholesky(b)
    half = np.linalg.solve(chol, a)  # L^-1 a
    whitened = np.linalg.solve(chol, half.swapaxes(1, 2))  # L^-1 a L^-T, as a is symmetric
    return np.max(np.abs(np.linalg.eigvalsh(whitened)), axis=1)


class GridGeometry:
    """Per-node metric data shared by the solver and the diagnostics.

    Built once per (profile, grid); everything downstream is plain numpy on
    the precomputed arrays, so repeated evaluation is cheap and bit-stable.
    """

    def __init__(self, profile: MetricProfile, grid):
        self.profile = profile
        self.kind = profile.orbit_space.kind
        self.d = profile.dim
        r = np.asarray(grid, dtype=float)
        if r.ndim != 1 or r.size < 4:
            raise InputError("state grid must be a 1-d array with >= 4 nodes")
        self.r = r
        self.n = r.size
        L = profile.length

        if self.kind == CIRCLE:
            self.dr = L / self.n
            if np.max(np.abs(r - self.dr * np.arange(self.n))) > 1e-9 * L:
                raise InputError("circle grid must be uniform on [0, L)")
            self.weights = simpson_weights_periodic(self.n, self.dr)
            self.deriv = Derivative4Periodic(self.n, self.dr)
        else:
            # quadrature runs over the closed grid; integrands vanish at
            # singular endpoints (volume collapse), so their weights are
            # dropped together with the nodes
            self.dr = float(r[1] - r[0])
            m_closed = int(round(L / self.dr)) + 1
            closed = np.linspace(0.0, L, m_closed)
            left, right = profile.orbit_space.endpoint_kinds
            off = 1 if left == SINGULAR else 0
            if off + self.n + (1 if right == SINGULAR else 0) != m_closed or np.max(
                np.abs(r - closed[off : off + self.n])
            ) > 1e-9 * L:
                raise InputError("interval grid does not match the canonical layout")
            self.weights = simpson_weights_closed(m_closed, self.dr)[off : off + self.n]
            self.deriv = Derivative4Interval(self.n, self.dr)

        self.gram = profile.gram_at(r)
        self.gram_prime = profile.gram_prime_at(r)
        self.S = -0.5 * np.linalg.solve(self.gram, self.gram_prime)
        self.vol = np.sqrt(np.linalg.det(self.gram))
        self.rho = _generalized_spectral_radius(-0.5 * self.gram_prime, self.gram)
        self.trace_S = np.trace(self.S, axis1=1, axis2=2)
        self.gramS = np.einsum("jab,jbc->jac", self.gram, self.S)

        if self.kind == CIRCLE:
            vol_mid = profile.volume_at(0.5 * L)
            self.h0 = vol_mid / self.vol
            self.h0_prime = self.trace_S * self.h0
            self.h0_max = float(np.max(self.h0))
            self.fd_div_floor = float(np.max(np.abs(self.deriv(self.h0) - self.h0_prime)))
            self.fd_h0_max = float(np.max(np.abs(self.deriv(self.h0))))
            self.int_h0 = float(np.sum(self.weights * self.h0))
            self.int_h02_vol = float(np.sum(self.weights * self.h0**2 * self.vol))
            self.envelope_rate_unit = float(np.max(self.h0 * self.rho))
        else:
            self.h0 = np.zeros(self.n)
            self.h0_prime = np.zeros(self.n)
            self.h0_max = 0.0
            self.fd_div_floor = 0.0
            self.fd_h0_max = 0.0
            self.int_h0 = 0.0
            self.int_h02_vol = 0.0
            self.envelope_rate_unit = 0.0
        self.wvol = self.weights * self.vol

        probe_idx = np.unique(np.linspace(0, self.n - 1, N_DIV_PROBES).round().astype(int))
        self.div_probe_idx = probe_idx
        self.div_forms = np.array(
            [divergence_form(InvariantMetric(profile.split, self.gram[j])) for j in probe_idx]
        )

        self.singular_windows = []
        if self.kind == INTERVAL:
            left, right = profile.orbit_space.endpoint_kinds
            if left == SINGULAR:
                self.singular_windows.append(self._taylor_window(0.0, slice(0, TAYLOR_WINDOW)))
            if right == SINGULAR:
                self.singular_windows.append(
                    self._taylor_window(L, slice(self.n - TAYLOR_WINDOW, self.n))
                )

    def _taylor_window(self, side, sl):
        if self.n < TAYLOR_WINDOW:
            raise ConfigError(
                f"endpoint Taylor fit needs at least {TAYLOR_WINDOW} interior nodes"
            )
        rho = np.abs(self.r[sl] - side)
        A = np.column_stack([np.ones_like(rho), rho**2])
        pinv = np.linalg.pinv(A)
        resid_proj = np.eye(rho.size) - A @ pinv
        return {"side": side, "slice": sl, "pinv": pinv, "resid": resid_proj, "rho": rho}

    # -- per-state evaluation ------------------------------------------------

    def taylor_fit(self, v: np.ndarray):
        """Per-endpoint (alpha, beta, parity misfit) near singular endpoints."""
        out = []
        for win in self.singular_windows:
            data = v[win["slice"]]
            coef = win["pinv"] @ data  # (2, d)
            resid = win["resid"] @ data
            misfit = float(np.sqrt(np.mean(resid**2)))
            out.append((coef[0], coef[1], misfit))
        return out

    def row(self, c: float, v: np.ndarray) -> dict:
        """Every per-state diagnostic of (c, v), as one recorded row.

        Runs record exactly these values and the public per-state functions
        return them, so the two cannot disagree. Besides the series values
        the row holds the speed samples and the instantaneous envelope rate,
        from which the recorder derives its running series.
        """
        h = c * self.h0  # h0 is zero on an interval
        gv = np.einsum("jab,jb->ja", self.gram, v)
        quad = np.einsum("ja,ja->j", v, gv)
        speeds = np.sqrt(h * h + quad)
        max_speed = float(np.max(speeds))
        fd_max = float(np.max(np.abs(self.deriv(v))))
        if self.kind == CIRCLE:
            fd_max = max(fd_max, abs(c) * self.fd_h0_max)
        Sv = np.einsum("jab,jb->ja", self.S, v)
        sv_gram = float(np.sqrt(max(np.max(np.einsum("ja,jab,jb->j", Sv, self.gram, Sv)), 0.0)))
        res_v = float(np.max(np.abs(np.einsum("pa,pa->p", self.div_forms, v[self.div_probe_idx]))))
        row = {
            "E": 0.5 * float(np.sum(self.wvol * (h * h + quad))),
            "c": c,
            "max_speed": max_speed,
            "c1_monitor": max_speed + fd_max + sv_gram,
            "c1_sv_raw": float(np.max(np.abs(Sv))),
            "div_residual": max(abs(c) * self.fd_div_floor, res_v),
            "max_vertical": float(np.max(quad)),
            "component_energy": 0.5 * np.einsum("j,ja,ja->a", self.wvol, v, gv),
            "speeds": speeds,
            "envelope_rate": abs(c) * self.envelope_rate_unit,
        }
        if self.singular_windows:
            fits = self.taylor_fit(v)
            row["alpha"] = [f[0] for f in fits]
            row["beta"] = [f[1] for f in fits]
            row["parity_misfit"] = [f[2] for f in fits]
        return row


class _OrbitGeometry:
    """The scalar counterpart of :class:`GridGeometry` for homogeneous states."""

    def __init__(self, metric: InvariantMetric):
        self.gram = metric.gram
        self.div_form = divergence_form(metric)

    def row(self, c: float, v: np.ndarray) -> dict:
        """The row of :meth:`GridGeometry.row` for a single orbit; c plays no part."""
        gram = self.gram
        quad = float(v @ gram @ v)
        speed = float(np.sqrt(quad))
        return {
            "E": 0.5 * quad,
            "c": 0.0,
            "max_speed": speed,
            "c1_monitor": speed,
            "c1_sv_raw": 0.0,
            "div_residual": abs(float(self.div_form @ v)),
            "max_vertical": quad,
            "component_energy": 0.5 * v * (gram @ v),
            "speeds": speed,
            "envelope_rate": 0.0,
        }


# -- public operations -------------------------------------------------------


def _row(state, geometry):
    """(row, GridGeometry or None) of one state; ``geometry`` as in :func:`energy`."""
    if isinstance(geometry, InvariantMetric):
        return _OrbitGeometry(geometry).row(0.0, state.v), None
    geom = GridGeometry(geometry, state.grid)
    return geom.row(float(state.c or 0.0), state.v), geom


def energy(state, geometry) -> float:
    """Total kinetic energy of a reduced state.

    ``geometry`` is a metric profile for grid states, or an invariant metric
    for homogeneous states (relative to unit orbit volume).
    """
    return _row(state, geometry)[0]["E"]


def pointwise_speed(state, geometry, j: int | None = None) -> float:
    row, geom = _row(state, geometry)
    if j is None or geom is None:
        return row["max_speed"]
    if not 0 <= j < geom.n:
        raise InputError(f"grid index {j} out of range [0, {geom.n})")
    return float(row["speeds"][j])


def c1_monitor(state, geometry) -> float:
    return _row(state, geometry)[0]["c1_monitor"]


def divergence_residual(state, geometry, h_samples=None) -> float:
    """Largest divergence defect of a state.

    ``h_samples`` replaces the horizontal amplitude c h0 of a grid state by
    arbitrary samples, whose defect is then evaluated on the stencil.
    """
    if h_samples is None or isinstance(geometry, InvariantMetric):
        return _row(state, geometry)[0]["div_residual"]
    geom = GridGeometry(geometry, state.grid)
    h = np.asarray(h_samples, float)
    res_h = float(np.max(np.abs(geom.deriv(h) - geom.trace_S * h)))
    # at c = 0 the row's residual is the vertical part alone
    return max(res_h, geom.row(0.0, state.v)["div_residual"])


def _coefficient_growth(alpha: np.ndarray, beta: np.ndarray) -> float:
    """Largest |coefficient| over its initial value, for the 10x growth rule."""
    floor = 1e-8 * max(1.0, float(np.max(np.abs(alpha[0]))), float(np.max(np.abs(beta[0]))))
    return max(
        float(np.max(np.abs(alpha) / np.maximum(np.abs(alpha[0]), floor))),
        float(np.max(np.abs(beta) / np.maximum(np.abs(beta[0]), floor))),
    )


def endpoint_taylor_monitor(trajectory, profile: MetricProfile):
    """Fit v_i ~ alpha_i + beta_i rho^2 near each singular endpoint over time.

    Returns a dict with arrays ``t``, ``alpha``, ``beta``, ``misfit`` of
    shapes (T,), (T, n_end, d), (T, n_end, d), (T, n_end), plus a growth
    flag per the 10x coefficient rule.
    """
    states = list(trajectory)
    if not states:
        raise InputError("empty trajectory")
    geom = GridGeometry(profile, states[0].grid)
    if not geom.singular_windows:
        raise ConfigError("endpoint Taylor monitor needs a singular endpoint")
    t = np.array([s.t for s in states])
    alpha, beta, misfit = [], [], []
    for s in states:
        fits = geom.taylor_fit(s.v)
        alpha.append([f[0] for f in fits])
        beta.append([f[1] for f in fits])
        misfit.append([f[2] for f in fits])
    alpha = np.array(alpha)
    beta = np.array(beta)
    misfit = np.array(misfit)
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


@dataclass
class RunReport:
    """Per-step diagnostic series plus the conservation summary."""

    kind: str
    n_coeff: int
    n_singular: int = 0
    series: dict = field(default_factory=dict)
    summary: dict | None = None
    failure: dict | None = None
    c_bound: float | None = None

    def finalize(self):
        self.series = {k: np.asarray(val) for k, val in self.series.items()}
        return self


class RunRecorder:
    """Accumulates diagnostics during integration (one row per recorded step)."""

    def __init__(self, kind, geom: GridGeometry | None, metric: InvariantMetric | None):
        self.geom = geom
        d = geom.d if geom is not None else metric.split.dim_m
        self.report = RunReport(kind=kind, n_coeff=d)
        row_keys = ["E", "c", "max_speed", "c1_monitor", "c1_sv_raw", "div_residual",
                    "max_vertical", "component_energy"]
        if geom is not None:
            self.report.n_singular = len(geom.singular_windows)
            self._row = geom.row
            if geom.singular_windows:
                row_keys += ["alpha", "beta", "parity_misfit"]
        else:
            self._row = _OrbitGeometry(metric).row
        self._row_keys = row_keys
        self.series = {k: [] for k in ["t", "p_periodicity", "speed_drift", "envelope_rate"]
                       + row_keys}
        self._speeds0 = None
        self._lambda_max = 0.0

    def record(self, t, c, v, p_residual=0.0):
        s = self.series
        row = self._row(0.0 if c is None else float(c), v)
        s["t"].append(float(t))
        s["p_periodicity"].append(float(p_residual))
        for key in self._row_keys:
            s[key].append(row[key])
        self._lambda_max = max(self._lambda_max, row["envelope_rate"])
        s["envelope_rate"].append(self._lambda_max)
        speeds = row["speeds"]
        if self._speeds0 is None:
            self._speeds0 = speeds
        if self.geom is None:
            s["speed_drift"].append(abs(speeds - self._speeds0))
        else:
            s["speed_drift"].append(float(np.max(np.abs(speeds - self._speeds0))))

    def finish(self, failure=None, c_bound=None) -> RunReport:
        self.report.series = self.series
        self.report.failure = failure
        self.report.c_bound = c_bound
        return self.report.finalize()


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

    if report.kind == "circle" and report.c_bound is not None:
        margin = float(np.max(np.asarray(s["c"]) ** 2 - report.c_bound))
        summary["c_bound"] = {
            "bound": report.c_bound,
            "max_margin": margin,
            "tol": C_BOUND_MARGIN,
            "ok": bool(margin <= C_BOUND_MARGIN),
        }

    if report.kind == "circle":
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


def write_diagnostics_csv(report: RunReport, path):
    s = report.series
    cols = ["t", "E", "c", "max_speed", "c1_monitor", "div_residual", "p_periodicity"]
    header = list(cols)
    extra = []
    if "alpha" in s and len(s["alpha"]):
        d = report.n_coeff
        header += [f"alpha_{i + 1}" for i in range(d)] + [f"beta_{i + 1}" for i in range(d)]
        alpha = np.asarray(s["alpha"])[:, 0, :]  # first singular endpoint
        beta = np.asarray(s["beta"])[:, 0, :]
        extra = [alpha, beta]
    data = np.column_stack([np.asarray(s[c]) for c in cols] + extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def write_snapshot_csv(path, state, pressure_samples):
    v = np.atleast_2d(state.v) if state.v.ndim == 1 else state.v
    if state.grid is None:
        r = np.zeros(1)
        p = np.zeros(1)
    else:
        r = state.grid
        p = pressure_samples
    d = v.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r," + ",".join(f"v_{i + 1}" for i in range(d)) + ",p\n")
        for j in range(r.size):
            vals = [r[j], *v[j], p[j]]
            fh.write(",".join(f"{x:.17g}" for x in vals) + "\n")
