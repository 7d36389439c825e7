"""Metric data dr^2 + g_r over an interval or circle of orbits.

A profile bundles the orbit-space descriptor, the reductive split of the
fibre, and a one-parameter family of Gram matrices with exact r-derivatives.
From these it derives the shape operator S_r = -1/2 g_r^{-1} g_r', the mean
curvature as its trace, relative orbit volumes, and the divergence-free
horizontal amplitude profile.

Convention note: with the shape operator above, trace(S_r) equals
-d/dr ln sqrt(det g_r), verified against the coordinate divergence
div(h dr) = h' + (f'/f) h on the flat model dr^2 + f(r)^2 dtheta^2. The
divergence-free horizontal profile is therefore h0(r) = vol(L/2)/vol(r),
with no square root. Validation surfaces this identity as a named check so
a disagreeing derivative table cannot pass silently.
"""

from __future__ import annotations

import io
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InputError,
    StructureError,
    UnsupportedConfigurationError,
    require_instance,
)
from .homogeneous_geometry import check_grams
from .lie_core import MAX_DIM, ReductiveSplit, abelian, reductive_split, su2
from .numerics import as_float_array, as_list, as_real, cubic_spline, write_csv
from .reports import ValidationReport

INTERVAL = "interval"
CIRCLE = "circle"
SINGULAR = "singular"
BOUNDARY = "boundary"

PROBE_POINTS = 512
FD_STEP = 1e-5
# the most Fourier modes of a series: an entry holds at most 2 * MAX_MODES + 1 coefficients
MAX_MODES = 1024


@dataclass(frozen=True)
class OrbitSpace:
    """Interval or circle of orbit parameters, with endpoint types."""

    kind: str
    length: float
    endpoint_kinds: tuple[str, str] | None = None

    def __post_init__(self):
        if self.kind not in (INTERVAL, CIRCLE):
            raise InputError(f"unknown orbit-space kind {self.kind!r}")
        as_real(self.length, "orbit-space length", positive=True)
        if self.kind == CIRCLE:
            if self.endpoint_kinds is not None:
                raise InputError("a circle orbit space has no endpoint kinds")
        else:
            kinds = self.endpoint_kinds
            if kinds is None or len(as_list(kinds, "endpoint kinds")) != 2:
                raise InputError("an interval orbit space needs two endpoint kinds")
            for k in kinds:
                if k not in (SINGULAR, BOUNDARY):
                    raise InputError(f"unknown endpoint kind {k!r}")


class MetricProfile:
    """Base class for one-parameter families of invariant orbit metrics."""

    def __init__(self, split: ReductiveSplit, orbit_space: OrbitSpace):
        require_instance(split, ReductiveSplit, "a split")
        require_instance(orbit_space, OrbitSpace, "an orbit space")
        self.split = split
        self.orbit_space = orbit_space
        split.require_fixed_complement()

    def _grams(self, r: np.ndarray):
        """(g_r, g_r') at a 1-d array of already-reduced radii, as two (n, d, d)
        stacks sampled in one pass; each family provides it."""
        raise NotImplementedError

    @property
    def dim(self) -> int:
        return self.split.dim_m

    @property
    def length(self) -> float:
        return self.orbit_space.length

    def reduce(self, r):
        """Map r (a radius or a 1-d array of radii) into the domain.

        Raises :class:`InputError` for an argument that is neither, and :class:`DomainError` if
        any radius is not finite, lies outside an interval, or is at or beyond a singular endpoint.
        """
        rs = as_float_array(r, name="r", finite=False)
        if rs.ndim > 1:
            raise InputError(f"r must be a radius or a 1-d array of radii, got shape {rs.shape}")
        flat = rs.reshape(-1)
        L = self.orbit_space.length
        bad = ~np.isfinite(flat)
        if np.any(bad):
            raise DomainError(f"coordinate {float(flat[bad][0])!r} is not finite")
        if self.orbit_space.kind == CIRCLE:
            rs = rs % L
        else:
            left, right = self.orbit_space.endpoint_kinds
            bad = (flat < 0.0) | (flat > L)
            if np.any(bad):
                raise DomainError(f"coordinate {float(flat[bad][0])} outside the interval [0, {L}]")
            if left == SINGULAR and np.any(flat <= 0.0):
                raise DomainError("coordinate at or beyond the singular endpoint r = 0")
            if right == SINGULAR and np.any(flat >= L):
                raise DomainError(f"coordinate at or beyond the singular endpoint r = {L}")
        return rs if rs.ndim else float(rs)

    # every accessor takes a radius, or a 1-d array of radii for a stack, and
    # samples through _grams; a radius is an array of one
    def _grams_at(self, r):
        g, gp = self._grams(np.atleast_1d(self.reduce(r)))
        return (g, gp) if np.ndim(r) else (g[0], gp[0])

    def gram_at(self, r) -> np.ndarray:
        return self._grams_at(r)[0]

    def gram_prime_at(self, r) -> np.ndarray:
        return self._grams_at(r)[1]

    def _tested_grams_at(self, rs: np.ndarray):
        """(g, g', vol, chol) at a 1-d array of radii: the one place vol = sqrt(det g)
        is formed, from the determinant of the one :func:`check_grams` test of g,
        whose Cholesky factors ``chol`` it hands on."""
        g, gp = self._grams_at(rs)
        _, det, chol = check_grams(g, rs)
        return g, gp, np.sqrt(det), chol

    def metric_at(self, rs: np.ndarray):
        """(g, g', S, vol, chol) at a 1-d array of radii: the one place S = -1/2 g^-1 g'
        is formed."""
        g, gp, vol, chol = self._tested_grams_at(rs)
        return g, gp, -0.5 * np.linalg.solve(g, gp), vol, chol

    def shape_operator_at(self, r) -> np.ndarray:
        S = self.metric_at(np.atleast_1d(r))[2]
        return S if np.ndim(r) else S[0]

    def mean_curvature_at(self, r):
        H = np.trace(self.shape_operator_at(r), axis1=-2, axis2=-1)
        return H if np.ndim(r) else float(H)

    def volume_at(self, r):
        vol = self._tested_grams_at(np.atleast_1d(r))[2]  # forms no S
        return vol if np.ndim(r) else float(vol[0])

    def h0_at(self, r):
        if self.orbit_space.kind != CIRCLE:
            raise UnsupportedConfigurationError(
                "the divergence-free horizontal profile vanishes identically on "
                "an interval orbit space; only circles carry a nonzero one"
            )
        return self.volume_at(0.5 * self.length) / self.volume_at(r)


def _diagonal_stack(entries) -> np.ndarray:
    """(n, d, d) diagonal matrices from the d arrays of their diagonal entries."""
    d, n = len(entries), len(entries[0])
    out = np.zeros((n, d, d))
    out[:, np.arange(d), np.arange(d)] = np.column_stack(entries)
    return out


class RoundS3T2Profile(MetricProfile):
    """The round 3-sphere under its torus action: g_r = diag(cos^2 r, sin^2 r).

    Orbit space [0, pi/2] with the fibre circles collapsing at either end.
    """

    def __init__(self):
        split = reductive_split(abelian(2), [])
        space = OrbitSpace(INTERVAL, np.pi / 2.0, (SINGULAR, SINGULAR))
        super().__init__(split, space)

    def _grams(self, r):
        c, s = np.cos(r), np.sin(r)
        s2 = np.sin(2.0 * r)
        return _diagonal_stack([c * c, s * s]), _diagonal_stack([-s2, s2])


class FourierDiagonalProfile(MetricProfile):
    """Diagonal g_r on a circle with log-entries given by truncated Fourier sums.

    Entry i is f_i(r)^2 = exp(a0 + sum_k a_k cos(2 pi k r / L) + b_k sin(...)),
    so positivity and smooth periodicity hold by construction. Used both for
    flat-torus fibres and for su(2) fibres.
    """

    def __init__(self, split: ReductiveSplit, length: float, coefficients):
        space = OrbitSpace(CIRCLE, length)
        super().__init__(split, space)
        coefficients = as_list(coefficients, "Fourier coefficients")
        if len(coefficients) != split.dim_m:
            raise InputError(f"need {split.dim_m} coefficient lists, got {len(coefficients)}")
        self.coefficients = [as_float_array(entry, name="Fourier entry") for entry in coefficients]
        if any(arr.ndim != 1 or arr.size % 2 == 0 for arr in self.coefficients):
            raise InputError("each Fourier entry must be a finite odd-length list "
                             "[a0, a1, b1, a2, b2, ...]")
        for i, arr in enumerate(self.coefficients):
            if arr.size > 2 * MAX_MODES + 1:
                raise InputError(f"Fourier entry {i} has {arr.size} coefficients, "
                                 f"more than {2 * MAX_MODES + 1} ({MAX_MODES} modes)")

    def _phases(self, r):
        """cos and sin of every mode's phase 2 pi k r / L at each radius, as (n, k) arrays."""
        ks = np.arange(1, max(e.size for e in self.coefficients) // 2 + 1)
        ang = 2.0 * np.pi * ks * r[:, None] / self.length
        return np.cos(ang), np.sin(ang)

    def _grams(self, r):
        """Each entry exp(phi) and its r-derivative exp(phi) phi', which reuses exp(phi)."""
        cos, sin = self._phases(r)
        entries, primes = [], []
        # a log-entry past ~709 overflows to an inf entry, which check_grams
        # refuses by name; numpy's overflow warning would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for e in self.coefficients:
                k = e.size // 2
                a, b, c, s = e[1::2], e[2::2], cos[:, :k], sin[:, :k]
                entries.append(np.exp(e[0] + np.sum(a * c, axis=1) + np.sum(b * s, axis=1)))
                primes.append(entries[-1] * np.sum((2.0 * np.pi * np.arange(1, k + 1) / self.length)
                                                   * (-a * s + b * c), axis=1))
        return _diagonal_stack(entries), _diagonal_stack(primes)


def warped_torus(length: float, coefficients) -> FourierDiagonalProfile:
    """Flat-torus fibres: abelian algebra, one circle per diagonal entry."""
    coefficients = as_list(coefficients, "Fourier coefficients")
    if not 1 <= len(coefficients) <= MAX_DIM:
        raise InputError(f"flat-torus fibres need 1 to {MAX_DIM} diagonal entries, "
                         f"got {len(coefficients)}")
    split = reductive_split(abelian(len(coefficients)), [])
    return FourierDiagonalProfile(split, length, coefficients)


def berger_circle(length: float, coefficients) -> FourierDiagonalProfile:
    """su(2) fibres with a diagonal left-invariant metric varying over the base."""
    if len(as_list(coefficients, "Fourier coefficients")) != 3:
        raise InputError("su(2) fibres need exactly three diagonal entries")
    return FourierDiagonalProfile(reductive_split(su2(), []), length, coefficients)


class TabulatedProfile(MetricProfile):
    """Gram matrices and derivatives sampled on a grid, cubic-spline interpolated.

    The two tables, stacked as one (n, 2, d, d) table, are interpolated by
    one :func:`numerics.cubic_spline`, a numpy copy of
    ``scipy.interpolate.CubicSpline`` that equals it bit for bit entry by
    entry: not-a-knot on an interval, periodic on a circle, where the first
    and last samples must agree. Derivative samples are supplied by the caller;
    differentiating user data numerically would silently degrade every
    conservation diagnostic, so it is never done here.
    """

    def __init__(self, split, orbit_space, r_samples, gram_samples, gram_prime_samples):
        super().__init__(split, orbit_space)
        r, g, gp = (as_float_array(table, name=f"tabulated {name}") for name, table in
                    (("r", r_samples), ("gram", gram_samples), ("gram'", gram_prime_samples)))
        d = split.dim_m
        if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
            raise InputError("tabulated r samples must be strictly increasing, >= 4")
        if g.shape != (r.size, d, d) or gp.shape != g.shape:
            raise InputError("tabulated gram arrays must have shape (n, d, d)")
        if abs(r[0]) > 1e-12 or abs(r[-1] - orbit_space.length) > 1e-9:
            raise InputError("tabulated samples must cover [0, L] inclusive")
        periodic = orbit_space.kind == CIRCLE
        if periodic:
            for name, table in (("gram", g), ("gram'", gp)):
                if not np.allclose(table[0], table[-1], rtol=1e-15, atol=1e-15):
                    raise StructureError(
                        f"tabulated profile is not periodic: the first and last {name} "
                        "samples differ"
                    )
        self._spline = cubic_spline(r, np.stack((g, gp), axis=1), periodic)
        self.r_samples = r

    def _grams(self, r):
        both = self._spline(r)
        both = 0.5 * (both + both.swapaxes(2, 3))
        return both[:, 0], both[:, 1]


def load_tabulated_csv(path):
    """Read (r, gram, gram') samples from a UTF-8 CSV file.

    Mandatory header row, then columns: r, the upper triangle of gram in
    row-major order, then the upper triangle of gram' in the same order.
    The file is read and decoded whole, in one place, before any parsing.
    A path that names no regular file, or a file that cannot be read or
    decoded, is one InputError that names the path.
    """
    reason = "not a regular file"  # a directory, or a device or pipe the read could hang on
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            with open(path, "r", encoding="utf-8") as fh:
                rows, reason = io.StringIO(fh.read()), None
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text: {exc.reason} at byte offset {exc.start}"
    # ValueError: a NUL or an unencodable character, which no file name holds
    except (FileNotFoundError, NotADirectoryError, ValueError):
        raise InputError(f"no such file {path}") from None
    except OSError as exc:
        reason = exc.strerror
    if reason is not None:
        raise InputError(f"cannot read {path}: {reason}")
    header = rows.readline().strip()
    if not header or header.split(",")[0].strip().lower() != "r":
        raise InputError(f"{path}: first CSV column must be named 'r'")
    lines = rows.readlines()
    # blank lines and "#" comments are all np.loadtxt would skip
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise InputError(f"{path}: no numeric rows below the header")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"{path}: could not parse numeric rows: {exc}") from exc
    ncols = data.shape[1]
    ntri = (ncols - 1) // 2
    d = int(round((np.sqrt(8 * ntri + 1) - 1) / 2))
    if ncols != 1 + d * (d + 1) or d < 1:
        raise InputError(
            f"{path}: {ncols} columns do not match 1 + 2 * d(d+1)/2 for any d"
        )
    iu = np.triu_indices(d)
    tables = np.zeros((data.shape[0], 2, d, d))  # gram and gram' at each sample
    tables[:, :, iu[0], iu[1]] = data[:, 1:].reshape(-1, 2, ntri)
    tables += np.triu(tables, 1).swapaxes(2, 3)
    return data[:, 0], tables[:, 0], tables[:, 1]


def write_tabulated_csv(path, r, gram, gram_prime):
    d = gram.shape[1]
    iu = np.triu_indices(d)
    names = ["r"]
    names += [f"g_{i + 1}{j + 1}" for i, j in zip(*iu)]
    names += [f"gp_{i + 1}{j + 1}" for i, j in zip(*iu)]
    write_csv(path, names, [r, gram[:, iu[0], iu[1]], gram_prime[:, iu[0], iu[1]]])


def _probe_grid(profile: MetricProfile, n=PROBE_POINTS) -> np.ndarray:
    offset = 0.0 if profile.orbit_space.kind == CIRCLE else 0.5
    return profile.length * (np.arange(n) + offset) / n


def trace_identity_probes(profile: MetricProfile, n=PROBE_POINTS) -> np.ndarray:
    """Probe locations for the mean-curvature trace identity: on a circle, the probe grid."""
    if profile.orbit_space.kind == CIRCLE:
        return _probe_grid(profile, n)
    L = profile.length
    left, right = profile.orbit_space.endpoint_kinds
    lo = 0.05 * L if left == SINGULAR else 2 * FD_STEP
    hi = 0.95 * L if right == SINGULAR else L - 2 * FD_STEP
    return np.linspace(lo, hi, n)


def gram_positivity(profile: MetricProfile, rs: np.ndarray, name: str) -> ValidationReport:
    """One check ``name``: g_r passes :func:`check_grams` at every radius of ``rs``."""
    report = ValidationReport()
    lam_min = report.attempt(name, None, lambda: check_grams(profile.gram_at(rs), rs)[0])
    if lam_min is not None:
        j = int(np.argmin(lam_min))
        report.add_flag(name, True, f"min eigenvalue {lam_min[j]:.3e} at r = {rs[j]:.6g}")
    return report


def validate_profile(profile: MetricProfile) -> ValidationReport:
    """Positivity, endpoint collapse, periodicity and parity checks.

    Each check samples the profile once on its whole probe array.
    """
    L = profile.length
    probes = _probe_grid(profile)
    report = gram_positivity(profile, probes, "gram_positive_on_probe_grid")
    if not report.passed:
        # every later check divides by volumes; report what we have
        return report

    # trace(S_r) + d/dr ln sqrt(det gram) = 0: ties the derivative table to the
    # metric table and pins the no-half mean-curvature convention. Near a
    # collapsed orbit the identity involves quantities diverging like 1/r, so
    # the probe band stays clear of singular endpoints; it is the identity
    # being checked there, not the finite difference.
    # A volume past the float range is inf, and the residual then nan, which
    # fails the check by name without a numpy warning.
    rs = trace_identity_probes(profile)

    def trace_residual():
        with np.errstate(over="ignore", invalid="ignore"):
            lnv = np.log(profile.volume_at(rs + FD_STEP)) - np.log(profile.volume_at(rs - FD_STEP))
            return np.max(np.abs(profile.mean_curvature_at(rs) + lnv / (2 * FD_STEP)))

    worst = report.attempt("mean_curvature_trace_identity", None, trace_residual)
    if worst is not None:
        report.add("mean_curvature_trace_identity", worst, 1e-6)

    if profile.orbit_space.kind == CIRCLE:
        ends = np.array([0.0, L])  # not reduced, which would map L to 0
        g, gp = profile._grams(ends)
        # rounding grows with the entries, so each gap is relative to max(1,
        # the largest entry it compares) and a metric in other units reads the
        # same; g' = g (ln g)' rounds at g's scale even where it vanishes
        scale = max(1.0, np.max(np.abs(g)))
        resid = max(np.max(np.abs(g[0] - g[1])) / scale,
                    np.max(np.abs(gp[0] - gp[1])) / max(scale, np.max(np.abs(gp))))
        report.add("periodicity", resid, 1e-10)
    else:
        for side, kind in zip((0.0, L), profile.orbit_space.endpoint_kinds):
            tag = f"r={side:g}"
            eps = L * np.geomspace(1e-2, 1e-8, 13)
            rs = side + eps if side == 0.0 else side - eps
            if kind == SINGULAR:
                name = f"volume_collapse_at_{tag}"
                vols = report.attempt(name, None, profile.volume_at, rs)
                if vols is not None:
                    collapsing = np.all(np.diff(vols) < 0) and vols[-1] < 1e-6
                    report.add_flag(name, bool(collapsing), f"closest sample {vols[-1]:.3e}")
                report.extend(_parity_check(profile, side, tag))
            else:  # g_r stays positive definite, and its volume positive, up to the end
                report.extend(gram_positivity(profile, rs, f"volume_positive_at_{tag}"))

    if isinstance(profile, TabulatedProfile):
        dg = profile._spline.derivative()(probes)[:, 0]
        worst = np.max(np.abs(dg - profile.gram_prime_at(probes)))
        report.add("tabulated_derivative_consistency", worst, 1e-6)
    return report


def _parity_check(profile, side, tag) -> ValidationReport:
    """Collapsing diagonal entries must vanish to second order at the endpoint."""
    report = ValidationReport()
    L = profile.length
    eps = 1e-2 * L
    r1 = side + eps if side == 0.0 else side - eps
    r2 = side + eps / 2 if side == 0.0 else side - eps / 2
    g1, g2 = np.diagonal(profile.gram_at(np.array([r1, r2])), axis1=1, axis2=2)
    collapsing = ~(g1 > 1e-2 * float(np.max(g1)))  # the other directions keep their size
    name = f"second_order_collapse_at_{tag}"
    if collapsing.any():
        ratio1, ratio2 = g1[collapsing] / eps**2, g2[collapsing] / (eps / 2) ** 2
        report.add(name, np.max(np.abs(ratio1 - ratio2) / np.maximum(np.abs(ratio2), 1e-30)), 5e-2)
    else:
        report.add_flag(name, False, "no collapsing entry found")
    return report
