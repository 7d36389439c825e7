"""Run configuration: a strict JSON schema per problem kind, and one check pass.

:func:`parse_config_dict` walks the schema of the config's ``problem.kind``,
a table built from the field specs below, and collects every error with its
field path. Unknown keys are rejected everywhere; a silently ignored option
would masquerade as physics. :func:`check_config` then builds the problem
and runs every structural check into one :class:`ValidationReport`: the
algebra axioms and the reductive split, metric invariance or the profile
checks, the initial data, and the step count. ``coho-euler run`` refuses a
config whose report fails before it writes anything; ``coho-euler validate``
prints the report. Initial data is entered as coefficients (constants,
polynomials in r, or Fourier modes) so periodicity and endpoint parity can
be checked symbolically before any discretisation happens.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import coho_geometry as cg
from .coho_geometry import CIRCLE, INTERVAL
from .diagnostics import GRID_NODES, GridGeometry, grid_layout, grid_rule, parity_tolerance
from .diagnostics import row_width
from .errors import ConfigError, InputError
from .homogeneous_geometry import InvariantMetric, check_metric_invariance
from .lie_core import LieAlgebraSpec, abelian, reductive_split, su2
from .lie_core import check_reductive_split, monte_carlo_fixed_check, validate_structure
from .reduced_euler import CircleProblem, HomogeneousProblem, IntervalProblem, SolverConfig
from .reports import ValidationReport

# hashlib is heavy to load: it maps OpenSSL's libcrypto for one digest.
# The built-in module gives the same SHA-256 (named _sha2 from Python 3.12).
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

KINDS = ("homogeneous", "interval", "circle")
VKINDS = ("constant", "polynomial", "fourier", "random_fourier")

# -- field specs: check(value, path, errors) appends "<path>: <what is wrong>" --


@dataclass(frozen=True)
class Num:
    """A finite number, optionally positive."""

    positive: bool = False

    def check(self, value, path, errors):
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int too large for a float
            finite = False
        if not finite:
            errors.append(f"{path}: expected a finite number")
        elif self.positive and value <= 0:
            errors.append(f"{path}: must be positive")


@dataclass(frozen=True)
class Int:
    """An integer, at least ``low`` (and even) if given; ``bound`` words the
    message for an integer out of range, formatted with the value. ``high``
    caps an integer that sizes an allocation."""

    low: int | None = None
    what: str = "an integer"
    even: bool = False
    bound: str = ""
    high: int | None = None

    def check(self, value, path, errors):
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{path}: expected {self.what}")
        elif (self.low is not None and value < self.low) or (self.even and value % 2):
            bound = self.bound.format(value) if self.bound else f"expected {self.what}"
            errors.append(f"{path}: {bound}")
        elif self.high is not None and value > self.high:
            errors.append(f"{path}: must be at most {self.high}, got {value}")


@dataclass(frozen=True)
class Str:
    """A string, one of ``choices`` if given."""

    what: str
    choices: tuple = ()

    def check(self, value, path, errors):
        if not isinstance(value, str) or (self.choices and value not in self.choices):
            errors.append(f"{path}: expected {self.what}")


@dataclass(frozen=True)
class Numbers:
    """A list of finite numbers nested ``depth`` lists deep, one message per
    list; ``shape`` adds "rectangular" (rows of equal length at every depth),
    "square", or "rows" (no empty row)."""

    depth: int = 1
    shape: str = ""

    def check(self, value, path, errors):
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list")
            return
        n_errors = len(errors)
        inner = Numbers(self.depth - 1) if self.depth > 1 else NUMBER
        for i, item in enumerate(value):
            inner.check(item, f"{path}[{i}]", errors)
            if len(errors) > n_errors:
                return  # one message per list is enough
        if self.shape == "rectangular":
            try:
                np.asarray(value, dtype=float)
            except ValueError:
                errors.append(f"{path}: expected a rectangular array (rows of equal length)")
        elif self.shape == "square" and any(len(row) != len(value) for row in value):
            errors.append(f"{path}: expected a square matrix")
        elif self.shape == "rows":
            empty = [i for i, row in enumerate(value) if not row]
            errors += [f"{path}[{i}]: expected a non-empty list" for i in empty]


@dataclass(frozen=True)
class Obj:
    """An object with known keys, each with a spec (None: checked elsewhere).

    ``required`` defaults to every key. ``rule(obj, errors)`` is a
    cross-field check run after the fields; ``notes`` replace the generic
    unknown/missing-key message of a key.
    """

    fields: dict
    required: tuple | None = None
    rule: Callable | None = None
    notes: dict = field(default_factory=dict)

    def check(self, value, path, errors):
        where = path or "config"
        if not isinstance(value, dict):
            errors.append(f"{where}: expected an object")
            return
        required = self.fields if self.required is None else self.required
        unknown = [k for k in value if k not in self.fields]
        missing = [k for k in required if k not in value]
        errors += [self.notes.get(k, f"{where}.{k}: unknown key") for k in unknown]
        errors += [self.notes.get(k, f"{where}.{k}: missing required key") for k in missing]
        for key, spec in self.fields.items():
            if key in value and spec is not None:
                spec.check(value[key], f"{path}.{key}" if path else key, errors)
        if self.rule is not None:
            self.rule(value, errors)


@dataclass(frozen=True)
class Union:
    """An object whose ``tag`` key picks its schema among ``cases``;
    ``unknown`` words the message for any other tag, formatted with it."""

    tag: str
    cases: dict
    unknown: str

    def check(self, value, path, errors):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected an object")
            return
        tag = value.get(self.tag)
        case = self.cases.get(tag) if isinstance(tag, str) else None
        if case is None:
            errors.append(f"{path}.{self.tag}: {self.unknown.format(tag)}")
        else:
            case.check(value, path, errors)


# -- the schema of each problem kind -------------------------------------------

NUMBER, POSITIVE, COUNT = Num(), Num(positive=True), Int(1, "a positive integer")
# caps on the integers that size allocations: Gamma holds N * dim**3 floats
MAX_DIM, MAX_N, MAX_MODES = 16, 4096, 1024
# the run records its diagnostic rows into float64 arrays allocated up front
MAX_RECORDED_VALUES = 25_000_000
TOP_REQUIRED = ("problem", "initial", "solver")
TOP_OPTIONAL = ("algebra", "isotropy", "metric", "profile", "output", "seed", "hooks")
TOP = Obj(dict.fromkeys(TOP_REQUIRED + TOP_OPTIONAL), TOP_REQUIRED)
PROBLEM = Obj({"kind": None})
ISOTROPY = Obj({"basis": Numbers(2)})
OUTPUT = Obj({"directory": Str("a path"), "snapshot_cadence": COUNT,
              "diagnostics_cadence": COUNT}, ())
COMMON = {"output": OUTPUT, "seed": Int(), "hooks": Obj({"dcdt_offset": NUMBER}, ())}
FOURIER = {"length": POSITIVE, "fourier": Numbers(2)}
FAMILIES = {"round_s3_t2": {}, "warped_torus": FOURIER, "berger_circle": FOURIER}
TABULATED = {"family": None, "length": POSITIVE, "kind": None, "csv": Str("a file name"),
             "endpoints": None}  # kind and endpoints: see _tabulated_rule
VTYPES = {
    "constant": {"values": Numbers()},
    "polynomial": {"coefficients": Numbers(2, "rows")},
    "fourier": {"coefficients": Numbers(2)},
    "random_fourier": {"seed": Int(0, "a non-negative integer"),
                       "modes": Int(1, "a positive integer", high=MAX_MODES),
                       "amplitude": NUMBER},
}
# a family or initial-data type that suits one problem kind: (that kind, the message elsewhere)
HOME = {
    "round_s3_t2": (INTERVAL, "profile.family: round_s3_t2 is an interval family"),
    "warped_torus": (CIRCLE, "profile.family: warped_torus is a circle family"),
    "berger_circle": (CIRCLE, "profile.family: berger_circle is a circle family"),
    "polynomial": (INTERVAL, "initial.v.type: polynomial initial data is not periodic; "
                             "use fourier coefficients on a circle"),
    "fourier": (CIRCLE, "initial.v.type: fourier initial data is circle-only"),
    "random_fourier": (CIRCLE, "initial.v.type: random_fourier is circle-only"),
}


def _algebra_rule(alg, errors):
    if "name" not in alg:
        if not ("structure" in alg and "Q" in alg):
            errors.append("algebra: give either a name or structure+Q")
        return
    if alg["name"] == "abelian" and "dim" not in alg:
        errors.append("algebra.dim: required for abelian algebras")
    if alg["name"] == "su2" and "dim" in alg:
        errors.append("algebra.dim: not allowed for su2")
    if "structure" in alg or "Q" in alg:
        errors.append("algebra: give either a name or structure+Q, not both")


ALGEBRA = Obj({"name": Str("'su2' or 'abelian'", ("su2", "abelian")),
               "dim": Int(1, "a positive integer", high=MAX_DIM),
               "structure": Numbers(3, "rectangular"), "Q": Numbers(2, "rectangular")},
              (), _algebra_rule)


def _fibre_rule(data, errors):
    """Only a tabulated profile takes its fibre from ``algebra``/``isotropy``."""
    profile = data.get("profile")
    tabulated = isinstance(profile, dict) and profile.get("family") == "tabulated"
    if tabulated and "algebra" not in data:
        errors.append("algebra: required for this problem")
    for key in () if tabulated else ("algebra", "isotropy"):
        if key in data:
            errors.append(f"{key}: not allowed (the profile family fixes the fibre)")


def _tabulated_rule(kind):
    def rule(p, errors):
        pkind = p.get("kind")
        if pkind not in (INTERVAL, CIRCLE):
            errors.append("profile.kind: expected 'interval' or 'circle'")
        elif pkind != kind:
            errors.append("profile.kind: must match problem.kind")
        if pkind == INTERVAL and "endpoints" not in p:
            errors.append("profile.endpoints: required for tabulated interval profiles")
        if "endpoints" in p and not isinstance(p["endpoints"], list):
            errors.append("profile.endpoints: expected a list")
        if pkind == CIRCLE and "endpoints" in p:
            errors.append("profile.endpoints: not allowed on a circle")

    return rule


def _schema(kind):
    """The schema of one problem kind, built from the shared specs above."""
    if kind == "homogeneous":
        return Obj({"problem": PROBLEM, "algebra": ALGEBRA, "isotropy": ISOTROPY,
                    "metric": Obj({"gram": Numbers(2, "square")}), "initial": Obj({"x": Numbers()}),
                    "solver": Obj({"dt": POSITIVE, "t_end": POSITIVE}), **COMMON},
                   TOP_REQUIRED + ("metric", "algebra"), notes={
                       "metric": "metric: required for homogeneous problems",
                       "algebra": "algebra: required for this problem",
                       "profile": "profile: not allowed for homogeneous problems"})

    def case(tag, fields):  # a union case, refused when its tag suits another kind
        home, message = HOME.get(tag, (kind, ""))
        if home == kind:
            return Obj(fields)
        return Obj(fields, rule=lambda obj, errors: errors.append(message))

    families = {tag: case(tag, {"family": None, **fields}) for tag, fields in FAMILIES.items()}
    families["tabulated"] = Obj(TABULATED, ("family", "length", "kind", "csv"),
                                _tabulated_rule(kind))
    v = Union("type", {tag: case(tag, {"type": None, **fields}) for tag, fields in VTYPES.items()},
              f"expected one of {VKINDS}, got {{!r}}")
    low, even = GRID_NODES[kind]
    n = Int(low, even=even, bound=grid_rule(kind) + ", got {}", high=MAX_N)
    solver = {"dt": POSITIVE, "t_end": POSITIVE, "cfl_guard": POSITIVE, "N": n}
    return Obj({"problem": PROBLEM, "algebra": ALGEBRA, "isotropy": ISOTROPY,
                "profile": Union("family", families, "unknown family {!r}"),
                "initial": Obj({"c": NUMBER, "v": v} if kind == CIRCLE else {"v": v}),
                "solver": Obj(solver, ("dt", "t_end", "N")),
                **COMMON}, TOP_REQUIRED + ("profile",), _fibre_rule, notes={
                    "profile": f"profile: required for {kind} problems",
                    "metric": f"metric: not allowed for {kind} problems"})


SCHEMAS = {kind: _schema(kind) for kind in KINDS}


@dataclass
class RunConfig:
    kind: str
    algebra: dict | None
    isotropy: list
    metric_gram: list | None
    profile: dict | None
    initial: dict
    solver: dict
    output: dict
    seed: int
    dcdt_offset: float
    raw: dict
    source_path: Path | None = field(default=None, compare=False)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return sha256(self.canonical_json().encode()).hexdigest()


def parse_config_dict(data: dict, source_path: Path | None = None) -> RunConfig:
    """Walk the schema of the config's problem kind; collects field-level errors.

    Top-level key errors stop the walk, and so does a ``problem.kind`` that
    names no schema.
    """
    errors = []
    TOP.check(data, "", errors)
    if errors:
        raise ConfigError(errors)
    kind = data["problem"].get("kind") if isinstance(data["problem"], dict) else None
    if kind not in KINDS:
        PROBLEM.check(data["problem"], "problem", errors)
        raise ConfigError(errors + [f"problem.kind: expected one of {KINDS}, got {kind!r}"])
    SCHEMAS[kind].check(data, "", errors)
    if errors:
        raise ConfigError(errors)

    return RunConfig(
        kind=kind,
        algebra=data.get("algebra"),
        isotropy=data.get("isotropy", {}).get("basis", []),
        metric_gram=data.get("metric", {}).get("gram"),
        profile=data.get("profile"),
        initial=data["initial"],
        solver=dict(data["solver"]),
        output=dict(data.get("output", {})),
        seed=data.get("seed", 0),
        dcdt_offset=float(data.get("hooks", {}).get("dcdt_offset", 0.0)),
        raw=data,
        source_path=source_path,
    )


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration from disk."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)  # json.JSONDecodeError maps to the parse exit code
    return parse_config_dict(data, source_path=path)


# -- assembly -----------------------------------------------------------------


def build_algebra(cfg: RunConfig) -> LieAlgebraSpec:
    given = cfg.algebra
    if "name" in given:
        return su2() if given["name"] == "su2" else abelian(int(given["dim"]))
    return LieAlgebraSpec(
        dim=len(given["Q"]), structure=np.asarray(given["structure"]), Q=np.asarray(given["Q"])
    )


def build_profile(cfg: RunConfig, split=None) -> cg.MetricProfile:
    """The configured profile; a tabulated one takes its fibre from ``split``."""
    p = cfg.profile
    family = p["family"]
    if family == "round_s3_t2":
        return cg.RoundS3T2Profile()
    if family == "warped_torus":
        return cg.warped_torus(float(p["length"]), p["fourier"])
    if family == "berger_circle":
        return cg.berger_circle(float(p["length"]), p["fourier"])
    # tabulated
    csv_path = Path(p["csv"])
    if not csv_path.is_absolute() and cfg.source_path is not None:
        csv_path = cfg.source_path.parent / csv_path
    if not csv_path.is_file():
        raise ConfigError([f"profile.csv: no such file {csv_path}"])
    r, gram, prime = cg.load_tabulated_csv(csv_path)
    if p["kind"] == INTERVAL:
        space = cg.OrbitSpace(INTERVAL, float(p["length"]), tuple(p["endpoints"]))
    else:
        space = cg.OrbitSpace(CIRCLE, float(p["length"]))
    return cg.TabulatedProfile(split, space, r, gram, prime)


def _fourier_eval(coeffs, r, length):
    out = np.full(r.shape, float(coeffs[0]))
    for k in range(1, (len(coeffs) - 1) // 2 + 1):
        ang = 2.0 * np.pi * k * r / length
        out += float(coeffs[2 * k - 1]) * np.cos(ang) + float(coeffs[2 * k]) * np.sin(ang)
    return out


def _check_polynomial_parity(coeff_rows, profile: cg.MetricProfile):
    """Odd powers about a singular endpoint break smoothness: reject them."""
    left, right = profile.orbit_space.endpoint_kinds
    L = profile.length
    for i, row in enumerate(coeff_rows):
        poly = np.polynomial.Polynomial(np.asarray(row, dtype=float))
        scale = max(1.0, float(np.max(np.abs(poly.coef))))
        if left == cg.SINGULAR:
            odd = poly.coef[1::2]
            if odd.size and np.max(np.abs(odd)) > 1e-12 * scale:
                raise ConfigError(
                    [f"initial.v.coefficients[{i}]: odd powers of r are not smooth "
                     "at the singular endpoint r = 0"]
                )
        if right == cg.SINGULAR:
            reflected = poly(np.polynomial.Polynomial([L, -1.0]))
            odd = reflected.coef[1::2]
            if odd.size and np.max(np.abs(odd)) > 1e-12 * scale:
                raise ConfigError(
                    [f"initial.v.coefficients[{i}]: odd powers of (L - r) are not "
                     f"smooth at the singular endpoint r = {L:g}"]
                )


def build_initial_v(cfg: RunConfig, profile: cg.MetricProfile, grid: np.ndarray) -> np.ndarray:
    vinit = cfg.initial["v"]
    d = profile.dim
    n = grid.size
    vtype = vinit["type"]
    if vtype == "constant":
        vals = np.asarray(vinit["values"], dtype=float)
        if vals.shape != (d,):
            raise ConfigError([f"initial.v.values: expected {d} entries"])
        return np.tile(vals, (n, 1))
    if vtype == "polynomial":
        rows = vinit["coefficients"]
        if len(rows) != d:
            raise ConfigError([f"initial.v.coefficients: expected {d} rows"])
        _check_polynomial_parity(rows, profile)
        return np.column_stack(
            [np.polynomial.polynomial.polyval(grid, np.asarray(row, float)) for row in rows]
        )
    if vtype == "fourier":
        rows = vinit["coefficients"]
        if len(rows) != d:
            raise ConfigError([f"initial.v.coefficients: expected {d} rows"])
        for i, row in enumerate(rows):
            if len(row) % 2 == 0:
                raise ConfigError(
                    [f"initial.v.coefficients[{i}]: expected odd length [a0,a1,b1,...]"]
                )
        return np.column_stack([_fourier_eval(row, grid, profile.length) for row in rows])
    # random_fourier: smooth seeded band-limited data, 1/k amplitude falloff
    rng = np.random.default_rng(int(vinit["seed"]))
    modes = int(vinit["modes"])
    amp = float(vinit["amplitude"])
    rows = []
    for _ in range(d):
        coeffs = [0.0]
        for k in range(1, modes + 1):
            coeffs += [amp * rng.uniform(-1, 1) / k, amp * rng.uniform(-1, 1) / k]
        rows.append(coeffs)
    return np.column_stack([_fourier_eval(np.array(row), grid, profile.length) for row in rows])


def _initial_parity(report: ValidationReport, profile, grid, v0):
    """The numeric parity fit of the initial data at each singular endpoint."""
    geom = GridGeometry(profile, grid)
    if not geom.singular_windows:
        return
    tol = parity_tolerance(geom)
    misfits = geom.taylor_fits(v0[None])[2][0]
    for misfit, win in zip(misfits, geom.singular_windows):
        scale = max(1.0, float(abs(v0[win["slice"]]).max()))
        report.add(f"initial_parity_at_r={win['side']:g}", misfit / scale, tol)


def check_config(cfg: RunConfig, deep: bool = False):
    """Build the problem and run every structural check on it.

    Returns ``(report, problem)``; ``problem`` is None unless every check
    passed, and ``report.errors()`` then gives the messages ``run`` raises.
    Checks that stand on others stop where those fail: nothing is built on
    a failed algebra, and no grid on a profile that is not positive
    definite. With ``deep`` (``coho-euler validate``) two more checks run:
    the group-level Monte Carlo check of the fixed subspace, after the split
    checks, and the numeric parity fit of the initial data.
    """
    report = ValidationReport()
    builtin = cfg.kind != "homogeneous" and cfg.profile["family"] != "tabulated"
    profile = build_profile(cfg) if builtin else None
    algebra = profile.split.algebra if builtin else build_algebra(cfg)
    report.extend(validate_structure(algebra), "algebra: {} failed")
    if not report.passed:
        return report, None
    split = profile.split if builtin else reductive_split(algebra, cfg.isotropy)
    report.extend(check_reductive_split(split), "algebra: {} failed")
    if deep:
        report.extend(monte_carlo_fixed_check(split, seed=cfg.seed))

    if cfg.kind == "homogeneous":
        metric = InvariantMetric(split, np.asarray(cfg.metric_gram, dtype=float))
        report.extend(check_metric_invariance(metric),
                      "metric.gram: not invariant under the isotropy action")
        initial = np.asarray(cfg.initial["x"], dtype=float)
        if initial.shape != (split.dim_m,):
            report.add_error("initial_data", f"initial.x: expected {split.dim_m} entries")
        d, n_singular = split.dim_m, 0
    else:
        if profile is None:
            profile = build_profile(cfg, split)
        profile_report = cg.validate_profile(profile)
        report.extend(profile_report, "profile: {} failed")
        if not profile_report["gram_positive_on_probe_grid"].passed:
            return report, None
        grid = grid_layout(profile, int(cfg.solver["N"]))[0]
        try:
            initial = build_initial_v(cfg, profile, grid)
        except ConfigError as exc:
            for message in exc.messages:
                report.add_error("initial_data", message)
        else:
            if deep:
                _initial_parity(report, profile, grid, initial)
        d, n_singular = profile.dim, 0
        if cfg.kind == INTERVAL:
            n_singular = profile.orbit_space.endpoint_kinds.count(cg.SINGULAR)

    try:
        rows = build_solver_config(cfg).n_records()
    except InputError as exc:
        report.add_error("time_steps", str(exc))
    else:
        width = row_width(d, n_singular)
        if rows * width > MAX_RECORDED_VALUES:
            report.add_error("recorded_rows", (
                f"output.diagnostics_cadence: {rows} recorded rows of {width} values exceed "
                f"the budget of {MAX_RECORDED_VALUES} values; raise the cadence or shorten "
                "solver.t_end"))
    if not report.passed:
        return report, None
    if cfg.kind == "homogeneous":
        return report, HomogeneousProblem(metric, initial)
    if cfg.kind == INTERVAL:
        return report, IntervalProblem(profile, initial)
    return report, CircleProblem(profile, float(cfg.initial["c"]), initial)


def build_problem(cfg: RunConfig):
    """Turn a parsed config into a runnable problem.

    Raises ConfigError naming every failed check of :func:`check_config`.
    """
    report, problem = check_config(cfg)
    if problem is None:
        raise ConfigError(report.errors())
    return problem


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(
        dt=float(cfg.solver["dt"]),
        t_end=float(cfg.solver["t_end"]),
        cfl_guard=float(cfg.solver.get("cfl_guard", 0.5)),
        snapshot_cadence=cfg.output.get("snapshot_cadence"),
        diagnostics_cadence=cfg.output.get("diagnostics_cadence", 1),
        dcdt_offset=cfg.dcdt_offset,
    )
