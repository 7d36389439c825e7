"""Run configuration: a strict JSON schema per problem kind, and one check pass.

:func:`parse_config_dict` walks the schema of the config's ``problem.kind``,
a table built from the field specs below, and collects every error with its
field path. Unknown keys are rejected everywhere; a silently ignored option
would masquerade as physics. :func:`check_config` then builds the run's
geometry and initial state and runs every structural check into one
:class:`ValidationReport`: the algebra axioms, the supported-fibre rule,
metric invariance or the profile checks (g_r positive on the probes, and on
the state grid as the geometry factors it), the initial data, and the step
count; the reductive split is checked as it is built. ``coho-euler run``
refuses a config whose report fails before it writes anything;
``coho-euler validate`` prints the same report, so the two commands make
exactly the same checks.
Initial data is entered as coefficients (constants, polynomials in r, or
Fourier modes) so periodicity and endpoint parity can be checked exactly,
up to rounding, before any discretisation happens.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import coho_geometry as cg
from .coho_geometry import BOUNDARY, CIRCLE, INTERVAL, MAX_MODES, SINGULAR
from .diagnostics import GRID_NODES, MAX_N, GridGeometry, grid_rule, row_width
from .errors import ConfigError, ConfigParseError
from .homogeneous_geometry import InvariantMetric, check_metric_invariance
from .lie_core import MAX_DIM, LieAlgebraSpec, abelian, reductive_split, su2, validate_structure
from .numerics import seeded_uniform
from .reduced_euler import ReducedState, SolverConfig
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
    "square", or "rows" (no empty row). ``most`` caps the length of the list,
    then of each row, and so on: lengths that size an allocation."""

    depth: int = 1
    shape: str = ""
    most: tuple = ()

    def check(self, value, path, errors):
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list")
            return
        if self.most and len(value) > self.most[0]:
            errors.append(f"{path}: must have at most {self.most[0]} entries, got {len(value)}")
            return
        n_errors = len(errors)
        inner = Numbers(self.depth - 1, most=self.most[1:]) if self.depth > 1 else NUMBER
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
# integers that size allocations are capped by MAX_DIM (lie_core), MAX_N (diagnostics)
# and MAX_MODES (coho_geometry)
# recorded rows times the values of a row: bounds the size of a run's diagnostics.csv
MAX_RECORDED_VALUES = 25_000_000
TOP_REQUIRED = ("problem", "initial", "solver")
PROBLEM = Obj({"kind": None})
ISOTROPY = Obj({"basis": Numbers(2)})
OUTPUT = Obj({"directory": Str("a path"), "snapshot_cadence": COUNT,
              "diagnostics_cadence": COUNT}, ())
# the top-level seed enters the config hash (and manifest.json's config echo) and nothing else
COMMON = {"output": OUTPUT, "seed": Int(0, bound="expected a non-negative integer")}
# one list per fibre dimension, each [a0, a1, b1, ...] up to MAX_MODES modes (or as
# many polynomial coefficients): caps every coefficient list of a profile or initial data
COEFFICIENTS = (MAX_DIM, 2 * MAX_MODES + 1)
FOURIER = {"length": POSITIVE, "fourier": Numbers(2, most=COEFFICIENTS)}
FAMILIES = {"round_s3_t2": {}, "warped_torus": FOURIER, "berger_circle": FOURIER}
TABULATED = {"family": None, "length": POSITIVE, "kind": None, "csv": Str("a file name"),
             "endpoints": None}  # kind and endpoints: see _tabulated_rule
ENDPOINTS = [[left, right] for left in (SINGULAR, BOUNDARY) for right in (SINGULAR, BOUNDARY)]
VTYPES = {
    "constant": {"values": Numbers()},
    "polynomial": {"coefficients": Numbers(2, "rows", COEFFICIENTS)},
    "fourier": {"coefficients": Numbers(2, most=COEFFICIENTS)},
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
               "structure": Numbers(3, "rectangular", (MAX_DIM,)),
               "Q": Numbers(2, "rectangular", (MAX_DIM,))},
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
        if "endpoints" in p and p["endpoints"] not in ENDPOINTS:
            errors.append("profile.endpoints: expected two of 'singular' and 'boundary'")
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
              f"expected one of {tuple(VTYPES)}, got {{!r}}")
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
# the top-level keys of any kind: the walk checks these before it picks a schema
TOP = Obj(dict.fromkeys(key for schema in SCHEMAS.values() for key in schema.fields), TOP_REQUIRED)


@dataclass
class RunConfig:
    """A parsed config: the JSON that passed its schema, and the file it came from."""

    raw: dict
    source_path: Path | None = field(default=None, compare=False)

    @property
    def kind(self) -> str:
        return self.raw["problem"]["kind"]

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
    return RunConfig(data, source_path)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration from disk."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, digit limit, deep nesting
            raise ConfigParseError(str(exc)) from exc
    return parse_config_dict(data, source_path=path)


# -- assembly -----------------------------------------------------------------


def build_algebra(cfg: RunConfig) -> LieAlgebraSpec:
    given = cfg.raw["algebra"]
    if "name" in given:
        return su2() if given["name"] == "su2" else abelian(int(given["dim"]))
    return LieAlgebraSpec(
        dim=len(given["Q"]), structure=np.asarray(given["structure"]), Q=np.asarray(given["Q"])
    )


def build_profile(cfg: RunConfig, split=None) -> cg.MetricProfile:
    """The configured profile; a tabulated one takes its fibre from ``split``."""
    p = cfg.raw["profile"]
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
    """Odd powers about a singular endpoint break smoothness: reject them.

    The coefficients are re-expanded about each singular endpoint, exactly
    up to rounding: an odd one passes only within 1e-12 of max(1, b), where b
    sums the magnitudes of the terms that make it up. About r = 0 they are
    the given coefficients themselves.
    """
    poly = np.polynomial.Polynomial
    left, right = profile.orbit_space.endpoint_kinds
    L = profile.length
    ends = []  # (endpoint, sign of the distance to it in r, message)
    if left == cg.SINGULAR:
        ends.append((0.0, 1.0, "odd powers of r are not smooth at the singular endpoint r = 0"))
    if right == cg.SINGULAR:
        ends.append((L, -1.0, "odd powers of (L - r) are not smooth at the singular endpoint "
                              f"r = {L:g}"))
    for i, row in enumerate(coeff_rows):
        c = np.asarray(row, dtype=float)
        for side, sign, what in ends:
            odd = poly(c)(poly([side, sign])).coef[1::2]
            bound = poly(np.abs(c))(poly([side, 1.0])).coef[1::2]
            if np.any(np.abs(odd) > 1e-12 * np.maximum(1.0, bound)):
                raise ConfigError([f"initial.v.coefficients[{i}]: {what}"])


def build_initial_v(cfg: RunConfig, profile: cg.MetricProfile, grid: np.ndarray) -> np.ndarray:
    vinit = cfg.raw["initial"]["v"]
    d = profile.dim
    n = grid.size
    vtype = vinit["type"]
    if vtype == "constant":
        vals = np.asarray(vinit["values"], dtype=float)
        if vals.shape != (d,):
            raise ConfigError([f"initial.v.values: expected {d} entries"])
        return np.tile(vals, (n, 1))
    rows = vinit.get("coefficients")
    if rows is not None and len(rows) != d:
        raise ConfigError([f"initial.v.coefficients: expected {d} rows"])
    if vtype == "polynomial":
        _check_polynomial_parity(rows, profile)
        return np.column_stack(
            [np.polynomial.polynomial.polyval(grid, np.asarray(row, float)) for row in rows]
        )
    if vtype == "fourier":
        for i, row in enumerate(rows):
            if len(row) % 2 == 0:
                raise ConfigError(
                    [f"initial.v.coefficients[{i}]: expected odd length [a0,a1,b1,...]"]
                )
        return np.column_stack([_fourier_eval(row, grid, profile.length) for row in rows])
    # random_fourier: smooth seeded band-limited data, 1/k amplitude falloff;
    # row i holds a_1, b_1, a_2, b_2, ... of component i, drawn in that order
    modes = int(vinit["modes"])
    draws = np.array(seeded_uniform(int(vinit["seed"]), 2 * d * modes)).reshape(d, 2 * modes)
    rows = float(vinit["amplitude"]) * draws / np.repeat(np.arange(1, modes + 1), 2)
    return np.column_stack([_fourier_eval(np.r_[0.0, row], grid, profile.length) for row in rows])


def check_config(cfg: RunConfig):
    """Build the run's geometry and initial state, and run every structural check.

    Returns ``(report, state, geom)``: the initial :class:`ReducedState` and
    the run's one :class:`~coho_euler.diagnostics.GridGeometry`, both None
    unless every check passed; ``report.errors()`` then gives the messages
    ``run`` raises. ``run`` and ``validate`` both make exactly these checks, and
    each step's refusal is its failed check (``ValidationReport.attempt``).
    Checks that stand on others stop where those fail: nothing is built on a
    failed algebra or split, no geometry on a profile that fails a check, and
    no state where ``check_grams`` refuses the geometry's g_r at a node.
    """
    raw, report = cfg.raw, ValidationReport()
    if cfg.kind == "homogeneous" or raw["profile"]["family"] == "tabulated":
        profile, algebra = None, report.attempt("algebra", "algebra", build_algebra, cfg)
    else:  # a built-in family fixes its fibre
        profile = report.attempt("profile_fourier", "profile.fourier", build_profile, cfg)
        algebra = None if profile is None else profile.split.algebra
    if algebra is not None:
        report.extend(validate_structure(algebra), "algebra")
    if not report.passed:
        return report, None, None
    split = profile.split if profile is not None else report.attempt(
        "isotropy_basis", "isotropy.basis", reductive_split, algebra,
        raw.get("isotropy", {}).get("basis", []))
    if split is not None:
        report.attempt("isotropy_fixes_complement", "isotropy.basis",
                       split.require_fixed_complement)
    if not report.passed:
        return report, None, None
    report.add_flag("isotropy_fixes_complement", True)

    geom, d, n_singular = None, split.dim_m, 0
    if cfg.kind == "homogeneous":
        metric = report.attempt("metric_gram", "metric.gram", InvariantMetric, split,
                                np.asarray(raw["metric"]["gram"], dtype=float))
        if metric is not None:
            report.extend(check_metric_invariance(metric), "metric.gram")
            geom = GridGeometry(metric)
        initial = np.asarray(raw["initial"]["x"], dtype=float)
        if initial.shape != (d,):
            report.add_flag("initial_data", False, f"initial.x: expected {d} entries")
    else:
        if profile is None:
            profile = report.attempt("profile_csv", "profile.csv", build_profile, cfg, split)
            if profile is None:
                return report, None, None
        profile_report = cg.validate_profile(profile)
        report.extend(profile_report, "profile")
        if profile_report.passed:
            # the run factors g_r at every state node, not only at the probes
            geom = report.attempt("gram_positive_on_state_grid", "profile", GridGeometry,
                                  profile, int(raw["solver"]["N"]))
            if geom is not None:
                report.add_flag("gram_positive_on_state_grid", True)
        if cfg.kind == INTERVAL:
            n_singular = profile.orbit_space.endpoint_kinds.count(cg.SINGULAR)
        if geom is not None:
            # initial data past the float range is inf, which ReducedState refuses
            with np.errstate(over="ignore", invalid="ignore"):
                initial = report.attempt("initial_data", "initial.v", build_initial_v,
                                         cfg, profile, geom.r)

    rows = report.attempt("time_steps", "solver", lambda: build_solver_config(cfg).n_records())
    width = row_width(d, n_singular)
    if rows is not None and rows * width > MAX_RECORDED_VALUES:
        report.add_flag("recorded_rows", False, (
            f"output.diagnostics_cadence: {rows} recorded rows of {width} values exceed "
            f"the budget of {MAX_RECORDED_VALUES} values; raise the cadence or shorten "
            "solver.t_end"))
    if not report.passed:
        return report, None, None
    # only a circle config has an initial amplitude c
    state = report.attempt("initial_data", "initial", ReducedState, 0.0,
                           float(raw["initial"].get("c", 0.0)), initial)
    return report, state, None if state is None else geom


def build_problem(cfg: RunConfig):
    """Turn a parsed config into a run's ``(state, geom)``: the initial state and
    its one :class:`~coho_euler.diagnostics.GridGeometry`, both built by
    :func:`check_config`. Raises ConfigError naming every failed check.
    """
    report, state, geom = check_config(cfg)
    if state is None:
        raise ConfigError(report.errors())
    return state, geom


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    """The run's SolverConfig from the ``solver`` and ``output`` keys named after its
    fields; a key the config leaves out takes SolverConfig's own default."""
    given = {**cfg.raw["solver"], **cfg.raw.get("output", {})}
    return SolverConfig(**{f.name: given[f.name] for f in dataclasses.fields(SolverConfig)
                           if f.name in given})
