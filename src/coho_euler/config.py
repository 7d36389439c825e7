"""Run configuration: strict JSON parsing and problem assembly.

Unknown keys are rejected everywhere; a silently ignored option would
masquerade as physics. Initial data is entered as coefficients (constants,
polynomials in r, or Fourier modes) so periodicity and endpoint parity can
be checked symbolically before any discretisation happens.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coho_geometry as cg
from .errors import ConfigError
from .homogeneous_geometry import InvariantMetric, check_metric_invariance
from .lie_core import LieAlgebraSpec, abelian, reductive_split, su2, validate_structure
from .reduced_euler import (
    CircleProblem,
    HomogeneousProblem,
    IntervalProblem,
    SolverConfig,
    circle_grid,
    interval_grid,
)

KINDS = ("homogeneous", "interval", "circle")
VKINDS = ("constant", "polynomial", "fourier", "random_fourier")


def _require_keys(obj, path, required, optional=()):
    errors = []
    if not isinstance(obj, dict):
        return [f"{path}: expected an object"]
    for k in obj:
        if k not in required and k not in optional:
            errors.append(f"{path}.{k}: unknown key")
    for k in required:
        if k not in obj:
            errors.append(f"{path}.{k}: missing required key")
    return errors


def _number(obj, path, errors, positive=False):
    val = obj if isinstance(obj, (int, float)) and not isinstance(obj, bool) else None
    if val is None or not np.isfinite(val):
        errors.append(f"{path}: expected a finite number")
        return 0.0
    if positive and val <= 0:
        errors.append(f"{path}: must be positive")
    return float(val)


def _positive_int(obj, path, errors):
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < 1:
        errors.append(f"{path}: expected a positive integer")


def _numbers(obj, path, errors, depth=1):
    """A list of finite numbers, nested ``depth`` lists deep."""
    if not isinstance(obj, list):
        errors.append(f"{path}: expected a list")
        return
    n_errors = len(errors)
    for i, item in enumerate(obj):
        if depth > 1:
            _numbers(item, f"{path}[{i}]", errors, depth - 1)
        else:
            _number(item, f"{path}[{i}]", errors)
        if len(errors) > n_errors:
            return  # one message per list is enough


def _rectangular(obj, path, errors, depth):
    """As :func:`_numbers`, with rows of equal length at every depth."""
    n_errors = len(errors)
    _numbers(obj, path, errors, depth)
    if len(errors) == n_errors:
        try:
            np.asarray(obj, dtype=float)
        except ValueError:
            errors.append(f"{path}: expected a rectangular array (rows of equal length)")


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
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def parse_config_dict(data: dict, source_path: Path | None = None) -> RunConfig:
    """Validate a configuration dictionary; collects field-level errors."""
    errors = _require_keys(
        data,
        "config",
        ("problem", "initial", "solver"),
        ("algebra", "isotropy", "metric", "profile", "output", "seed", "hooks"),
    )
    if errors:
        raise ConfigError(errors)

    problem = data["problem"]
    errors += _require_keys(problem, "problem", ("kind",))
    kind = problem.get("kind") if isinstance(problem, dict) else None
    if kind not in KINDS:
        errors.append(f"problem.kind: expected one of {KINDS}, got {kind!r}")
        raise ConfigError(errors)

    # cross-field presence rules
    needs_algebra = kind == "homogeneous" or (
        isinstance(data.get("profile"), dict)
        and data["profile"].get("family") == "tabulated"
    )
    if kind == "homogeneous":
        if "metric" not in data:
            errors.append("metric: required for homogeneous problems")
        if "profile" in data:
            errors.append("profile: not allowed for homogeneous problems")
    else:
        if "profile" not in data:
            errors.append(f"profile: required for {kind} problems")
        if "metric" in data:
            errors.append(f"metric: not allowed for {kind} problems")
    if needs_algebra and "algebra" not in data:
        errors.append("algebra: required for this problem")
    if not needs_algebra and "algebra" in data:
        errors.append("algebra: not allowed (the profile family fixes the fibre)")
    if not needs_algebra and "isotropy" in data:
        errors.append("isotropy: not allowed (the profile family fixes the fibre)")

    algebra = data.get("algebra")
    if "algebra" in data:
        errs = _require_keys(algebra, "algebra", (), ("name", "dim", "structure", "Q"))
        errors += errs
        if not errs:
            if "name" in algebra:
                if algebra["name"] not in ("su2", "abelian"):
                    errors.append("algebra.name: expected 'su2' or 'abelian'")
                if algebra["name"] == "abelian" and "dim" not in algebra:
                    errors.append("algebra.dim: required for abelian algebras")
                if algebra["name"] == "su2" and "dim" in algebra:
                    errors.append("algebra.dim: not allowed for su2")
                if "structure" in algebra or "Q" in algebra:
                    errors.append("algebra: give either a name or structure+Q, not both")
                if "dim" in algebra:
                    _positive_int(algebra["dim"], "algebra.dim", errors)
            elif not ("structure" in algebra and "Q" in algebra):
                errors.append("algebra: give either a name or structure+Q")
            else:
                _rectangular(algebra["structure"], "algebra.structure", errors, depth=3)
                _rectangular(algebra["Q"], "algebra.Q", errors, depth=2)

    isotropy = data.get("isotropy")
    if "isotropy" in data:
        errs = _require_keys(isotropy, "isotropy", ("basis",))
        errors += errs
        if not errs:
            _numbers(isotropy["basis"], "isotropy.basis", errors, depth=2)

    metric = data.get("metric")
    if "metric" in data:
        errs = _require_keys(metric, "metric", ("gram",))
        errors += errs
        if not errs:
            gram = metric["gram"]
            n_errors = len(errors)
            _numbers(gram, "metric.gram", errors, depth=2)
            if len(errors) == n_errors and any(len(row) != len(gram) for row in gram):
                errors.append("metric.gram: expected a square matrix")

    profile = data.get("profile")
    if "profile" in data and not isinstance(profile, dict):
        errors.append("profile: expected an object")
    elif "profile" in data:
        family = profile.get("family")
        if family == "round_s3_t2":
            errors += _require_keys(profile, "profile", ("family",))
            if kind != "interval":
                errors.append("profile.family: round_s3_t2 is an interval family")
        elif family in ("warped_torus", "berger_circle"):
            errors += _require_keys(profile, "profile", ("family", "length", "fourier"))
            if kind != "circle":
                errors.append(f"profile.family: {family} is a circle family")
            if "length" in profile:
                _number(profile["length"], "profile.length", errors, positive=True)
            if "fourier" in profile:
                _numbers(profile["fourier"], "profile.fourier", errors, depth=2)
        elif family == "tabulated":
            errors += _require_keys(
                profile, "profile", ("family", "length", "kind", "csv"), ("endpoints",)
            )
            pkind = profile.get("kind")
            if pkind not in (cg.INTERVAL, cg.CIRCLE):
                errors.append("profile.kind: expected 'interval' or 'circle'")
            if pkind != kind and pkind in (cg.INTERVAL, cg.CIRCLE):
                errors.append("profile.kind: must match problem.kind")
            if "length" in profile:
                _number(profile["length"], "profile.length", errors, positive=True)
            if "csv" in profile and not isinstance(profile["csv"], str):
                errors.append("profile.csv: expected a file name")
            if pkind == cg.INTERVAL and "endpoints" not in profile:
                errors.append("profile.endpoints: required for tabulated interval profiles")
            if "endpoints" in profile and not isinstance(profile["endpoints"], list):
                errors.append("profile.endpoints: expected a list")
            if pkind == cg.CIRCLE and "endpoints" in profile:
                errors.append("profile.endpoints: not allowed on a circle")
        else:
            errors.append(f"profile.family: unknown family {family!r}")

    initial = data["initial"]
    required = {"homogeneous": ("x",), "interval": ("v",), "circle": ("c", "v")}[kind]
    errors += _require_keys(initial, "initial", required)
    if not isinstance(initial, dict):
        initial = {}
    if kind == "homogeneous" and "x" in initial:
        _numbers(initial["x"], "initial.x", errors)
    if kind == "circle" and "c" in initial:
        _number(initial["c"], "initial.c", errors)
    vspec = initial.get("v")
    if kind != "homogeneous" and isinstance(vspec, dict):
        vtype = vspec.get("type")
        if vtype == "constant":
            errs = _require_keys(vspec, "initial.v", ("type", "values"))
            errors += errs
            if not errs:
                _numbers(vspec["values"], "initial.v.values", errors)
        elif vtype in ("polynomial", "fourier"):
            errs = _require_keys(vspec, "initial.v", ("type", "coefficients"))
            errors += errs
            if not errs:
                _numbers(vspec["coefficients"], "initial.v.coefficients", errors, depth=2)
        elif vtype == "random_fourier":
            errs = _require_keys(vspec, "initial.v", ("type", "seed", "modes", "amplitude"))
            errors += errs
            if not errs:
                vseed = vspec["seed"]
                if not isinstance(vseed, int) or isinstance(vseed, bool) or vseed < 0:
                    errors.append("initial.v.seed: expected a non-negative integer")
                _positive_int(vspec["modes"], "initial.v.modes", errors)
                _number(vspec["amplitude"], "initial.v.amplitude", errors)
            if kind != "circle":
                errors.append("initial.v.type: random_fourier is circle-only")
        else:
            errors.append(f"initial.v.type: expected one of {VKINDS}, got {vtype!r}")
        if vtype == "fourier" and kind != "circle":
            errors.append("initial.v.type: fourier initial data is circle-only")
        if vtype == "polynomial" and kind == "circle":
            errors.append(
                "initial.v.type: polynomial initial data is not periodic; "
                "use fourier coefficients on a circle"
            )
    elif kind != "homogeneous" and "v" in initial:
        errors.append("initial.v: expected an object")

    solver = data.get("solver", {})
    needs_n = kind in ("interval", "circle")
    errors += _require_keys(
        solver,
        "solver",
        ("dt", "t_end") + (("N",) if needs_n else ()),
        ("cfl_guard",) if needs_n else (),
    )
    if isinstance(solver, dict):
        if "dt" in solver:
            _number(solver["dt"], "solver.dt", errors, positive=True)
        if "t_end" in solver:
            _number(solver["t_end"], "solver.t_end", errors, positive=True)
        if "cfl_guard" in solver:
            _number(solver["cfl_guard"], "solver.cfl_guard", errors, positive=True)
        if "N" in solver:
            n = solver["N"]
            if not isinstance(n, int) or isinstance(n, bool):
                errors.append("solver.N: expected an integer")
            elif kind == "circle" and (n < 16 or n % 2):
                errors.append(f"solver.N: circle grids need an even N >= 16, got {n}")
            elif kind == "interval" and n < 6:
                errors.append(f"solver.N: interval grids need N >= 6, got {n}")

    output = data.get("output", {})
    errors += _require_keys(
        output, "output", (), ("directory", "snapshot_cadence", "diagnostics_cadence")
    )
    if isinstance(output, dict):
        for key in ("snapshot_cadence", "diagnostics_cadence"):
            if key in output:
                _positive_int(output[key], f"output.{key}", errors)

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("seed: expected an integer")
        seed = 0

    hooks = data.get("hooks", {})
    errors += _require_keys(hooks, "hooks", (), ("dcdt_offset",))
    dcdt_offset = 0.0
    if isinstance(hooks, dict) and "dcdt_offset" in hooks:
        dcdt_offset = _number(hooks["dcdt_offset"], "hooks.dcdt_offset", errors)

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        kind=kind,
        algebra=algebra,
        isotropy=(isotropy or {}).get("basis", []),
        metric_gram=(metric or {}).get("gram"),
        profile=profile,
        initial=initial,
        solver=dict(solver),
        output=dict(output),
        seed=seed,
        dcdt_offset=dcdt_offset,
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


def build_profile(cfg: RunConfig) -> cg.MetricProfile:
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
    alg = build_algebra(cfg)
    split = reductive_split(alg, cfg.isotropy)
    if p["kind"] == cg.INTERVAL:
        space = cg.OrbitSpace(cg.INTERVAL, float(p["length"]), tuple(p["endpoints"]))
    else:
        space = cg.OrbitSpace(cg.CIRCLE, float(p["length"]))
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
        v = np.column_stack(
            [np.polynomial.polynomial.polyval(grid, np.asarray(row, float)) for row in rows]
        )
        return v
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


def build_metric_object(cfg: RunConfig) -> InvariantMetric:
    alg = build_algebra(cfg)
    split = reductive_split(alg, cfg.isotropy)
    return InvariantMetric(split, np.asarray(cfg.metric_gram, dtype=float))


def build_problem(cfg: RunConfig):
    """Turn a validated config into a runnable problem.

    Structural validation (algebra axioms, metric invariance, profile
    checks) happens here; failures raise ConfigError with the failing
    check names.
    """
    if cfg.kind == "homogeneous":
        alg = build_algebra(cfg)
        rep = validate_structure(alg)
        if not rep.passed:
            raise ConfigError([f"algebra: {c.name} failed" for c in rep.failures()])
        split = reductive_split(alg, cfg.isotropy)
        metric = InvariantMetric(split, np.asarray(cfg.metric_gram, dtype=float))
        rep = check_metric_invariance(metric)
        if not rep.passed:
            raise ConfigError(["metric.gram: not invariant under the isotropy action"])
        x0 = np.asarray(cfg.initial["x"], dtype=float)
        if x0.shape != (split.dim_m,):
            raise ConfigError([f"initial.x: expected {split.dim_m} entries"])
        return HomogeneousProblem(metric, x0)

    profile = build_profile(cfg)
    rep = cg.validate_profile(profile)
    if not rep.passed:
        raise ConfigError([f"profile: {c.name} failed" for c in rep.failures()])
    n = int(cfg.solver["N"])
    if cfg.kind == "interval":
        grid = interval_grid(profile, n)
        v0 = build_initial_v(cfg, profile, grid)
        return IntervalProblem(profile, v0)
    grid = circle_grid(profile, n)
    v0 = build_initial_v(cfg, profile, grid)
    return CircleProblem(profile, float(cfg.initial["c"]), v0)


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(
        dt=float(cfg.solver["dt"]),
        t_end=float(cfg.solver["t_end"]),
        cfl_guard=float(cfg.solver.get("cfl_guard", 0.5)),
        snapshot_cadence=cfg.output.get("snapshot_cadence"),
        diagnostics_cadence=cfg.output.get("diagnostics_cadence", 1),
        dcdt_offset=cfg.dcdt_offset,
    )
