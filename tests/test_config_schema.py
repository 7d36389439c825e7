"""The config schema: exact parse messages, and fuzzing of the input boundary."""

import io
import json
import math
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coho_euler import ConfigError, catalog
from coho_euler.cli import main
from coho_euler.config import check_config, parse_config_dict

from bundled import DELETE, EYE3, SU2_C, variant

nan, inf = math.nan, math.inf


# One mutation of one bundled config per case, with the exact message list.
PINNED = [
    # top level and problem.kind: both stop the walk
    ("su2_rigid_body", "viscosity", 0.1, ["config.viscosity: unknown key"]),
    ("t3_circle", "solver", DELETE, ["config.solver: missing required key"]),
    ("su2_rigid_body", "problem.kind", "sphere",
     ["problem.kind: expected one of ('homogeneous', 'interval', 'circle'), got 'sphere'"]),
    ("su2_rigid_body", "problem.extra", 1, ["problem.extra: unknown key"]),
    # per-kind presence rules
    ("su2_rigid_body", "metric", DELETE, ["metric: required for homogeneous problems"]),
    ("su2_rigid_body", "algebra", DELETE, ["algebra: required for this problem"]),
    ("t3_circle", "profile", DELETE, ["profile: required for circle problems"]),
    ("t3_circle", "metric", {"gram": [[1.0]]}, ["metric: not allowed for circle problems"]),
    ("t3_circle", "algebra", {"name": "su2"},
     ["algebra: not allowed (the profile family fixes the fibre)"]),
    ("t3_circle", "isotropy", {"basis": []},
     ["isotropy: not allowed (the profile family fixes the fibre)"]),
    # algebra: its cross-field rule, integer bound, nested and rectangular numbers
    ("su2_rigid_body", "algebra.name", "so3", ["algebra.name: expected 'su2' or 'abelian'"]),
    ("su2_rigid_body", "algebra", {"name": "abelian"}, ["algebra.dim: required for abelian algebras"]),
    ("su2_rigid_body", "algebra.dim", 3, ["algebra.dim: not allowed for su2"]),
    ("su2_rigid_body", "algebra.Q", EYE3, ["algebra: give either a name or structure+Q, not both"]),
    ("su2_rigid_body", "algebra", {"structure": SU2_C}, ["algebra: give either a name or structure+Q"]),
    ("su2_rigid_body", "algebra", {"name": "abelian", "dim": 0},
     ["algebra.dim: expected a positive integer"]),
    ("su2_rigid_body", "algebra", {"name": "abelian", "dim": 17},
     ["algebra.dim: must be at most 16, got 17"]),
    ("su2_rigid_body", "algebra", {"structure": [[[0.0] * 17] * 17] * 17, "Q": [[0.0] * 17] * 17},
     ["algebra.structure: must have at most 16 entries, got 17",
      "algebra.Q: must have at most 16 entries, got 17"]),
    ("su2_rigid_body", "algebra", {"structure": [[[1.0, "a"]]], "Q": EYE3},
     ["algebra.structure[0][0][1]: expected a finite number"]),
    ("su2_rigid_body", "algebra", {"structure": SU2_C, "Q": [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]},
     ["algebra.Q: expected a rectangular array (rows of equal length)"]),
    # metric, isotropy and homogeneous initial data
    ("su2_rigid_body", "metric.gram", [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
     ["metric.gram: expected a square matrix"]),
    ("su2_rigid_body", "metric.gram", [[1.0, nan, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
     ["metric.gram[0][1]: expected a finite number"]),
    ("su2_rigid_body", "metric", "x", ["metric: expected an object"]),
    ("su2_rigid_body", "isotropy", {"basis": [[0.0, 0.0, "z"]]},
     ["isotropy.basis[0][2]: expected a finite number"]),
    ("su2_rigid_body", "initial.x", "abc", ["initial.x: expected a list"]),
    ("su2_rigid_body", "initial.c", 0.5, ["initial.c: unknown key"]),
    # profile: one case or more per family tag
    ("s3_t2_interval", "profile.length", 1.0, ["profile.length: unknown key"]),
    ("s3_t2_interval", "profile.family", "warped_torus",
     ["profile.length: missing required key", "profile.fourier: missing required key",
      "profile.family: warped_torus is a circle family"]),
    ("t3_circle", "profile.family", "round_s3_t2",
     ["profile.length: unknown key", "profile.fourier: unknown key",
      "profile.family: round_s3_t2 is an interval family"]),
    ("berger_circle", "profile.length", -1.0, ["profile.length: must be positive"]),
    ("berger_circle", "profile.family", "hyperbolic", ["profile.family: unknown family 'hyperbolic'"]),
    ("t3_circle", "profile.fourier", [[0.0], "x"], ["profile.fourier[1]: expected a list"]),
    ("t3_circle", "profile.fourier", [[0.0]] * 17,
     ["profile.fourier: must have at most 16 entries, got 17"]),
    ("berger_circle", "profile.fourier", [[0.0] * 2051, [0.0], [0.0]],
     ["profile.fourier[0]: must have at most 2049 entries, got 2051"]),
    ("boundary_interval", "profile.kind", "circle",
     ["profile.kind: must match problem.kind", "profile.endpoints: not allowed on a circle"]),
    ("boundary_interval", "profile.kind", "disk", ["profile.kind: expected 'interval' or 'circle'"]),
    ("boundary_interval", "profile.endpoints", DELETE,
     ["profile.endpoints: required for tabulated interval profiles"]),
    ("boundary_interval", "profile.csv", 3, ["profile.csv: expected a file name"]),
    ("boundary_interval", "profile.endpoints", ["boundary"],
     ["profile.endpoints: expected two of 'singular' and 'boundary'"]),
    ("boundary_interval", "profile.endpoints", ["boundary", "weird"],
     ["profile.endpoints: expected two of 'singular' and 'boundary'"]),
    ("boundary_interval", "profile.endpoints", [1, 2],
     ["profile.endpoints: expected two of 'singular' and 'boundary'"]),
    # initial.v: one case or more per type tag
    ("boundary_interval", "initial.v.type", "fourier",
     ["initial.v.values: unknown key", "initial.v.coefficients: missing required key",
      "initial.v.type: fourier initial data is circle-only"]),
    ("boundary_interval", "initial.v.values", [1.0, True, 0.5],
     ["initial.v.values[1]: expected a finite number"]),
    ("s3_t2_interval", "initial.v", {"type": "polynomial", "coefficients": [[1.0], "x"]},
     ["initial.v.coefficients[1]: expected a list"]),
    ("t3_circle", "initial.v.type", "polynomial",
     ["initial.v.type: polynomial initial data is not periodic; use fourier coefficients on a circle"]),
    ("t3_circle", "initial.v.type", "spline",
     ["initial.v.type: expected one of ('constant', 'polynomial', 'fourier', 'random_fourier'), "
      "got 'spline'"]),
    ("s3_t2_interval", "initial.v", {"type": "random_fourier", "seed": 1, "modes": 2, "amplitude": 0.1},
     ["initial.v.type: random_fourier is circle-only"]),
    ("s3_t2_interval", "initial.v", {"type": "polynomial", "coefficients": [[0.0] * 2050, [1.0]]},
     ["initial.v.coefficients[0]: must have at most 2049 entries, got 2050"]),
    ("t3_circle", "initial.v.coefficients", [[0.0] * 2051, [0.0]],
     ["initial.v.coefficients[0]: must have at most 2049 entries, got 2051"]),
    ("berger_circle", "initial.v.modes", 0, ["initial.v.modes: expected a positive integer"]),
    ("berger_circle", "initial.v.modes", 1025, ["initial.v.modes: must be at most 1024, got 1025"]),
    ("berger_circle", "initial.v.seed", -1, ["initial.v.seed: expected a non-negative integer"]),
    ("berger_circle", "initial.v", "x", ["initial.v: expected an object"]),
    ("berger_circle", "initial.c", DELETE, ["initial.c: missing required key"]),
    ("t3_circle", "initial.c", "fast", ["initial.c: expected a finite number"]),
    # solver.N bounds per kind, and the other numbers
    ("t3_circle", "solver.N", 15, ["solver.N: circle grids need an even N >= 16, got 15"]),
    ("t3_circle", "solver.N", 14, ["solver.N: circle grids need an even N >= 16, got 14"]),
    ("s3_t2_interval", "solver.N", 5, ["solver.N: interval grids need N >= 6, got 5"]),
    ("boundary_interval", "solver.N", 5, ["solver.N: interval grids need N >= 6, got 5"]),
    ("t3_circle", "solver.N", 4098, ["solver.N: must be at most 4096, got 4098"]),
    ("s3_t2_interval", "solver.N", 4097, ["solver.N: must be at most 4096, got 4097"]),
    ("s3_t2_interval", "solver.N", 6.0, ["solver.N: expected an integer"]),
    ("su2_rigid_body", "solver.N", 64, ["solver.N: unknown key"]),
    ("t3_circle", "solver.cfl_guard", 0.0, ["solver.cfl_guard: must be positive"]),
    ("t3_circle", "solver.dt", inf, ["solver.dt: expected a finite number"]),
    ("t3_circle", "solver", [], ["solver: expected an object"]),
    ("t3_circle", "output", {"snapshot_cadence": 0}, ["output.snapshot_cadence: expected a positive integer"]),
    ("t3_circle", "seed", "7", ["seed: expected an integer"]),
    ("t3_circle", "seed", -1, ["seed: expected a non-negative integer"]),
    ("t3_circle", "hooks", {"dcdt_offset": "x"}, ["config.hooks: unknown key"]),
    ("t3_circle", "hooks", {"other": 1}, ["config.hooks: unknown key"]),
]


@pytest.mark.parametrize(
    "name, path, value, messages",
    PINNED,
    ids=[f"{name}:{path}={'DELETE' if value is DELETE else value!r}"[:80] for name, path, value, _ in PINNED],
)
def test_parse_messages_pinned(name, path, value, messages):
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(variant(name, {path: value}))
    assert exc.value.messages == messages


# -- fuzzing: mutated bundled configs end in a documented refusal, never a traceback --

NON_FINITE = st.sampled_from([nan, inf, -inf])
# integers stay at or below 8, under every bundled grid size, so nothing drawn allocates much
NUMBERS = st.one_of(st.integers(-2, 8), st.floats(-2.0, 2.0))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, NON_FINITE, st.text(max_size=3))
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.lists(st.lists(SCALARS, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
)


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(catalog.example_names()))
    raw = variant(name)
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(_slots(raw))))
        value = node[key]
        op = draw(st.sampled_from(["delete", "swap", "extra", "non_finite", "resize", "number"]))
        if op == "delete":
            del node[key]
        elif op == "extra" and isinstance(value, dict):
            value[draw(st.text(min_size=1, max_size=4))] = draw(SCALARS)
        elif op == "resize" and isinstance(value, list):
            node[key] = value[:-1] if draw(st.booleans()) else value + value[-1:] + [0.0]
        elif op == "non_finite":
            node[key] = draw(NON_FINITE)
        elif op == "number":
            node[key] = draw(NUMBERS)
        else:
            node[key] = draw(VALUES)
    return name, raw


FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated_configs())
def test_fuzzed_config_raises_only_package_errors(case):
    # a parse may refuse a config; the check pass records every later refusal as a check
    name, raw = case
    try:
        cfg = parse_config_dict(raw, source_path=catalog.example_path(name))
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, state, geom = check_config(cfg)
    assert (state is None) == (geom is None) == (not report.passed)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    shutil.copy(catalog.example_path("boundary_interval").parent / "boundary_interval_profile.csv", path)
    return path


@FUZZ
@given(case=mutated_configs())
def test_fuzzed_config_validate_exit_code(fuzz_dir, case):
    path = fuzz_dir / "cfg.json"
    path.write_text(json.dumps(case[1]))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["validate", "--config", str(path)]) in (0, 2, 3, 4)


def few_steps(raw):
    """``raw`` with ``solver.t_end`` three steps of its ``solver.dt``, where that is a
    positive number: a run of any fuzzed config is short."""
    solver = raw.get("solver")
    dt = solver.get("dt") if isinstance(solver, dict) else None
    if isinstance(dt, (int, float)) and not isinstance(dt, bool) and 0 < dt < inf:
        solver["t_end"] = 3 * dt
    return raw


@FUZZ
@given(case=mutated_configs())
def test_fuzzed_config_run_exit_code(fuzz_dir, case):
    path = fuzz_dir / "cfg.json"
    path.write_text(json.dumps(few_steps(case[1])))
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")  # numpy's warnings included
        assert main(["run", "--config", str(path), "--out", str(fuzz_dir / "run")]) in (0, 2, 3, 4)


# -- fuzzing the tabulated CSV: its bytes end in a documented exit code, never a traceback --

CSV = (catalog.example_path("boundary_interval").parent / "boundary_interval_profile.csv").read_bytes()
# non-ASCII bytes, whole and cut-off UTF-8 sequences among them, and NUL
INJECTED = st.sampled_from([b"\xff", b"\xfe", b"\xff\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\x00",
                            "é".encode(), "−".encode(), b"\xef\xbb\xbf"])


@st.composite
def mutated_csvs(draw):
    """The bundled CSV's bytes, truncated, with rows deleted, inserted or
    swapped, or with bytes of ``INJECTED`` put in."""
    rows = CSV.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "delete", "insert", "swap", "inject"]))
        if op == "truncate":
            data = b"\n".join(rows)
            rows = data[: draw(st.integers(0, len(data)))].split(b"\n")
        elif op == "delete":
            del rows[draw(st.integers(0, len(rows) - 1))]
        elif op == "insert":
            row = draw(st.one_of(st.sampled_from(rows), st.binary(max_size=12)))
            rows.insert(draw(st.integers(0, len(rows))), row)
        elif op == "swap":
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        else:
            data = b"\n".join(rows)
            at = draw(st.integers(0, len(data)))
            rows = (data[:at] + draw(INJECTED) + data[at:]).split(b"\n")
        if not rows:  # the last row deleted: later draws need one to index
            rows = [b""]
    return b"\n".join(rows)


def csv_fuzz_case(fuzz_dir, data):
    """A three-step boundary_interval config in ``fuzz_dir`` on the CSV ``data``."""
    (fuzz_dir / "fuzzed.csv").write_bytes(data)
    return variant("boundary_interval", {"profile.csv": "fuzzed.csv", "solver.t_end": 0.003},
                   write_to=fuzz_dir)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("body", ["", "# no samples yet\n", "\n  \n# 0.0,1.0\n"],
                         ids=["header_only", "comment_only", "blank_and_comment"])
def test_csv_without_numeric_rows_exit_2(tmp_path, capsys, command, body):
    # a header with no data rows below it is refused with its own message,
    # before numpy can warn about an empty input
    header = CSV.split(b"\n", 1)[0].decode()
    (tmp_path / "empty.csv").write_text(header + "\n" + body)
    path = variant("boundary_interval", {"profile.csv": "empty.csv"}, write_to=tmp_path)
    args = [command, "--config", str(path)] + (["--out", str(tmp_path / "out")]
                                               if command == "run" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    captured = capsys.readouterr()
    assert "empty.csv: no numeric rows below the header" in captured.out + captured.err


@settings(FUZZ, max_examples=100)
@given(data=mutated_csvs())
def test_fuzzed_csv_validate_exit_code(fuzz_dir, data):
    path = csv_fuzz_case(fuzz_dir, data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["validate", "--config", str(path)]) in (0, 2, 3, 4)


@settings(FUZZ, max_examples=40)
@given(data=mutated_csvs())
def test_fuzzed_csv_run_exit_code(fuzz_dir, data):
    path = csv_fuzz_case(fuzz_dir, data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(path), "--out", str(fuzz_dir / "out")]) in (0, 2, 3, 4)
