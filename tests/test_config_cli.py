import dataclasses
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coho_euler import ConfigError, InputError, SolverConfig, catalog, su2
from coho_euler.cli import main
from coho_euler.coho_geometry import load_tabulated_csv, write_tabulated_csv
from coho_euler.config import (
    RunConfig,
    build_problem,
    build_solver_config,
    parse_config,
    parse_config_dict,
)
from coho_euler.diagnostics import grid_rule
from coho_euler.numerics import cubic_spline

from bundled import DELETE, EYE3, LU_SINGULAR_SU2, NO_CHOLESKY_2, SU2_C, variant

SRC = Path(__file__).resolve().parent.parent / "src"


# -- parsing -------------------------------------------------------------------


def test_parse_bundled_t3():
    cfg = catalog.load_example("t3_circle")
    assert cfg.kind == "circle"
    assert cfg.raw["solver"]["N"] == 256


def test_parsed_config_is_its_json():
    raw = variant("t3_circle")
    cfg = parse_config_dict(raw)
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["raw", "source_path"]
    assert cfg.raw is raw
    assert cfg.kind == raw["problem"]["kind"]


def test_solver_config_reads_each_solver_and_output_key():
    # t3_circle sets no optional key: SolverConfig's own defaults hold
    assert build_solver_config(catalog.load_example("t3_circle")) == SolverConfig(0.001, 1.0)
    given = {"solver.dt": 0.002, "solver.t_end": 0.5, "solver.cfl_guard": 0.25,
             "output.snapshot_cadence": 7, "output.diagnostics_cadence": 3}
    solver = build_solver_config(variant("t3_circle", given, parse=True))
    # each value is off its default, and the two cadences differ, so no key reaches another field
    assert solver == SolverConfig(dt=0.002, t_end=0.5, cfl_guard=0.25, snapshot_cadence=7,
                                  diagnostics_cadence=3)


def test_all_bundled_examples_build():
    for name in catalog.example_names():
        cfg = catalog.load_example(name)
        geom = build_problem(cfg)[1]
        assert geom.kind == cfg.kind


def test_odd_grid_size_rejected():
    with pytest.raises(ConfigError, match="solver.N"):
        parse_config_dict(variant("t3_circle", {"solver.N": 15}))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="viscosity"):
        parse_config_dict(variant("t3_circle", {"viscosity": 0.1}))
    with pytest.raises(ConfigError, match="solver.fancy"):
        parse_config_dict(variant("t3_circle", {"solver.fancy": True}))


def test_missing_required_key():
    with pytest.raises(ConfigError, match="solver.dt"):
        parse_config_dict(variant("t3_circle", {"solver.dt": DELETE}))


def test_polynomial_rejected_on_circle():
    raw = variant("t3_circle", {"initial.v": {"type": "polynomial", "coefficients": [[0.0, 1.0], [0.0]]}})
    with pytest.raises(ConfigError, match="not periodic"):
        parse_config_dict(raw)


def test_fourier_rejected_on_interval():
    raw = variant("s3_t2_interval", {"initial.v": {"type": "fourier", "coefficients": [[0.0, 1.0, 0.0], [0.0]]}})
    with pytest.raises(ConfigError, match="circle-only|fourier"):
        parse_config_dict(raw)


def test_odd_polynomial_parity_rejected():
    cfg = variant("s3_t2_interval", {"initial.v": {"type": "polynomial", "coefficients": [[0.0, 1.0], [0.5]]}},
                  parse=True)
    with pytest.raises(ConfigError, match="odd powers"):
        build_problem(cfg)


def test_constant_polynomial_accepted_on_interval():
    v = {"type": "polynomial", "coefficients": [[1.0], [2.0]]}
    state = build_problem(variant("s3_t2_interval", {"initial.v": v}, parse=True))[0]
    assert np.allclose(state.v, [1.0, 2.0])


def test_algebra_forbidden_for_builtin_families():
    raw = variant("t3_circle", {"algebra": {"name": "abelian", "dim": 2}})
    with pytest.raises(ConfigError, match="algebra"):
        parse_config_dict(raw)


def test_random_fourier_is_seed_deterministic():
    raw = variant("t3_circle", {"initial.v": {"type": "random_fourier", "seed": 5, "modes": 2, "amplitude": 0.1}})
    a = build_problem(parse_config_dict(raw))[0].v
    b = build_problem(parse_config_dict(raw))[0].v
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", [*catalog.example_names(), "non_ascii_directory"])
def test_config_hash_is_hashlib_sha256(name):
    # manifest.json's config_hash: the built-in digest must equal hashlib's
    if name == "non_ascii_directory":
        cfg = parse_config_dict(variant("t3_circle", {"output.directory": "résultats/流体 ☃"}))
    else:
        cfg = catalog.load_example(name)
    assert cfg.hash() == hashlib.sha256(cfg.canonical_json().encode()).hexdigest()


# -- CLI -----------------------------------------------------------------------


def test_cli_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    names = catalog.example_names()
    assert names == ["su2_rigid_body", "s3_t2_interval", "t3_circle", "berger_circle", "boundary_interval"]
    positions = [out.index(n) for n in names]
    assert positions == sorted(positions)


def test_cli_parse_error_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 4
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 4


def assert_parse_error(tmp_path, capsys, bad, reason):
    for args in (["run", "--config", str(bad), "--out", str(tmp_path / "o")],
                 ["validate", "--config", str(bad)]):
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and reason in err
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_integer_over_digit_limit_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": ' + "1" * 4301 + "}")
    assert_parse_error(tmp_path, capsys, bad, "4300 digits")


def test_cli_non_utf8_config_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"problem": "\xff\xfe"}')
    assert_parse_error(tmp_path, capsys, bad, "utf-8")


def test_cli_deeply_nested_config_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 200000)
    assert_parse_error(tmp_path, capsys, bad, "recursion")


def test_random_fourier_seed_of_4299_digits_runs(tmp_path):
    # the largest integer literal json reads is still a valid seed
    path = variant("berger_circle", {"initial.v.seed": int("7" * 4299), "solver.t_end": 0.01}, write_to=tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_cli_validation_error_exit_2(tmp_path, capsys):
    # solver.N below the grid rule of a circle, a singular and a boundary interval
    for name, n in (("t3_circle", 15), ("t3_circle", 14), ("s3_t2_interval", 5),
                    ("boundary_interval", 5)):
        path = variant(name, {"solver.N": n}, write_to=tmp_path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"solver.N: {grid_rule(variant(name)['problem']['kind'])}, got {n}" in err


def test_cli_run_success_and_artifacts(tmp_path, capsys):
    path = variant("t3_circle", {"solver.t_end": 0.05, "solver.dt": 0.001}, write_to=tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "summary.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config_hash"]
    snaps = list((out / "snapshots").glob("snapshot_*.csv"))
    assert len(snaps) == len(manifest["snapshots"])
    header = (out / "snapshots" / "snapshot_000000.csv").read_text().splitlines()[0]
    assert header == "r,v_1,v_2,p"


def test_cli_rerun_byte_identical(tmp_path):
    path = variant("t3_circle", {"solver.t_end": 0.05, "solver.dt": 0.001}, write_to=tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    for fname in ("diagnostics.csv", "summary.json", "manifest.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    for snap in sorted((out1 / "snapshots").iterdir()):
        assert snap.read_bytes() == (out2 / "snapshots" / snap.name).read_bytes()


def test_cli_relative_output_directory_is_under_the_working_directory(tmp_path, monkeypatch):
    path = variant("su2_rigid_body", {"solver.t_end": 0.005, "output.directory": "runs/su2"},
                   write_to=tmp_path / "configs")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", "--config", str(path)]) == 0
    assert (work / "runs" / "su2" / "manifest.json").exists()
    assert not (tmp_path / "configs" / "runs").exists()


def test_cli_default_output_directory_is_named_by_the_config_hash(tmp_path, monkeypatch):
    path = variant("su2_rigid_body", {"solver.t_end": 0.005}, write_to=tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / f"coho_euler_run_{parse_config(path).hash()[:8]}"
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("under", [False, True])
def test_cli_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under):
    path = variant("su2_rigid_body", {"solver.t_end": 0.005}, write_to=tmp_path / "configs")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "sub" if under else blocker
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot create output directory {out}" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize("artifact", ["diagnostics.csv", "snapshots/snapshot_000000.csv"])
def test_cli_unwritable_artifact_exits_2(tmp_path, capsys, artifact):
    path = variant("su2_rigid_body", {"solver.t_end": 0.005}, write_to=tmp_path / "configs")
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)  # a directory where the artifact goes
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {out / artifact}: ")


def test_cli_numerical_failure_exit_3(tmp_path, capsys, dcdt_fault):
    path = variant("t3_circle", {"solver.t_end": 0.05}, write_to=tmp_path)
    dcdt_fault(1.0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    # partial artifacts preserved with the failure recorded
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["kind"] == "pressure_periodicity"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_cli_failing_run_prints_no_runtime_warning(tmp_path):
    # a fresh process, where no pytest warning filter applies: the failure
    # record reports the non-finite stage, and numpy stays silent
    path = variant("su2_rigid_body", {"initial.x": [1e200, 1e200, 0.0], "solver.t_end": 1.0},
                   write_to=tmp_path)
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "coho_euler.cli", "run",
         "--config", str(path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 3, res.stderr
    assert "RuntimeWarning" not in res.stderr, res.stderr
    # strict JSON: the overflowed values are the strings "NaN" and "Infinity"
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
    assert (summary["energy"]["initial"], summary["energy"]["max_rel_drift"]) == ("Infinity", "NaN")
    failure = summary["failure"]
    # x1 x2 = 1e400 overflows in dx3/dt: node 0 (the one node), coefficient 2
    assert (failure["stage"], failure["node"], failure["coefficient"]) == (1, 0, 2)


# failed runs whose last states overflow the pressure reconstructed after the
# run, each cut to 5 steps: (example, updates, failure kind)
OVERFLOWING_RUNS = {
    "boundary-v-1e154": ("boundary_interval", {"initial.v.values": [1e154] * 3}, "non_finite"),
    "t3-c-1e200": ("t3_circle", {"initial.c": 1e200}, "cfl"),
    "berger-c-1e154": ("berger_circle", {"initial.c": 1e154}, "cfl"),
    "berger-c-1e300": ("berger_circle", {"initial.c": 1e300}, "cfl"),
}


@pytest.mark.parametrize("case", OVERFLOWING_RUNS)
def test_cli_overflowing_pressures_print_no_warning(tmp_path, capsys, case):
    name, updates, kind = OVERFLOWING_RUNS[case]
    path = variant(name, {**updates, "solver.t_end": 0.005}, write_to=tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warnings included: none may reach stderr
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "Warning" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["kind"] == kind
    assert not summary["all_ok"]


def _no_constant(name):
    raise ValueError(f"summary.json holds the bare constant {name}, which is not JSON")


def test_cli_overflowing_rk4_combine_exit_3(tmp_path, capsys):
    # all four stages are finite, but k1 + 2 k2 + 2 k3 + k4 overflows: the
    # stepped-state screen names the combine and the run keeps its artifacts
    path = variant("su2_rigid_body", {"initial.x": [1e154, 1e154, 1e154],
                                      "solver.dt": 1e-300, "solver.t_end": 1e-300}, write_to=tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    failure = json.loads((out / "summary.json").read_text())["failure"]
    assert failure["kind"] == "non_finite"
    assert (failure["stage"], failure["step"], failure["t"]) == ("combine", 0, 0.0)
    assert (failure["node"], failure["coefficient"]) == (0, 0)  # the first entry overflows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and (out / "diagnostics.csv").exists()
    assert manifest["snapshots"]
    for snap in manifest["snapshots"]:
        values = np.loadtxt(out / snap["file"], delimiter=",", skiprows=1)
        assert np.all(np.isfinite(values)), snap["file"]


def test_cli_validate_bundled_interval(capsys):
    path = catalog.example_path("s3_t2_interval")
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "volume_collapse_at_r=0" in out
    assert "validation passed" in out


def test_every_bundled_example_validates(capsys):
    # one line per check, a yes/no check with no residual, then the verdict
    for name in catalog.example_names():
        assert main(["validate", "--config", str(catalog.example_path(name))]) == 0, name
        *checks, verdict = capsys.readouterr().out.splitlines()
        assert verdict == "validation passed"
        for line in checks:
            assert re.fullmatch(r"(PASS|FAIL)  \S+(: .+)?", line), line
            assert "(tol=1.0e+00)" not in line, line


def test_cli_bundled_su2_reference_run(tmp_path):
    # the shipped config as-is: t_end=100, exit 0, conserved speeds in summary
    out = tmp_path / "su2"
    code = main(["run", "--config", str(catalog.example_path("su2_rigid_body")), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pointwise_speed"]["max_drift"] < 1e-8
    assert summary["all_ok"]


def final_snapshot(out):
    """The coefficients of the last snapshot a run wrote to ``out``."""
    name = json.loads((out / "manifest.json").read_text())["snapshots"][-1]["file"]
    return np.loadtxt(out / name, delimiter=",", skiprows=1)


def test_cli_custom_q_runs_the_same_flow(tmp_path, capsys):
    # su(2) given by its structure constants under Q = 2I: its complement rows
    # are e_i / sqrt(2), so the gram is G / 2 and the state sqrt(2) x
    shipped = variant("su2_rigid_body")
    gram, x = np.array(shipped["metric"]["gram"]), np.array(shipped["initial"]["x"])
    named = variant("su2_rigid_body", {"solver.t_end": 1.0}, write_to=tmp_path / "named")
    custom = variant("su2_rigid_body", {"solver.t_end": 1.0,
                                        "algebra": {"structure": SU2_C, "Q": (2.0 * np.eye(3)).tolist()},
                                        "metric.gram": (gram / 2.0).tolist(),
                                        "initial.x": (np.sqrt(2.0) * x).tolist()},
                     write_to=tmp_path / "custom")
    assert main(["validate", "--config", str(custom)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "validation passed"
    for path in (named, custom):
        assert main(["run", "--config", str(path), "--out", str(path.parent / "out")]) == 0
    want = final_snapshot(named.parent / "out")[1:4]
    got = final_snapshot(custom.parent / "out")[1:4] / np.sqrt(2.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cli_validate_non_spd_tabulated_names_r(tmp_path, capsys):
    rows = ["r,g_11,gp_11"]
    for r in np.linspace(0.0, 1.0, 17):
        rows.append(f"{r},{1.0 - 1.5 * r},{-1.5}")
    (tmp_path / "prof.csv").write_text("\n".join(rows) + "\n")
    raw = {
        "problem": {"kind": "interval"},
        "algebra": {"name": "abelian", "dim": 1},
        "profile": {"family": "tabulated", "length": 1.0, "kind": "interval",
                    "endpoints": ["boundary", "boundary"], "csv": "prof.csv"},
        "initial": {"v": {"type": "constant", "values": [1.0]}},
        "solver": {"N": 16, "dt": 0.001, "t_end": 0.01},
    }
    path = variant(raw, write_to=tmp_path)
    assert main(["validate", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "gram_positive_on_probe_grid" in out
    assert "at r =" in out


def fourier_v(coefficients):
    return {"type": "fourier", "coefficients": coefficients}


@pytest.mark.parametrize(
    "name, updates",
    [
        ("berger_circle", {"problem": []}),
        ("berger_circle", {"initial": "x"}),
        ("berger_circle", {"profile": None}),
        ("berger_circle", {"profile.fourier": "abc"}),
        ("berger_circle", {"profile.fourier": [[0.0, "a", 0.0], [0.0], [0.0]]}),
        ("berger_circle", {"initial.v.amplitude": "big"}),
        ("berger_circle", {"initial.v.modes": 1.5}),
        ("berger_circle", {"initial.v.seed": -1}),
        ("berger_circle", {"initial.v": fourier_v("abc")}),
        ("berger_circle", {"initial.v": fourier_v([[0.0, 1.0, "a"], [0.0], [0.0]])}),
        ("berger_circle", {"output": {"snapshot_cadence": True}}),
        ("berger_circle", {"output": {"diagnostics_cadence": 0}}),
        ("berger_circle", {"output": {"directory": 5}}),
        ("berger_circle", {"output": {"directory": ["a"]}}),
        ("s3_t2_interval", {"initial.v": {"type": "polynomial", "coefficients": [[], [1.0]]}}),
        pytest.param("t3_circle", {"solver.t_end": 10**400}, id="t3_circle-solver.t_end=10**400"),
        ("boundary_interval", {"profile.csv": "missing.csv"}),
        ("boundary_interval", {"profile.endpoints": 1.5}),
        ("su2_rigid_body", {"algebra": None}),
        ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": "x"}}),
        ("su2_rigid_body", {"isotropy": {"basis": "x"}}),
        ("su2_rigid_body", {"metric.gram": [[1.0], [2.0, 3.0]]}),
        ("su2_rigid_body", {"algebra": {"structure": SU2_C, "Q": [[1.0], [0.0, 1.0], [0, 0, 1]]}}),
        ("su2_rigid_body", {"algebra": {"structure": [SU2_C[0], SU2_C[1], SU2_C[2][:2]], "Q": EYE3}}),
        # just past each upper bound, and an allocation numpy cannot make
        ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": 17}}),
        ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": 100000}}),
        ("berger_circle", {"solver.N": 4098}),
        ("s3_t2_interval", {"solver.N": 4097}),
        ("berger_circle", {"initial.v.modes": 1025}),
    ],
    ids=lambda case: ",".join(f"{k}={v!r}" for k, v in case.items()) if isinstance(case, dict) else case,
)
def test_cli_malformed_config_exit_2(request, tmp_path, capsys, name, updates):
    path = variant(name, updates, write_to=tmp_path)
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    if request.node.callspec.id in MALFORMED_FAIL_LINES:  # refused as the geometry is built
        assert MALFORMED_FAIL_LINES[request.node.callspec.id] in captured.out
        assert captured.err == ""
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert_run_gives_each_finding(captured.out, capsys.readouterr().err)
    else:  # refused as the config is parsed
        assert "validation error: " in captured.err


# the failed check of validate for a case above that parses
MALFORMED_FAIL_LINES = {
    "boundary_interval-profile.csv='missing.csv'": "FAIL  profile_csv: profile.csv: no such file ",
}


@pytest.mark.parametrize("field", ["structure", "Q"])
def test_ragged_algebra_names_field_path(field):
    algebra = {"structure": SU2_C, "Q": EYE3}
    algebra[field] = [row[:2] if i == 2 else row for i, row in enumerate(algebra[field])]
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(variant("su2_rigid_body", {"algebra": algebra}))
    assert any(m.startswith(f"algebra.{field}: ") for m in exc.value.messages)


def tabulated_cfg(tmp_path, cell=None, **updates):
    """The boundary_interval config on a copy of its CSV, one (row, column, text) cell replaced."""
    csv = catalog.example_path("boundary_interval").parent / "boundary_interval_profile.csv"
    lines = csv.read_text().splitlines()
    if cell is not None:
        row, column, text = cell
        cells = lines[row].split(",")
        cells[column] = text
        lines[row] = ",".join(cells)
    (tmp_path / "prof.csv").write_text("\n".join(lines) + "\n")
    return variant("boundary_interval", {"profile.csv": "prof.csv", **updates}, write_to=tmp_path)


@pytest.mark.parametrize(
    "cell, table",
    [((5, 4, "nan"), "gram"), ((7, 12, "inf"), "gram'"), ((3, 0, "nan"), "r")],
    ids=["nan-gram", "inf-gram-prime", "nan-r"],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_non_finite_tabulated_samples_exit_2(tmp_path, capsys, command, cell, table):
    path = tabulated_cfg(tmp_path, cell)
    args = [command, "--config", str(path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    message = f"profile.csv: tabulated {table} contains non-finite entries"
    if command == "run":
        assert captured.err == f"validation error: {message}\n"
    else:
        assert f"FAIL  profile_csv: {message}\nvalidation FAILED\n" in captured.out
        assert captured.err == ""
    assert "periodic" not in captured.out + captured.err


def test_cli_tabulated_circle_mismatch_is_not_periodic(tmp_path, capsys):
    # the bundled interval profile read as a circle: its first and last rows differ
    path = tabulated_cfg(tmp_path, **{"problem.kind": "circle", "profile.kind": "circle",
                                      "profile.endpoints": DELETE, "initial.c": 0.0})
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert ("FAIL  profile_csv: profile.csv: tabulated profile is not periodic: the first and "
            "last gram samples differ\n") in captured.out
    assert captured.err == ""


PROFILE_CSV = (catalog.example_path("boundary_interval").parent / "boundary_interval_profile.csv").read_bytes()
ROW_3 = len(b"\n".join(PROFILE_CSV.split(b"\n")[:3])) + 1  # the offset where row 3 starts
# a profile CSV that cannot be read: (its name, its bytes, or "dir" for a
# directory and None for no file, its one error line after "profile.csv: ",
# with {} for the path)
UNREADABLE_CSV = {
    "missing": ("missing.csv", None, "no such file {}"),
    "non-utf8-header": ("prof.csv", PROFILE_CSV.replace(b"g_11", b"g_\xff11", 1),
                        "cannot read {}: not UTF-8 text: invalid start byte at byte offset 4"),
    "ff-fe-after-row-2": ("prof.csv", PROFILE_CSV[:ROW_3] + b"\xff\xfe\n" + PROFILE_CSV[ROW_3:],
                          f"cannot read {{}}: not UTF-8 text: invalid start byte at byte offset {ROW_3}"),
    "over-long-path": ("x" * 5000, None, f"cannot read {{}}: {os.strerror(errno.ENAMETOOLONG)}"),
    "directory": ("prof.csv", "dir", "cannot read {}: not a regular file"),
}


@pytest.mark.parametrize("case", UNREADABLE_CSV)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_unreadable_csv_exit_2(tmp_path, capsys, command, case):
    name, content, message = UNREADABLE_CSV[case]
    csv = tmp_path / name
    if content == "dir":
        csv.mkdir()
    elif content is not None:
        csv.write_bytes(content)
    path = variant("boundary_interval", {"profile.csv": name, "solver.t_end": 0.003}, write_to=tmp_path)
    args = [command, "--config", str(path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    message = f"profile.csv: {message.format(csv)}"
    if command == "run":
        assert (captured.out, captured.err) == ("", f"validation error: {message}\n")
    else:  # every check line before it passed
        lines = captured.out.splitlines()
        assert lines[-2:] == [f"FAIL  profile_csv: {message}", "validation FAILED"]
        assert all(line.startswith("PASS  ") for line in lines[:-2])
        assert captured.err == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", UNREADABLE_CSV)
def test_reader_refuses_unreadable_csv(tmp_path, case):
    # the one reader refuses by itself, in the words the CLI prints after "profile.csv: "
    name, content, message = UNREADABLE_CSV[case]
    csv = tmp_path / name
    if content == "dir":
        csv.mkdir()
    elif content is not None:
        csv.write_bytes(content)
    with pytest.raises(InputError) as info:
        load_tabulated_csv(csv)
    assert type(info.value) is InputError
    assert str(info.value) == message.format(csv)


def assert_run_gives_each_finding(validated, ran):
    """Each finding of a FAIL line in ``validate``'s stdout ends a refusal in
    ``run``'s stderr."""
    refusals = [line for line in ran.splitlines() if line.startswith("validation error: ")]
    for line in validated.splitlines():
        if line.startswith("FAIL  "):
            finding = line.partition(": ")[2]
            assert any(refusal.endswith(finding) for refusal in refusals), line


ODD_LIST = "each Fourier entry must be a finite odd-length list [a0, a1, b1, a2, b2, ...]"
NOT_PD = "g_r is not positive definite at r = "
# a config that parses, refused as its fibre or geometry is built: (its config
# in tmp_path, the start of validate's FAIL line, the start of each of run's
# messages)
NAMED_REFUSALS = {
    "berger-even-entry": (
        lambda tmp: variant("berger_circle", {"profile.fourier": [[0.0, 1.0], [0.0], [0.0]]},
                            write_to=tmp),
        f"FAIL  profile_fourier: profile.fourier: {ODD_LIST}", f"profile.fourier: {ODD_LIST}"),
    "t3-even-entry": (
        lambda tmp: variant("t3_circle", {"profile.fourier": [[0.0, 1.0], [0.0]]}, write_to=tmp),
        f"FAIL  profile_fourier: profile.fourier: {ODD_LIST}", f"profile.fourier: {ODD_LIST}"),
    "berger-two-entries": (
        lambda tmp: variant("berger_circle", {"profile.fourier": [[0.0], [0.0]]}, write_to=tmp),
        "FAIL  profile_fourier: profile.fourier: su(2) fibres need exactly three diagonal entries",
        "profile.fourier: su(2) fibres need exactly three diagonal entries"),
    "warped-torus-no-entry": (
        lambda tmp: variant("t3_circle", {"profile.fourier": []}, write_to=tmp),
        "FAIL  profile_fourier: profile.fourier: algebra dimension must be >= 1, got 0",
        "profile.fourier: algebra dimension must be >= 1, got 0"),
    "csv-d-not-algebra": (
        lambda tmp: tabulated_cfg(tmp, **{"algebra": {"name": "abelian", "dim": 2},
                                          "initial.v.values": [1.0, 0.0]}),
        "FAIL  profile_csv: profile.csv: tabulated gram arrays must have shape (n, d, d)",
        "profile.csv: tabulated gram arrays must have shape (n, d, d)"),
    "csv-short-of-L": (
        lambda tmp: tabulated_cfg(tmp, **{"profile.length": 2.0}),
        "FAIL  profile_csv: profile.csv: tabulated samples must cover [0, L] inclusive",
        "profile.csv: tabulated samples must cover [0, L] inclusive"),
    "structure-shape-not-Q": (
        lambda tmp: variant("su2_rigid_body", {"algebra": {"structure": np.zeros((2, 2, 2)).tolist(),
                                                           "Q": EYE3}}, write_to=tmp),
        "FAIL  algebra: algebra: structure has shape (2, 2, 2), expected (3, 3, 3)",
        "algebra: structure has shape (2, 2, 2), expected (3, 3, 3)"),
    # g_11 = -0.001 at r = 0 only: g_r fails first at r = FD_STEP, in the trace
    # identity, and the tabulated g' no longer matches the spline's
    "trace-identity-sample": (
        lambda tmp: tabulated_cfg(tmp, (1, 1, "-0.001")),
        f"FAIL  mean_curvature_trace_identity: {NOT_PD}1e-05 ",
        f"profile: mean_curvature_trace_identity failed: {NOT_PD}1e-05 ",
        "profile: tabulated_derivative_consistency failed: residual=5.934e+01 (tol=1.0e-06)"),
    # g_11 = r^2 - 1e-12 is positive at every probe of the positivity and trace
    # checks, and not at the smallest radii of the volume-collapse check
    "volume-collapse-sample": (
        lambda tmp: abelian_profile_cfg(tmp, "left", gap=1e-12),
        f"FAIL  volume_collapse_at_r=0: {NOT_PD}",
        f"profile: volume_collapse_at_r=0 failed: {NOT_PD}"),
    # C^3_12 = 2 breaks antisymmetry, and with it the Jacobi identity and Q's invariance
    "structure-not-antisymmetric": (
        lambda tmp: variant("su2_rigid_body", {"algebra": {"structure": _not_antisymmetric(),
                                                           "Q": EYE3}}, write_to=tmp),
        "FAIL  antisymmetry: residual=1.000e+00 (tol=1.0e-12)",
        "algebra: antisymmetry failed: residual=1.000e+00 (tol=1.0e-12)",
        "algebra: jacobi_identity failed: residual=1.000e+00 (tol=1.0e-12)",
        "algebra: ad_invariance failed: residual=1.000e+00 (tol=1.0e-12)"),
    # polynomial initial data past the float range: the initial state refuses it
    "initial-state-overflows": (
        lambda tmp: abelian_profile_cfg(tmp, "left", **v1([0.0, 0.0, 1e308, 0.0, 1e308])),
        "FAIL  initial_data: initial: state coefficients v contains non-finite entries",
        "initial: state coefficients v contains non-finite entries"),
}


@pytest.mark.parametrize("case", NAMED_REFUSALS)
def test_refusal_is_a_named_check(tmp_path, capsys, case):
    # validate prints the refusal as a failed check, run as its error, and neither
    # prints a bare error line
    make, fail_line, *messages = NAMED_REFUSALS[case]
    path = make(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", str(path)]) == 2
        validated = capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        ran = capsys.readouterr()
    assert any(line.startswith(fail_line) for line in validated.out.splitlines())
    assert validated.out.endswith("validation FAILED\n") and validated.err == ""
    for message in messages:
        assert f"\nvalidation error: {message}" in "\n" + ran.err
    assert ran.out == ""
    assert_run_gives_each_finding(validated.out, ran.err)
    assert not (tmp_path / "out").exists()


def _not_antisymmetric():
    structure = su2().structure
    structure[0, 1, 2] = 2.0
    return structure.tolist()


def abelian_profile_cfg(tmp_path, singular, gap=0.0, **updates):
    """An abelian d = 2 interval on a 201-row table with one singular end:
    diag(r^2, 1 + r^2) on [0, 1] (``singular`` "left", profile A) or
    diag((L - r)^2, 1 + r^2) on [0, L = 0.7] ("right", profile B), with ``gap``
    taken off the collapsing entry."""
    length = 1.0 if singular == "left" else 0.7
    r = np.linspace(0.0, length, 201)
    rho, sign = (r, 1.0) if singular == "left" else (length - r, -1.0)
    gram, prime = np.zeros((2, r.size, 2, 2))
    gram[:, 0, 0], gram[:, 1, 1] = rho**2 - gap, 1.0 + r**2
    prime[:, 0, 0], prime[:, 1, 1] = 2.0 * sign * rho, 2.0 * r
    write_tabulated_csv(tmp_path / "prof.csv", r, gram, prime)
    ends = ["singular", "boundary"] if singular == "left" else ["boundary", "singular"]
    raw = {"problem": {"kind": "interval"}, "algebra": {"name": "abelian", "dim": 2},
           "profile": {"family": "tabulated", "length": length, "kind": "interval",
                       "endpoints": ends, "csv": "prof.csv"},
           "initial": {"v": {"type": "polynomial", "coefficients": [[0.0], [1.0]]}},
           "solver": {"N": 16, "dt": 0.001, "t_end": 0.01}}
    return variant(raw, updates, write_to=tmp_path)


def spiked_profile_cfg(tmp_path):
    """An abelian d = 1 interval with boundary ends whose g_r = 1 dips to -1 at
    the knot r = 0.4 alone: a state node at N = 6, but between the 512
    positivity probes, where the dense knots around 0.4 keep the spline at 1."""
    r = np.unique(np.r_[np.linspace(0.0, 1.0, 201), np.linspace(0.399, 0.401, 201)])
    g = np.where(r == 0.4, -1.0, 1.0)
    prime = cubic_spline(r, g, False).derivative()(r)
    write_tabulated_csv(tmp_path / "prof.csv", r, g[:, None, None], prime[:, None, None])
    raw = {"problem": {"kind": "interval"}, "algebra": {"name": "abelian", "dim": 1},
           "profile": {"family": "tabulated", "length": 1.0, "kind": "interval",
                       "endpoints": ["boundary", "boundary"], "csv": "prof.csv"},
           "initial": {"v": {"type": "constant", "values": [1.0]}},
           "solver": {"N": 6, "dt": 0.001, "t_end": 0.01}}
    return variant(raw, write_to=tmp_path)


def rank_one_profile_cfg(tmp_path):
    """An abelian d = 2 interval with boundary ends whose g_r is the constant
    NO_CHOLESKY_2, with g' = 0: positive to eigvalsh, with no Cholesky factor."""
    r = np.linspace(0.0, 1.0, 11)
    g = np.tile(NO_CHOLESKY_2, (r.size, 1, 1))
    write_tabulated_csv(tmp_path / "prof.csv", r, g, np.zeros_like(g))
    raw = {"problem": {"kind": "interval"}, "algebra": {"name": "abelian", "dim": 2},
           "profile": {"family": "tabulated", "length": 1.0, "kind": "interval",
                       "endpoints": ["boundary", "boundary"], "csv": "prof.csv"},
           "initial": {"v": {"type": "constant", "values": [1.0, 0.5]}},
           "solver": {"N": 16, "dt": 0.001, "t_end": 0.01}}
    return variant(raw, write_to=tmp_path)


def v1(coefficients):
    """Polynomial initial data with first component ``coefficients`` and second 1."""
    return {"initial.v.coefficients": [list(coefficients), [1.0]]}


# fibres one past the size caps, otherwise valid: d = 17 warped-torus entries,
# one Fourier entry of 1025 modes, and a d = 17 structure+Q algebra
BIG_TORUS = {"profile.fourier": [[0.0]] * 17,
             "initial.v": {"type": "constant", "values": [0.0] * 17}}
LONG_ENTRY = {"profile.fourier": [[0.0] * (2 * 1025 + 1), [0.0]]}
BIG_ALGEBRA = {"algebra": {"structure": np.zeros((17, 17, 17)).tolist(), "Q": np.eye(17).tolist()},
               "metric.gram": np.eye(17).tolist(), "initial.x": [1.0] + [0.0] * 16}


# berger_circle in other units: every log-entry raised by 15 scales g by e^15,
# and v by e^-7.5 keeps the flow's speeds
OTHER_UNITS = {"profile.fourier": [[a0 + 15.0, *rest] for a0, *rest in
                                   variant("berger_circle")["profile"]["fourier"]],
               "initial.v.amplitude": 0.08 * np.exp(-7.5)}


# sum_k a_k (L - r)^(2k), a = (1.2, 3.4, -5.6, 1000), expanded in powers of r at L = 0.7
EVEN_AT_L = sum(a * np.polynomial.Polynomial([0.7, -1.0]) ** (2 * k)
                for k, a in enumerate([1.2, 3.4, -5.6, 1000.0])).coef.tolist()


# the failed check of validate for a refusal raised as the fibre or the metric is
# built, by case id below: a FAIL line that names the field, not a bare error
SPANS_ALL = ("FAIL  isotropy_basis: isotropy.basis: isotropy basis spans the whole algebra: "
             "the complement m is empty")
FAIL_LINES = {
    "isotropy-spans-abelian1": SPANS_ALL,
    "isotropy-spans-abelian2": SPANS_ALL,
    "gram-not-symmetric": "FAIL  metric_gram: metric.gram: gram matrix is not symmetric",
    "isotropy-dependent": "FAIL  isotropy_basis: isotropy.basis: isotropy basis vectors are "
                          "linearly dependent (vector 1)",
    "isotropy-row-short": "FAIL  isotropy_basis: isotropy.basis: h_basis vector has shape (2,), "
                          "expected (3,)",
    "isotropy-not-closed": "FAIL  isotropy_basis: isotropy.basis: isotropy basis does not span "
                           "a subalgebra (off-span residual ",
}


@pytest.mark.parametrize(
    "name, updates, code",
    [
        ("boundary_interval", {"algebra": {"structure": _not_antisymmetric(), "Q": EYE3}, "solver.t_end": 0.01}, 2),
        ("boundary_interval", {"algebra": {"structure": SU2_C, "Q": np.diag([1.0, 2.0, 3.0]).tolist()}, "solver.t_end": 0.01}, 2),
        ("t3_circle", {"solver.dt": 0.003, "solver.t_end": 0.01}, 2),
        ("su2_rigid_body", {"initial.x": [1.0], "solver.t_end": 0.01}, 2),
        ("su2_rigid_body", {"solver.dt": 5e-324, "solver.t_end": 2.0}, 2),
        ("su2_rigid_body", {"isotropy": {"basis": [[0.0, 0.0, 1.0]]}, "metric.gram": [[1.0, 0.0], [0.0, 1.0]],
                            "initial.x": [1.0, 0.5], "solver.t_end": 0.01}, 2),
        ("left", v1([0.0, 0.0, 0.0, 0.0, 1000.0]), 0),
        ("right", v1(EVEN_AT_L), 0),
        ("left", v1([0.0, 0.5] + [0.0] * 18 + [1e12]), 2),
        ("left", v1([0.0, 1e-11]), 2),
        ("left", v1([0.0, 1e-300]), 0),
        ("right", v1([0.0, 1.0]), 2),
        ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": 3}, "isotropy": {"basis": [[1.0, 0.0, 0.0]]},
                            "metric.gram": [[1.0, 0.0], [0.0, 2.0]], "initial.x": [1.0, 0.5],
                            "solver.t_end": 0.01}, 0),
        ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": 1}, "isotropy": {"basis": [[1.0]]},
                            "metric.gram": [], "initial.x": [], "solver.t_end": 0.01}, 2),
        ("su2_rigid_body", {"algebra": {"name": "abelian", "dim": 2}, "isotropy": {"basis": [[1.0, 0.0], [0.0, 1.0]]},
                            "metric.gram": [], "initial.x": [], "solver.t_end": 0.01}, 2),
        ("spiked", {}, 2),
        ("t3_circle", {**BIG_TORUS, "solver.t_end": 0.01}, 2),
        ("t3_circle", {**LONG_ENTRY, "solver.t_end": 0.01}, 2),
        ("su2_rigid_body", {**BIG_ALGEBRA, "solver.t_end": 0.01}, 2),
        ("s3_t2_interval", {"initial.v": {"type": "polynomial", "coefficients": [[1.0]]},
                            "solver.t_end": 0.01}, 2),
        ("t3_circle", {"initial.v": {"type": "fourier", "coefficients": [[0.0]]},
                       "solver.t_end": 0.01}, 2),
        ("t3_circle", {"initial.v.coefficients": [[0.0, 1.0], [0.0]], "solver.t_end": 0.01}, 2),
        ("boundary_interval", {"algebra": DELETE, "solver.t_end": 0.01}, 2),
        ("s3_t2_interval", {"initial.v": {"type": "polynomial", "coefficients": [[1.0] + [0.0] * 2049, [1.0]]},
                            "solver.t_end": 0.01}, 2),
        ("t3_circle", {"initial.v.coefficients": [[0.0] * 2051, [0.0]], "solver.t_end": 0.01}, 2),
        ("berger_circle", {**OTHER_UNITS, "solver.t_end": 0.01}, 0),
        ("berger_circle", {"profile.fourier": [[710.0, 0.04, 0.0], [0.0], [0.0]], "solver.t_end": 0.01}, 2),
        ("berger_circle", {"profile.fourier": [[709.0, 0.04, 0.0], [1.0], [0.0]], "solver.t_end": 0.01}, 2),
        ("left", v1([0.0, 0.0, 1e308, 0.0, 1e308]), 2),
        ("su2_rigid_body", {"metric.gram": LU_SINGULAR_SU2, "solver.t_end": 0.01}, 2),
        ("rank_one", {}, 2),
        ("su2_rigid_body", {"metric.gram": [[1.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
                            "solver.t_end": 0.01}, 2),
        ("boundary_interval", {"isotropy": {"basis": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]},
                               "solver.t_end": 0.01}, 2),
        ("boundary_interval", {"isotropy": {"basis": [[1.0, 0.0]]}, "solver.t_end": 0.01}, 2),
        ("boundary_interval", {"isotropy": {"basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
                               "solver.t_end": 0.01}, 2),
    ],
    ids=["structure-not-antisymmetric", "Q-not-ad-invariant", "t_end-not-multiple-of-dt", "short-initial-x",
         "step-count-overflows", "isotropy-moves-complement", "even-1000r4-at-0", "even-expanded-at-L",
         "odd-r-under-steep-even-tail", "odd-1e-11r-at-0", "odd-1e-300r-at-0", "odd-r-at-L",
         "isotropy-fixes-complement", "isotropy-spans-abelian1", "isotropy-spans-abelian2",
         "gram-negative-at-a-state-node", "warped-torus-17-entries", "fourier-entry-past-1024-modes",
         "structure-Q-17-rows", "polynomial-rows-short", "fourier-rows-short",
         "fourier-row-even-length", "tabulated-without-algebra", "polynomial-row-past-2049-entries",
         "fourier-row-past-2049-entries", "berger-in-other-units", "log-entry-overflows",
         "volume-overflows", "polynomial-overflows", "gram-lu-singular", "gram-without-cholesky",
         "gram-not-symmetric", "isotropy-dependent", "isotropy-row-short", "isotropy-not-closed"],
)
def test_validate_and_run_agree(request, tmp_path, capsys, name, updates, code):
    if name in ("left", "right"):
        path = abelian_profile_cfg(tmp_path, name, **updates)
    elif name == "spiked":
        path = spiked_profile_cfg(tmp_path)
    elif name == "rank_one":
        path = rank_one_profile_cfg(tmp_path)
    else:
        path = variant(name, updates, write_to=tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warnings included: none may reach stderr
        assert main(["validate", "--config", str(path)]) == code
        validated = capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(out)]) == code
        ran = capsys.readouterr()
    if request.node.callspec.id in FAIL_LINES:
        assert FAIL_LINES[request.node.callspec.id] in validated.out
    if code:
        assert not out.exists()
        assert "validation error: " in validated.err + ran.err
        assert_run_gives_each_finding(validated.out, ran.err)
    else:
        assert json.loads((out / "summary.json").read_text())["all_ok"]


@pytest.mark.parametrize("name, message", [
    ("su2_rigid_body", "metric.gram: g_r is not positive definite at node 0 (min eigenvalue "),
    ("rank_one", "profile: gram_positive_on_probe_grid failed: g_r is not positive definite at "
                 "r = 0.000976562 (min eigenvalue "),
], ids=["gram-lu-singular", "gram-without-cholesky"])
def test_gram_singular_to_rounding_is_named(tmp_path, capsys, name, message):
    # validate's FAIL line and run's error name the first node at which a
    # factorization of g_r fails; the rounding-sized numbers after it are not pinned
    if name == "rank_one":
        path = rank_one_profile_cfg(tmp_path)
    else:
        path = variant(name, {"metric.gram": LU_SINGULAR_SU2}, write_to=tmp_path)
    assert main(["validate", "--config", str(path)]) == 2
    assert message.split("failed: ")[-1] in capsys.readouterr().out
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {message}")


def test_validate_names_an_empty_fixed_subspace(tmp_path, capsys):
    # an isotropy that fixes no vector of m: validate names how far it moves m
    path = variant("su2_rigid_body", {"isotropy": {"basis": [[0.0, 0.0, 1.0]]},
                                      "metric.gram": [[1.0, 0.0], [0.0, 1.0]],
                                      "initial.x": [1.0, 0.5]}, write_to=tmp_path)
    assert main(["validate", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL  isotropy_fixes_complement: isotropy.basis: the isotropy must fix the whole " \
           "complement (dim h = 1, dim m = 2, residual 1.000e+00 > 1e-10)" in out
    assert "monte_carlo" not in out


@pytest.mark.parametrize(
    "name, updates, rows, width",
    [
        ("su2_rigid_body", {"solver.t_end": 2272.727}, 2272728, 11),
        ("s3_t2_interval", {"solver.t_end": 1190.476}, 1190477, 21),
        # 2380951 steps at cadence 2: the last step falls off the cadence
        ("s3_t2_interval", {"solver.t_end": 2380.951, "output.diagnostics_cadence": 2}, 1190477, 21),
    ],
    ids=["homogeneous", "interval", "interval-cadence-2"],
)
def test_recorded_rows_budget_exits_2(tmp_path, capsys, name, updates, rows, width):
    path = variant(name, updates, write_to=tmp_path)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    message = (f"output.diagnostics_cadence: {rows} recorded rows of {width} values exceed the "
               "budget of 25000000 values")
    captured = capsys.readouterr()
    assert f"FAIL  recorded_rows: {message}" in captured.out
    assert f"validation error: {message}" in captured.err


@pytest.mark.parametrize(
    "name, updates",
    [
        ("su2_rigid_body", {"solver.t_end": 2272.726}),
        ("s3_t2_interval", {"solver.t_end": 1190.475}),
        ("s3_t2_interval", {"solver.t_end": 2380.95, "output.diagnostics_cadence": 2}),
    ],
    ids=["homogeneous", "interval", "interval-cadence-2"],
)
def test_recorded_rows_budget_admits_the_limit(tmp_path, capsys, name, updates):
    path = variant(name, updates, write_to=tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "recorded_rows" not in capsys.readouterr().out
