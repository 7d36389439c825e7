import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coho_euler import ConfigError, catalog, su2
from coho_euler.cli import main
from coho_euler.config import build_problem, parse_config, parse_config_dict
from coho_euler.diagnostics import grid_rule

SRC = Path(__file__).resolve().parent.parent / "src"


def example_raw(name, updates):
    raw = json.loads(catalog.example_path(name).read_text())
    for key, val in updates.items():
        node = raw
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    return raw


def t3_raw(**updates):
    return example_raw("t3_circle", updates)


# -- parsing -------------------------------------------------------------------


def test_parse_bundled_t3():
    cfg = catalog.load_example("t3_circle")
    assert cfg.kind == "circle"
    assert cfg.solver["N"] == 256


def test_all_bundled_examples_build():
    for name in catalog.example_names():
        cfg = catalog.load_example(name)
        problem = build_problem(cfg)
        assert problem.kind == cfg.kind


def test_odd_grid_size_rejected():
    with pytest.raises(ConfigError, match="solver.N"):
        parse_config_dict(t3_raw(**{"solver.N": 15}))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="viscosity"):
        parse_config_dict(t3_raw(viscosity=0.1))
    with pytest.raises(ConfigError, match="solver.fancy"):
        parse_config_dict(t3_raw(**{"solver.fancy": True}))


def test_missing_required_key():
    raw = t3_raw()
    del raw["solver"]["dt"]
    with pytest.raises(ConfigError, match="solver.dt"):
        parse_config_dict(raw)


def test_polynomial_rejected_on_circle():
    raw = t3_raw(**{"initial.v": {"type": "polynomial", "coefficients": [[0.0, 1.0], [0.0]]}})
    with pytest.raises(ConfigError, match="not periodic"):
        parse_config_dict(raw)


def test_fourier_rejected_on_interval():
    raw = json.loads(catalog.example_path("s3_t2_interval").read_text())
    raw["initial"]["v"] = {"type": "fourier", "coefficients": [[0.0, 1.0, 0.0], [0.0]]}
    with pytest.raises(ConfigError, match="circle-only|fourier"):
        parse_config_dict(raw)


def test_odd_polynomial_parity_rejected():
    raw = json.loads(catalog.example_path("s3_t2_interval").read_text())
    raw["initial"]["v"] = {"type": "polynomial", "coefficients": [[0.0, 1.0], [0.5]]}
    cfg = parse_config_dict(raw)
    with pytest.raises(ConfigError, match="odd powers"):
        build_problem(cfg)


def test_constant_polynomial_accepted_on_interval():
    raw = json.loads(catalog.example_path("s3_t2_interval").read_text())
    raw["initial"]["v"] = {"type": "polynomial", "coefficients": [[1.0], [2.0]]}
    problem = build_problem(parse_config_dict(raw))
    assert np.allclose(problem.v0, [1.0, 2.0])


def test_algebra_forbidden_for_builtin_families():
    raw = t3_raw(algebra={"name": "abelian", "dim": 2})
    with pytest.raises(ConfigError, match="algebra"):
        parse_config_dict(raw)


def test_random_fourier_is_seed_deterministic():
    raw = t3_raw(**{"initial.v": {"type": "random_fourier", "seed": 5, "modes": 2, "amplitude": 0.1}})
    a = build_problem(parse_config_dict(raw)).v0
    b = build_problem(parse_config_dict(raw)).v0
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", [*catalog.example_names(), "non_ascii_directory"])
def test_config_hash_is_hashlib_sha256(name):
    # manifest.json's config_hash: the built-in digest must equal hashlib's
    if name == "non_ascii_directory":
        cfg = parse_config_dict(t3_raw(**{"output.directory": "résultats/流体 ☃"}))
    else:
        cfg = catalog.load_example(name)
    assert cfg.hash() == hashlib.sha256(cfg.canonical_json().encode()).hexdigest()


# -- CLI -----------------------------------------------------------------------


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


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


def test_cli_validation_error_exit_2(tmp_path, capsys):
    # solver.N below the grid rule of a circle, a singular and a boundary interval
    for name, n in (("t3_circle", 15), ("t3_circle", 14), ("s3_t2_interval", 5),
                    ("boundary_interval", 5)):
        raw = example_raw(name, {"solver.N": n})
        path = write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"solver.N: {grid_rule(raw['problem']['kind'])}, got {n}" in err


def test_cli_run_success_and_artifacts(tmp_path, capsys):
    raw = t3_raw(**{"solver.t_end": 0.05, "solver.dt": 0.001})
    path = write_cfg(tmp_path, raw)
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
    raw = t3_raw(**{"solver.t_end": 0.05, "solver.dt": 0.001})
    path = write_cfg(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    for fname in ("diagnostics.csv", "summary.json", "manifest.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    for snap in sorted((out1 / "snapshots").iterdir()):
        assert snap.read_bytes() == (out2 / "snapshots" / snap.name).read_bytes()


def short_su2_cfg(tmp_path, **updates):
    """A 5-step su2_rigid_body config written to tmp_path/configs/cfg.json."""
    (tmp_path / "configs").mkdir(exist_ok=True)
    raw = example_raw("su2_rigid_body", {"solver.t_end": 0.005, **updates})
    return write_cfg(tmp_path / "configs", raw)


def test_cli_relative_output_directory_is_under_the_working_directory(tmp_path, monkeypatch):
    path = short_su2_cfg(tmp_path, **{"output.directory": "runs/su2"})
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", "--config", str(path)]) == 0
    assert (work / "runs" / "su2" / "manifest.json").exists()
    assert not (tmp_path / "configs" / "runs").exists()


def test_cli_default_output_directory_is_named_by_the_config_hash(tmp_path, monkeypatch):
    path = short_su2_cfg(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / f"coho_euler_run_{parse_config(path).hash()[:8]}"
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("under", [False, True])
def test_cli_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under):
    path = short_su2_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "sub" if under else blocker
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot create output directory {out}" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "a regular file\n"


def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    raw = t3_raw(**{"solver.t_end": 0.05, "hooks.dcdt_offset": 1.0})
    path = write_cfg(tmp_path, raw)
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
    raw = example_raw("su2_rigid_body", {"initial.x": [1e200, 1e200, 0.0], "solver.t_end": 1.0})
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "coho_euler.cli", "run",
         "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 3, res.stderr
    assert "RuntimeWarning" not in res.stderr, res.stderr
    assert json.loads((out / "summary.json").read_text())["failure"]["stage"] == 1


def test_cli_overflowing_rk4_combine_exit_3(tmp_path, capsys):
    # all four stages are finite, but k1 + 2 k2 + 2 k3 + k4 overflows: the
    # stepped-state screen names the combine and the run keeps its artifacts
    raw = example_raw("su2_rigid_body", {"initial.x": [1e154, 1e154, 1e154],
                                         "solver.dt": 1e-300, "solver.t_end": 1e-300})
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)]) == 3
    failure = json.loads((out / "summary.json").read_text())["failure"]
    assert failure["kind"] == "non_finite"
    assert (failure["stage"], failure["step"], failure["t"]) == ("combine", 0, 0.0)
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
    assert "initial_parity" in out
    assert "validation passed" in out


def test_every_bundled_example_validates(capsys):
    for name in catalog.example_names():
        path = catalog.example_path(name)
        assert main(["validate", "--config", str(path)]) == 0, name
    capsys.readouterr()


def test_cli_bundled_su2_reference_run(tmp_path):
    # the shipped config as-is: t_end=100, exit 0, conserved speeds in summary
    out = tmp_path / "su2"
    code = main(["run", "--config", str(catalog.example_path("su2_rigid_body")), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pointwise_speed"]["max_drift"] < 1e-8
    assert summary["all_ok"]


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
    path = write_cfg(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "gram_positive_on_probe_grid" in out
    assert "at r =" in out


def fourier_v(coefficients):
    return {"type": "fourier", "coefficients": coefficients}


SU2_C = su2().structure.tolist()
EYE3 = np.eye(3).tolist()


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
def test_cli_malformed_config_exit_2(tmp_path, capsys, name, updates):
    path = write_cfg(tmp_path, example_raw(name, updates))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error: " in err


@pytest.mark.parametrize("field", ["structure", "Q"])
def test_ragged_algebra_names_field_path(field):
    algebra = {"structure": SU2_C, "Q": EYE3}
    algebra[field] = [row[:2] if i == 2 else row for i, row in enumerate(algebra[field])]
    with pytest.raises(ConfigError) as exc:
        parse_config_dict(example_raw("su2_rigid_body", {"algebra": algebra}))
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
    raw = example_raw("boundary_interval", {"profile.csv": "prof.csv", **updates})
    return write_cfg(tmp_path, raw)


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
    err = capsys.readouterr().err
    assert f"validation error: tabulated samples must be finite: {table} has a non-finite entry" in err
    assert "periodic" not in err


def test_cli_tabulated_circle_mismatch_is_not_periodic(tmp_path, capsys):
    # the bundled interval profile read as a circle: its first and last rows differ
    path = tabulated_cfg(
        tmp_path, **{"problem.kind": "circle", "profile.kind": "circle", "initial.c": 0.0}
    )
    raw = json.loads(path.read_text())
    del raw["profile"]["endpoints"]
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error: tabulated profile is not periodic: the first and last gram" in err


def _not_antisymmetric():
    structure = su2().structure
    structure[0, 1, 2] = 2.0
    return structure.tolist()


@pytest.mark.parametrize(
    "name, updates",
    [
        ("boundary_interval", {"algebra": {"structure": _not_antisymmetric(), "Q": EYE3}, "solver.t_end": 0.01}),
        ("boundary_interval", {"algebra": {"structure": SU2_C, "Q": np.diag([1.0, 2.0, 3.0]).tolist()}, "solver.t_end": 0.01}),
        ("t3_circle", {"solver.dt": 0.003, "solver.t_end": 0.01}),
        ("su2_rigid_body", {"initial.x": [1.0], "solver.t_end": 0.01}),
        ("su2_rigid_body", {"solver.dt": 5e-324, "solver.t_end": 2.0}),
    ],
    ids=["structure-not-antisymmetric", "Q-not-ad-invariant", "t_end-not-multiple-of-dt", "short-initial-x",
         "step-count-overflows"],
)
def test_validate_and_run_agree(tmp_path, capsys, name, updates):
    path = tabulated_cfg(tmp_path, **updates) if name == "boundary_interval" else write_cfg(
        tmp_path, example_raw(name, updates)
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "validation error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, updates, rows, width",
    [
        ("su2_rigid_body", {"solver.t_end": 1785.714}, 1785715, 14),
        ("s3_t2_interval", {"solver.t_end": 1086.956}, 1086957, 23),
        # 2173911 steps at cadence 2: the last step falls off the cadence
        ("s3_t2_interval", {"solver.t_end": 2173.911, "output.diagnostics_cadence": 2}, 1086957, 23),
    ],
    ids=["homogeneous", "interval", "interval-cadence-2"],
)
def test_recorded_rows_budget_exits_2(tmp_path, capsys, name, updates, rows, width):
    path = write_cfg(tmp_path, example_raw(name, updates))
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
        ("su2_rigid_body", {"solver.t_end": 1785.713}),
        ("s3_t2_interval", {"solver.t_end": 1086.955}),
        ("s3_t2_interval", {"solver.t_end": 2173.91, "output.diagnostics_cadence": 2}),
    ],
    ids=["homogeneous", "interval", "interval-cadence-2"],
)
def test_recorded_rows_budget_admits_the_limit(tmp_path, capsys, name, updates):
    path = write_cfg(tmp_path, example_raw(name, updates))
    assert main(["validate", "--config", str(path)]) == 0
    assert "recorded_rows" not in capsys.readouterr().out
