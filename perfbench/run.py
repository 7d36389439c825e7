"""Benchmark of `coho-euler run` on three seeded workloads, one per regime.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload NAME --record-reference

Closed loop, one client: runs start one after another, each in a fresh
Python process with BLAS pools pinned to one thread and COHO_EULER_WORKERS
unset. Each run is `coho_euler.cli.main(["run", ...])` on a config generated
from the seed (see child.py for the in-process stamps). Runs continue while
the next one is predicted to end inside --seconds; at least two full runs are
made so that their artifacts can be compared byte for byte.

With --trace 0 full runs alternate with set-up probes, children that stop
when `integrate` is entered, about as much time going to each, and the last
line holds the bounded end-to-end metrics (medians over the runs; `setup_s`
over full runs and probes together). With --trace 1 untraced and traced runs alternate, and the
last line holds the per-layer metrics of the traced runs, the wall times of
the untraced runs, and the tracing overhead.
Every run's outputs are checked; a run that fails a check still counts in
`attempted` and is timed. See NOTES.md for the workload rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import INTEGRATE, STEP_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
EXAMPLES = SRC / "coho_euler" / "examples_data"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0  # reproduces the bundled configs byte for byte
HELD_OUT_SEED = 7919  # never used while tuning; kept for later claims
CHILD_TIMEOUT_S = 150.0
REFERENCE_RTOL = 1e-13
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("step_us", "us/step"),
    ("post_s", "s"),
    ("peak_rss_mb", "MB"),
)
# All five are printed. Only these are bounded end-to-end results: on a
# shared host the processor's speed drifts by tens of percent over minutes,
# which spreads the medians of the other wall times across seeds by more than
# the largest bound allowed (see NOTES.md). Those are reported per layer,
# from the untraced runs of a --trace 1 invocation.
BOUNDED = ("setup_s", "peak_rss_mb")

# per-layer metric -> unit. The suffix says how it is derived from the trace:
# _s self seconds per run, _us self microseconds per step inside integrate,
# _calls calls per run, _calls_per_step calls inside integrate per step.
PER_LAYER = {
    "cli.import_s": "s",
    "config.parse_s": "s",
    "config.build_problem_s": "s",
    "coho_geometry.validate_profile_s": "s",
    "coho_geometry.load_tabulated_s": "s",
    "diagnostics.grid_geometry_s": "s",
    "diagnostics.grid_geometry_calls": "count",
    "homogeneous_geometry.connection_tensor_s": "s",
    "homogeneous_geometry.connection_tensor_calls": "count",
    "reduced_euler.rhs_us": "us/step",
    "reduced_euler.rhs_calls_per_step": "calls/step",
    "reduced_euler.stage_screen_us": "us/step",
    "reduced_euler.rk4_combine_us": "us/step",
    "reduced_euler.loop_us": "us/step",
    "reduced_euler.cfl_us": "us/step",
    "reduced_euler.watchdog_us": "us/step",
    "numerics.deriv_us": "us/step",
    "numerics.deriv_calls_per_step": "calls/step",
    "diagnostics.record_us": "us/step",
    "diagnostics.record_calls": "count",
    "diagnostics.conservation_report_s": "s",
    "reduced_euler.pressures_s": "s",
    "diagnostics.write_diagnostics_s": "s",
    "diagnostics.write_snapshots_s": "s",
    "cli.artifact_bytes": "bytes",
    "reduced_euler.unattributed_us": "us/step",
    "trace.step_us": "us/step",
    "trace.overhead_frac": "fraction",
}

# rounding-level residual columns are judged by the summary flags, not by a
# relative comparison
NOISE_COLUMNS = {"div_residual", "p_periodicity"}


# -- workloads ----------------------------------------------------------------


def _vary_rigid_body(cfg, rng):
    # direction of x0 at the bundled energy 1/2 x.Gx
    gram = cfg["metric"]["gram"]
    x = cfg["initial"]["x"]
    energy = sum(gram[i][j] * x[i] * x[j] for i in range(3) for j in range(3))
    u = [rng.gauss(0.0, 1.0) for _ in range(3)]
    scale = math.sqrt(energy / sum(gram[i][j] * u[i] * u[j] for i in range(3) for j in range(3)))
    cfg["initial"]["x"] = [scale * ui for ui in u]


def _vary_berger(cfg, rng):
    cfg["initial"]["v"]["seed"] = rng.randrange(2**31)


def _vary_boundary(cfg, rng):
    values = cfg["initial"]["v"]["values"]
    cfg["initial"]["v"]["values"] = [v * rng.uniform(0.8, 1.2) for v in values]


# workload -> (bundled config, how the seed varies its initial data)
WORKLOADS = {
    "rigid_body": ("su2_rigid_body.json", _vary_rigid_body),
    "berger_coupled": ("berger_circle.json", _vary_berger),
    "boundary_interval": ("boundary_interval.json", _vary_boundary),
}


def make_config(workload: str, seed: int, dest: Path) -> tuple[Path, int]:
    """Write the seeded config (and any data it names) into dest."""
    name, vary = WORKLOADS[workload]
    bundled = EXAMPLES / name
    cfg = json.loads(bundled.read_text(encoding="utf-8"))
    path = dest / name
    if seed == DEFAULT_SEED:
        shutil.copyfile(bundled, path)
    else:
        vary(cfg, random.Random(f"{workload}:{seed}"))
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    csv = cfg.get("profile", {}).get("csv")
    if csv:
        shutil.copyfile(EXAMPLES / csv, dest / csv)
    n_steps = round(cfg["solver"]["t_end"] / cfg["solver"]["dt"])
    return path, n_steps


# -- one run ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COHO_EULER_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def artifact_digest(out: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), size


def flags_ok(node) -> bool:
    """Every `ok` and `all_ok` flag in summary.json is true."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("ok", "all_ok") and value is not True:
                return False
            if not flags_ok(value):
                return False
    return True


def run_child(cfg: Path, run_dir: Path, trace: bool, probe: bool = False) -> dict:
    """Spawn one run (a set-up probe if `probe`), wait for it, and return its
    timings and outputs."""
    run_dir.mkdir(parents=True)
    out = run_dir / "out"
    stamps_path = run_dir / "stamps.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(cfg), "--out", str(out),
           "--stamps", str(stamps_path)]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--setup-only")
    with open(run_dir / "stdout", "wb") as so, open(run_dir / "stderr", "wb") as se:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=so, stderr=se, cwd=run_dir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    run = {
        "traced": trace,
        "probe": probe,
        "rc": proc.returncode,
        "run_s": end - spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if stamps_path.exists():
        stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
        run["stamps"] = stamps
        if "integrate_enter" in stamps:
            run["setup_s"] = stamps["integrate_enter"] - spawn
        if probe:
            return run
        run["main_s"] = stamps["main_end"] - spawn
        if "integrate_exit" in stamps:
            run["integrate_s"] = stamps["integrate_exit"] - stamps["integrate_enter"]
            run["post_s"] = end - stamps["integrate_exit"]
    if out.is_dir():
        run["digest"], run["artifact_bytes"] = artifact_digest(out)
        summary = out / "summary.json"
        run["flags_ok"] = summary.exists() and flags_ok(json.loads(summary.read_text()))
    run["out"] = out
    return run


# -- correctness --------------------------------------------------------------


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), lines[1:]


def _final_snapshot(out: Path) -> Path:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return out / manifest["snapshots"][-1]["file"]


def reference_sample(out: Path) -> dict:
    """A compact numeric record of a run: diagnostics rows and the last snapshot."""
    header, rows = _read_csv(out / "diagnostics.csv")
    step = max(1, len(rows) // 64)
    picked = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    cols = [i for i, name in enumerate(header) if name not in NOISE_COLUMNS]
    diag = [[float(rows[r].split(",")[i]) for i in cols] for r in picked]
    snap_path = _final_snapshot(out)
    snap_header, snap_rows = _read_csv(snap_path)
    return {
        "diagnostics": {"columns": [header[i] for i in cols], "rows": picked, "values": diag},
        "snapshot": {
            "file": str(snap_path.relative_to(out)),
            "columns": snap_header,
            "values": [[float(x) for x in row.split(",")] for row in snap_rows],
        },
    }


def max_rel_diff(ref: dict, got: dict) -> float:
    """Largest column-wise relative difference, max|got - ref| / max|ref|."""
    worst = 0.0
    for part in ("diagnostics", "snapshot"):
        a, b = ref[part], got[part]
        if a["columns"] != b["columns"] or len(a["values"]) != len(b["values"]):
            return math.inf
        if a.get("rows") != b.get("rows") or a.get("file") != b.get("file"):
            return math.inf
        for j in range(len(a["columns"])):
            col_a = [row[j] for row in a["values"]]
            col_b = [row[j] for row in b["values"]]
            scale = max(abs(x) for x in col_a) or 1.0
            worst = max(worst, max(abs(x - y) for x, y in zip(col_a, col_b)) / scale)
    return worst


def split_mismatch(trace: dict) -> bool:
    """The per-step split of a traced run leaves as unattributed what is not a
    per-step layer or the loop; recomputed directly (integrate's own time
    outside the loop plus the once-per-run layers it calls) it must agree.
    Both sides partition integrate's span, so only a tracer fault breaks it."""
    self_in = trace["self_in_s"]
    named = sum(self_in.get(layer, 0.0) for layer in STEP_LAYERS)
    remainder = trace["integrate_s"] - named - trace["loop_s"]
    outside = self_in.get(INTEGRATE, 0.0) - trace["loop_s"] + sum(
        s for layer, s in self_in.items() if layer != INTEGRATE and layer not in STEP_LAYERS
    )
    return abs(outside - remainder) > 1e-6 * trace["integrate_s"]


def check_runs(runs: list, seed: int, workload: str) -> None:
    """Attach the list of failed checks to each run."""
    ref_path = REFERENCE / f"{workload}.json"
    reference = json.loads(ref_path.read_text()) if seed == DEFAULT_SEED else None
    full = [r for r in runs if not r["probe"]]
    first = next((r for r in full if r.get("digest")), None)
    traced = [r for r in full if r["traced"] and "stamps" in r]
    for run in runs:
        why = []
        if run["rc"] != 0:
            why.append(f"exit code {run['rc']}")
        if run["probe"]:
            if "setup_s" not in run:
                why.append("set-up probe left no stamp")
            run["failed"] = why
            continue
        if not run.get("flags_ok"):
            why.append("summary flag false or missing")
        if first is None or run.get("digest") != first["digest"]:
            why.append("artifacts differ from the first run of this seed")
        if reference is not None and run.get("digest"):
            try:
                diff = max_rel_diff(reference, reference_sample(run["out"]))
            except (OSError, ValueError, KeyError, IndexError):
                diff = math.inf  # artifacts missing or malformed
            run["reference_rel_diff"] = diff
            if not diff <= REFERENCE_RTOL:
                why.append(f"reference rel diff {diff:.3e} > {REFERENCE_RTOL:.0e}")
        if run["traced"] and traced and "stamps" in run:
            if run["stamps"]["trace"]["calls"] != traced[0]["stamps"]["trace"]["calls"]:
                why.append("traced call counts differ between runs")
            if split_mismatch(run["stamps"]["trace"]):
                why.append("per-step split does not add up to the traced step time")
        run["failed"] = why


# -- metrics ------------------------------------------------------------------


def summarise(values: list) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        k = n - 11
        out["tail"] = (math.floor(100 * (k + 1) / n), ordered[k])
    return out


def layer_values(run: dict, n_steps: int) -> dict:
    """Per-layer metrics of one traced run; None marks a layer that is absent."""
    stamps = run["stamps"]
    trace = stamps["trace"]
    absent = set(stamps["absent"])
    per_step = 1e6 / n_steps
    self_in = trace["self_in_s"]
    step_us = trace["integrate_s"] * per_step
    out = {
        "cli.import_s": stamps["import_s"],
        "cli.artifact_bytes": run.get("artifact_bytes", 0),
        "reduced_euler.loop_us": trace["loop_s"] * per_step,
        "trace.step_us": step_us,
    }
    for metric in PER_LAYER:
        found = re.fullmatch(r"(.+?)(_calls_per_step|_calls|_us|_s)", metric)
        if metric in out or found is None or metric == "reduced_euler.unattributed_us":
            continue
        layer, suffix = found.groups()
        if layer in absent:
            out[metric] = None
        elif suffix == "_s":
            out[metric] = trace["self_s"].get(layer, 0.0)
        elif suffix == "_calls":
            out[metric] = trace["calls"].get(layer, 0)
        elif suffix == "_calls_per_step":
            out[metric] = trace["calls_in"].get(layer, 0) / n_steps
        else:
            out[metric] = self_in.get(layer, 0.0) * per_step
    named = sum(out[f"{layer}_us"] or 0.0 for layer in STEP_LAYERS)
    out["reduced_euler.unattributed_us"] = step_us - named - out["reduced_euler.loop_us"]
    return out


def end_to_end_values(runs: list, n_steps: int) -> dict:
    untraced = [r for r in runs if not r["traced"] and not r["probe"]]
    samples = {
        "run_s": [r["run_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in runs if not r["traced"] and "setup_s" in r],
        "step_us": [r["integrate_s"] * 1e6 / n_steps for r in untraced if "integrate_s" in r],
        "post_s": [r["post_s"] for r in untraced if "post_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    return {name: summarise(vals) for name, vals in samples.items() if vals}


# -- provenance ---------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coho_euler").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def warm_up() -> dict:
    """Import the package once untimed (byte-code cache, page cache) and
    report the versions and module path the runs will see."""
    probe = (
        "import json, coho_euler.cli, numpy, scipy;"
        "print(json.dumps({'module': coho_euler.cli.__file__, "
        "'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
    )
    res = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, cwd=WORK)
    if res.returncode != 0:
        raise SystemExit(f"cannot import coho_euler from {SRC}:\n{res.stderr}")
    info = json.loads(res.stdout.strip().splitlines()[-1])
    if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"coho_euler imported from {info['module']}, not from {SRC}")
    return info


def provenance(info: dict) -> dict:
    env = child_env()
    return {
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "child_blas_threads": {var: env[var] for var in BLAS_VARS},
        "child_COHO_EULER_WORKERS": env.get("COHO_EULER_WORKERS", "unset"),
        "held_out_seed": HELD_OUT_SEED,
    }


# -- main ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, set_dir: Path):
    """Runs for one workload and seed; returns (runs, n_steps).

    With `trace`, untraced and traced full runs alternate. Without, two full
    runs are made and set-up probes fill the rest of the time, half of them
    between the two full runs, so that the set-up samples span the window."""
    set_dir.mkdir(parents=True)
    cfg, n_steps = make_config(workload, seed, set_dir)
    runs = []
    start = time.monotonic()

    def predicted(traced, probe):
        same = [r["run_s"] for r in runs if (r["traced"], r["probe"]) == (traced, probe)]
        if same:
            return statistics.median(same)
        return runs[0].get("setup_s", runs[0]["run_s"]) if probe else runs[0]["run_s"]

    while True:
        full = [r for r in runs if not r["probe"]]
        probe_s = sum(r["run_s"] for r in runs if r["probe"])
        if trace:
            traced, probe = len(full) % 2 == 1, False
        elif len(full) == 1:
            traced, probe = False, probe_s < (seconds - 2 * full[0]["run_s"]) / 2
        else:
            traced, probe = False, len(full) >= 2
        if len(full) >= 2 and predicted(traced, probe) > seconds - (time.monotonic() - start):
            break
        runs.append(run_child(cfg, set_dir / f"run{len(runs)}", traced, probe))
    check_runs(runs, seed, workload)
    return runs, n_steps


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report_workload(workload, seed, trace, runs, n_steps, prov):
    """Print the human-readable lines and return the metrics for the last line."""
    print(f"== {workload} seed={seed} trace={int(trace)} steps={n_steps} runs={len(runs)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    e2e = end_to_end_values(runs, n_steps)
    for name, unit in END_TO_END:
        if name not in e2e:
            print(f"{name:14s} {unit:8s} no sample")
            continue
        s = e2e[name]
        tail = f"p{s['tail'][0]}={fmt(s['tail'][1])}" if "tail" in s else "tail n/a (n<11)"
        print(f"{name:14s} {unit:8s} median={fmt(s['median'])} {tail} n={s['n']}")
    for i, run in enumerate(runs):
        parts = [f"{k}={fmt(run[k])}" for k in ("run_s", "setup_s", "integrate_s", "post_s",
                                                  "peak_rss_mb") if k in run]
        kind = "probe" if run["probe"] else "traced" if run["traced"] else "untraced"
        print(f"run {i} {kind} rc={run['rc']} " + " ".join(parts))
    failed = [r for r in runs if r["failed"]]
    print(f"{'fail_frac':14s} {'1':8s} {len(failed)}/{len(runs)} = {len(failed) / len(runs):.3g}")
    for i, run in enumerate(runs):
        if run["failed"]:
            print(f"run {i} failed: " + "; ".join(run["failed"]))
    checked = "exit code, summary flags, byte-identical artifacts"
    if seed == DEFAULT_SEED:
        worst = max((r.get("reference_rel_diff", math.inf) for r in runs if not r["probe"]),
                    default=math.inf)
        checked += f", reference (max rel diff {worst:.3g})"
    if trace:
        checked += ", repeatable call counts, per-step split"
    elif any(r["probe"] for r in runs):
        checked += ", set-up probes reached integrate"
    print("outputs checked: " + checked)

    if not trace:
        return {name: {"value": e2e[name]["median"], "unit": unit}
                for name, unit in END_TO_END if name in e2e and name in BOUNDED}

    traced = [r for r in runs if r["traced"] and "stamps" in r and "trace" in r["stamps"]]
    per_run = [layer_values(r, n_steps) for r in traced]
    untraced_main = [r["main_s"] for r in runs if not r["traced"] and "main_s" in r]
    traced_main = [r["main_s"] for r in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        vals = [v[name] for v in per_run if v.get(name) is not None]
        if per_run and not vals and name in per_run[0]:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        elif vals:
            # counts repeat exactly (checked), so take a sample, not a mean of two
            pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
            metrics[name] = {"value": pick(vals), "unit": unit}
    metrics.update({name: {"value": e2e[name]["median"], "unit": unit}
                    for name, unit in END_TO_END if name in e2e and name not in BOUNDED})
    if untraced_main and traced_main:
        overhead = statistics.median(traced_main) / statistics.median(untraced_main) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    for name, m in metrics.items():
        value = "absent" if m.get("absent") else fmt(m["value"])
        print(f"{name:44s} {m['unit']:10s} {value}")
    if per_run:
        named = sum(metrics[f"{layer}_us"]["value"] or 0.0 for layer in STEP_LAYERS)
        print(f"per-step split (median run): named {named:.4g} + loop "
              f"{metrics['reduced_euler.loop_us']['value']:.4g} + unattributed "
              f"{metrics['reduced_euler.unattributed_us']['value']:.4g} us; each traced run's "
              "split sums to its step_us")
    return metrics


def record_reference(workload: str) -> int:
    set_dir = WORK / f"reference-{workload}-{os.getpid()}"
    set_dir.mkdir(parents=True)
    try:
        cfg, _ = make_config(workload, DEFAULT_SEED, set_dir)
        run = run_child(cfg, set_dir / "run0", False)
        if run["rc"] != 0 or not run.get("flags_ok"):
            print(f"reference run failed (exit {run['rc']})", file=sys.stderr)
            return 1
        REFERENCE.mkdir(exist_ok=True)
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(reference_sample(run["out"])) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0
    finally:
        shutil.rmtree(set_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write perfbench/reference/<workload>.json from a default-seed run")
    args = parser.parse_args(argv)

    if not (SRC / "coho_euler" / "cli.py").is_file():
        print(f"no coho_euler sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        return max(record_reference(w) for w in names)

    set_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        prov = provenance(warm_up())
        attempted = failed = 0
        metrics = {}
        for workload in names:
            prov["loadavg_before"] = os.getloadavg()
            runs, n_steps = measure(workload, args.seed, args.seconds, bool(args.trace),
                                    set_dir / workload)
            prov["loadavg_after"] = os.getloadavg()
            got = report_workload(workload, args.seed, bool(args.trace), runs, n_steps, prov)
            prefix = f"{workload}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += len(runs)
            failed += sum(1 for r in runs if r["failed"])
    finally:
        shutil.rmtree(set_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
