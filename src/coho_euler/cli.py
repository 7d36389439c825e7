"""Command-line interface: run, validate, and list the bundled examples.

Exit codes: 0 success, 2 validation error, 3 numerical failure (partial
artifacts preserved), 4 parse error. Identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import catalog
from .config import RunConfig, build_problem, build_solver_config, check_config, parse_config
from .diagnostics import write_diagnostics_csv, write_snapshot_csv
from .errors import CohoEulerError, ConfigError, ConfigParseError, NumericalFailureError
from .reduced_euler import integrate, trajectory_pressures

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PARSE = 4


def _json_dump(obj, path: Path):
    # a failed run's summary can hold non-finite floats, which strict JSON writes
    # as the strings "NaN", "Infinity" and "-Infinity": parse_constant makes them
    obj = json.loads(json.dumps(obj), parse_constant=str)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run_command(cfg: RunConfig, out_dir: Path) -> int:
    state, geom = build_problem(cfg)
    solver = build_solver_config(cfg)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        # the run streams its rows into diagnostics.csv as it records them
        with open(out_dir / "diagnostics.csv", "w", encoding="utf-8", newline="\n") as diag:
            snapshots, report = integrate(state, geom, solver,
                                          partial(write_diagnostics_csv, diag))
        pressures = trajectory_pressures(snapshots, geom)

        manifest_snaps = []
        for i, (snap, pressure) in enumerate(zip(snapshots, pressures)):
            fname = f"snapshots/snapshot_{i:06d}.csv"
            write_snapshot_csv(out_dir / fname, snap, geom, pressure.samples)
            manifest_snaps.append({"file": fname, "t": float(snap.t)})

        _json_dump(report.summary, out_dir / "summary.json")
        manifest = {
            "config": cfg.raw,
            "config_hash": cfg.hash(),
            "problem_kind": cfg.kind,
            "status": "failed" if report.failure else "ok",
            "snapshots": manifest_snaps,
            "diagnostics": "diagnostics.csv",
            "summary": "summary.json",
        }
        _json_dump(manifest, out_dir / "manifest.json")
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_VALIDATION

    if report.failure is not None:
        print(
            f"numerical failure ({report.failure['kind']}): {report.failure['message']}",
            file=sys.stderr,
        )
        print(f"partial artifacts preserved in {out_dir}", file=sys.stderr)
        return EXIT_NUMERICAL

    s = report.summary
    print(
        f"ok: t_end={s['t_final']:g} energy_drift={s['energy']['max_rel_drift']:.3e} "
        f"all_ok={s['all_ok']}"
    )
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def validate_command(cfg: RunConfig) -> int:
    """Print one line per check of ``config.check_config``, the checks ``run``
    makes before it steps; no stepping."""
    report = check_config(cfg)[0]
    for line in report.lines():
        print(line)
    print("validation " + ("passed" if report.passed else "FAILED"))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def examples_command() -> int:
    for line in catalog.listing_lines():
        print(line)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coho-euler",
        description="Reduced incompressible Euler flows on cohomogeneity-one manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured problem")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--out", default=None, help="output directory")

    p_val = sub.add_parser("validate", help="structural checks without integration")
    p_val.add_argument("--config", required=True, help="path to a JSON run config")

    p_ex = sub.add_parser("examples", help="bundled example catalog")
    p_ex.add_argument("action", choices=["list"], help="catalog action")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "examples":
            return examples_command()

        try:
            cfg = parse_config(args.config)
        except (ConfigParseError, OSError) as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE

        if args.command == "validate":
            return validate_command(cfg)

        if args.out is not None:
            out_dir = Path(args.out)
        elif cfg.raw.get("output", {}).get("directory"):
            out_dir = Path.cwd() / cfg.raw["output"]["directory"]
        else:
            out_dir = Path.cwd() / f"coho_euler_run_{cfg.hash()[:8]}"
        return run_command(cfg, out_dir)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"validation error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CohoEulerError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
