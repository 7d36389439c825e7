#!/usr/bin/env python3
"""Run and validate every bundled example; exit with the worst exit code of either.

Each example's artifacts, and its ``validate`` output as ``validate.txt``, go
to ``<output_root>/<name>``, so two roots compare with ``diff -r``.

Usage: python scripts/run_all_examples.py [output_root]
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from coho_euler import catalog
from coho_euler.cli import run_command, validate_command


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("example_runs")
    codes = {}
    for name in catalog.example_names():
        cfg = catalog.load_example(name)
        out = root / name
        print(f"== {name} -> {out}")
        codes[name] = run_command(cfg, out)
        with redirect_stdout(io.StringIO()) as checks:
            codes[name] = max(codes[name], validate_command(cfg))
        out.mkdir(parents=True, exist_ok=True)
        (out / "validate.txt").write_text(checks.getvalue(), encoding="utf-8")
    print()
    for name, code in codes.items():
        print(f"{name:18s} exit {code}")
    return max(codes.values())


if __name__ == "__main__":
    sys.exit(main())
