"""One `coho-euler run` invocation, timed from inside the process.

Usage: python3 child.py --config CFG --out DIR --stamps FILE [--trace | --setup-only]

Calls ``coho_euler.cli.main(["run", ...])``, the console-script entry point,
and writes a JSON file of CLOCK_MONOTONIC stamps (``time.monotonic``), so
the parent can split its own spawn-to-exit wall time into set-up,
integration and post-processing. Without ``--trace`` only ``integrate`` is
wrapped. With ``--trace`` every layer in ``TARGETS`` is wrapped as well; each
call is a span (name, start, end, parent) whose self time (duration minus the
time covered by its child spans) is summed per layer as the span closes, and
the per-layer totals are written when the run ends. With ``--setup-only`` the
process writes its stamps and exits as soon as ``integrate`` is entered, which
gives a set-up sample in a fraction of a run's time. The program itself is
not modified: wrapping happens on module and class attributes at run time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

INTEGRATE = "reduced_euler.integrate"

# layer name -> (module, attribute path[, only when the caller is this span])
# A layer with several targets sums them. A target that no longer resolves
# (renamed, fused away) is reported absent, never as a zero.
TARGETS = {
    "config.parse": [("coho_euler.config", "parse_config")],
    "config.build_problem": [("coho_euler.config", "build_problem")],
    "coho_geometry.validate_profile": [("coho_euler.coho_geometry", "validate_profile")],
    "coho_geometry.load_tabulated": [("coho_euler.coho_geometry", "load_tabulated_csv")],
    "diagnostics.grid_geometry": [("coho_euler.diagnostics", "GridGeometry.__init__")],
    "homogeneous_geometry.connection_tensor": [
        ("coho_euler.homogeneous_geometry", "InvariantMetric.connection_tensor")
    ],
    "reduced_euler.rhs": [
        ("coho_euler.reduced_euler", "_HomogeneousDisc.rhs"),
        ("coho_euler.reduced_euler", "_IntervalDisc.rhs"),
        ("coho_euler.reduced_euler", "_CircleDisc.rhs"),
    ],
    "reduced_euler.stage_screen": [("coho_euler.reduced_euler", "_check_stage")],
    "reduced_euler.rk4_combine": [("coho_euler.reduced_euler", "_rk4")],
    "reduced_euler.cfl": [("coho_euler.reduced_euler", "_cfl_check")],
    # dc/dt and the pressure gradient are the watchdog only when the step loop
    # calls them; inside rhs or trajectory_pressures they stay in the caller
    "reduced_euler.watchdog": [
        ("coho_euler.reduced_euler", "_CircleDisc.dcdt", INTEGRATE),
        ("coho_euler.reduced_euler", "_pressure_gradient", INTEGRATE),
    ],
    "numerics.deriv": [
        ("coho_euler.numerics", "Derivative4Periodic.__call__"),
        ("coho_euler.numerics", "Derivative4Interval.__call__"),
    ],
    "diagnostics.record": [("coho_euler.diagnostics", "RunRecorder.record")],
    "diagnostics.conservation_report": [("coho_euler.diagnostics", "conservation_report")],
    "reduced_euler.pressures": [("coho_euler.reduced_euler", "trajectory_pressures")],
    "diagnostics.write_diagnostics": [("coho_euler.diagnostics", "write_diagnostics_csv")],
    "diagnostics.write_snapshots": [("coho_euler.diagnostics", "write_snapshot_csv")],
}

# layers called once per step or more; their window inside integrate is the
# step loop, and integrate's own time inside that window is the loop layer
STEP_LAYERS = frozenset(
    {
        "reduced_euler.rhs",
        "reduced_euler.stage_screen",
        "reduced_euler.rk4_combine",
        "reduced_euler.cfl",
        "reduced_euler.watchdog",
        "numerics.deriv",
        "diagnostics.record",
    }
)


def resolve(module_name, path):
    """(owner, attribute name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def install(owner, attr, original, wrapper):
    """Replace a function everywhere the package can look it up."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "coho_euler" or name.startswith("coho_euler."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    """Span stack with per-layer self time, call counts and the loop window."""

    def __init__(self):
        # frame: [name, start, child time, window start, window end, window child time]
        self.stack = []
        self.self_s = {}
        self.calls = {}
        self.self_in = {}  # the same, restricted to spans inside integrate
        self.calls_in = {}
        self.inside = False
        self.integrate_s = 0.0
        self.loop_s = 0.0

    def wrap(self, name, fn, only_under=None):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if only_under is not None and (not stack or stack[-1][0] != only_under):
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, None, 0.0, 0.0]
            stack.append(frame)
            if name == INTEGRATE:
                self.inside = True
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(frame, end)

        return wrapper

    def _close(self, frame, end):
        stack = self.stack
        stack.pop()
        name, start, child = frame[0], frame[1], frame[2]
        dur = end - start
        own = dur - child
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.inside:
            self.self_in[name] = self.self_in.get(name, 0.0) + own
            self.calls_in[name] = self.calls_in.get(name, 0) + 1
        if name == INTEGRATE:
            self.inside = False
            self.integrate_s += dur
            if frame[3] is not None:
                self.loop_s += (frame[4] - frame[3]) - frame[5]
        if stack:
            parent = stack[-1]
            parent[2] += dur
            if parent[0] == INTEGRATE and name in STEP_LAYERS:
                if parent[3] is None:
                    parent[3] = start
                parent[4] = end
                parent[5] += dur

    def result(self):
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "self_in_s": self.self_in,
            "calls_in": self.calls_in,
            "integrate_s": self.integrate_s,
            "loop_s": self.loop_s,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--stamps", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import coho_euler.cli as cli

    stamps = {"import_s": time.perf_counter() - t0}

    integrate = resolve("coho_euler.reduced_euler", "integrate")
    if integrate is None:
        print("coho_euler.reduced_euler.integrate does not resolve", file=sys.stderr)
        return 1
    tracer = Tracer() if args.trace else None
    absent = []
    if tracer is not None:
        for layer, targets in TARGETS.items():
            found = 0
            for module_name, path, *under in targets:
                hit = resolve(module_name, path)
                if hit is not None:
                    found += 1
                    install(*hit, tracer.wrap(layer, hit[2], *under))
            if not found:
                absent.append(layer)

    inner = integrate[2] if tracer is None else tracer.wrap(INTEGRATE, integrate[2])

    def write_stamps():
        with open(args.stamps, "w", encoding="utf-8") as fh:
            json.dump(stamps, fh)

    def timed_integrate(*a, **k):
        stamps["integrate_enter"] = time.monotonic()
        if args.setup_only:
            write_stamps()
            os._exit(0)
        try:
            return inner(*a, **k)
        finally:
            stamps["integrate_exit"] = time.monotonic()

    install(*integrate, timed_integrate)

    rc = cli.main(["run", "--config", args.config, "--out", args.out])
    stamps["main_end"] = time.monotonic()
    stamps["rc"] = rc
    if tracer is not None:
        stamps["trace"] = tracer.result()
        stamps["absent"] = absent
    write_stamps()
    return rc


if __name__ == "__main__":
    sys.exit(main())
