"""How a run is put together: one geometry per run, and traceable layers.

A run builds its problem's geometry once and shares it between the step,
the recorder and the pressures. perfbench's tracer wraps the layers of a
run by name, so a rename or a fused-away layer must fail here rather than
turn that layer silently into "absent" in the trace.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from coho_euler import catalog, diagnostics, homogeneous_geometry
from coho_euler.cli import run_command
from coho_euler.config import parse_config_dict

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


@pytest.mark.parametrize("name", catalog.example_names())
def test_one_geometry_per_run(monkeypatch, tmp_path, name):
    cfg = catalog.load_example(name)
    raw = json.loads(json.dumps(cfg.raw))
    raw["solver"]["t_end"] = 5 * raw["solver"]["dt"]
    cfg = parse_config_dict(raw, cfg.source_path)

    calls = {"geometry": 0, "gamma": 0}
    init = diagnostics.GridGeometry.__init__
    tensors = homogeneous_geometry.connection_tensors

    def counted_init(self, *args, **kwargs):
        calls["geometry"] += 1
        init(self, *args, **kwargs)

    def counted_tensors(*args, **kwargs):
        calls["gamma"] += 1
        return tensors(*args, **kwargs)

    monkeypatch.setattr(diagnostics.GridGeometry, "__init__", counted_init)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("coho_euler") and getattr(module, "connection_tensors",
                                                         None) is tensors:
            monkeypatch.setattr(module, "connection_tensors", counted_tensors)

    assert run_command(cfg, tmp_path / "out") == 0
    # Gamma is built on every node by the run's one geometry; the step and the
    # divergence probes both read that copy
    assert calls["geometry"] == 1
    assert calls["gamma"] == 1


def test_perfbench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        (layer, module_name, path)
        for layer, targets in child.TARGETS.items()
        for module_name, path, *_ in targets
        if child.resolve(module_name, path) is None
    ]
    assert missing == []
    assert child.resolve("coho_euler.reduced_euler", "integrate") is not None
