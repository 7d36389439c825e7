"""Bundled example runs, shipped as config files next to their data."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .config import RunConfig, parse_config
from .errors import InputError


# name -> description; the config of each is examples_data/<name>.json
EXAMPLES = {
    "su2_rigid_body": "free rigid body: orbit dynamics on su(2) with inertia diag(1,2,3)",
    "s3_t2_interval": "round 3-sphere under its torus action; decoupled steady orbit flow",
    "t3_circle": "flat 3-torus: pure horizontal transport of a vertical sine profile",
    "berger_circle": "su(2) fibres over a circle with a Fourier-perturbed diagonal metric",
    "boundary_interval": "su(2) fibres over an interval with principal-orbit boundary ends",
}


def example_names() -> list[str]:
    return list(EXAMPLES)


def example_path(name: str) -> Path:
    if name not in EXAMPLES:
        raise InputError(f"unknown example {name!r}; known: {', '.join(example_names())}")
    return Path(resources.files("coho_euler").joinpath("examples_data", f"{name}.json"))


def load_example(name: str) -> RunConfig:
    return parse_config(example_path(name))


def listing_lines() -> list[str]:
    lines = []
    for name, description in EXAMPLES.items():
        lines.append(f"{name:18s} {description}")
        lines.append(f"{'':18s} config: {example_path(name)}")
    return lines
