"""Bundled example configs with some fields changed: the one builder of config variants."""

import copy
import json
from pathlib import Path

import numpy as np

from coho_euler import InvariantMetric, catalog, su2
from coho_euler.config import check_config, parse_config_dict

DELETE = object()  # an update value that removes its field
SU2_C = su2().structure.tolist()
EYE3 = np.eye(3).tolist()
# Gram matrices that eigvalsh rounds positive and a factorization refuses: LU
# finds the su(2) one singular, and the d = 2 one has no Cholesky factor
LU_SINGULAR_SU2 = [[0.042, -0.042, -0.179], [-0.042, 0.042, 0.179], [-0.179, 0.179, 0.763]]
NO_CHOLESKY_2 = [[1.0 + 2.0**-52, 1.0], [1.0, 1.0]]


def variant(source, updates=None, *, parse=False, write_to=None):
    """A config with each dotted field of ``updates`` set, or removed if DELETE.

    ``source`` names a bundled example, or is a raw config dict, which is
    copied. Returns the raw dict; with ``parse``, the parsed config, whose
    source path is the bundled file; with ``write_to``, the path of the JSON
    file written in that directory. A written bundled config names its
    tabulated CSV by an absolute path, set before the updates, so that an
    update may name a CSV next to the written file instead.
    """
    if isinstance(source, str):
        path = catalog.example_path(source)
        raw = json.loads(path.read_text())
    else:
        path, raw = None, copy.deepcopy(source)
    if write_to is not None and "csv" in raw.get("profile", {}) and path is not None:
        raw["profile"]["csv"] = str(path.parent / raw["profile"]["csv"])
    for key, value in (updates or {}).items():
        *parents, leaf = key.split(".")
        node = raw
        for part in parents:
            node = node.setdefault(part, {})
        if value is DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    if parse:
        return parse_config_dict(raw, path)
    if write_to is None:
        return raw
    out = Path(write_to) / f"{source if path is not None else 'cfg'}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw))
    return out


def initial_problem(name):
    """A bundled example's ``(state, geom, source)``: its initial state, the
    run's geometry that ``check_config`` builds, and the invariant metric or
    metric profile that geometry is built from."""
    _, state, geom = check_config(catalog.load_example(name))
    source = geom.profile if geom.profile is not None else InvariantMetric(geom.split, geom.gram[0])
    return state, geom, source
