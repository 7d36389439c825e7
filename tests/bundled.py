"""Bundled example configs with some fields changed: the one builder of config variants."""

import copy
import json
from pathlib import Path

import numpy as np

from coho_euler import catalog, su2
from coho_euler.config import parse_config_dict

DELETE = object()  # an update value that removes its field
SU2_C = su2().structure.tolist()
EYE3 = np.eye(3).tolist()


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
