"""Every recorded row of a run, collected through the run's row sink."""

import numpy as np

from coho_euler import integrate


def concatenate(chunks):
    """The rows of the chunks a sink was handed, in order: one array per series."""
    return {key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]}


def collect_rows(state, geometry, config):
    """(snapshots, report, series) of a run; ``series`` maps each name to every row's values."""
    chunks = []
    snapshots, report = integrate(state, geometry, config, chunks.append)
    return snapshots, report, concatenate(chunks)
