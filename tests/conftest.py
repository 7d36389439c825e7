import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from coho_euler import InvariantMetric, RoundS3T2Profile, abelian, reductive_split, su2, warped_torus
from coho_euler import reduced_euler
from coho_euler.coho_geometry import BOUNDARY, CIRCLE, OrbitSpace, TabulatedProfile


@pytest.fixture
def su2_split():
    return reductive_split(su2(), [])


@pytest.fixture
def rigid_body_metric(su2_split):
    return InvariantMetric(su2_split, np.diag([1.0, 2.0, 3.0]))


@pytest.fixture
def round_s3_t2():
    return RoundS3T2Profile()


@pytest.fixture
def flat_torus():
    # flat 3-torus: two unit fibre circles over a unit base circle
    return warped_torus(1.0, [[0.0], [0.0]])


@pytest.fixture
def dcdt_fault(monkeypatch):
    """Fault injection: ``dcdt_fault(offset)`` adds ``offset`` to the dc/dt closure.

    A run's right-hand side and its pressure watchdog then both read the
    faulty dc/dt; a later call replaces the earlier offset.
    """
    closure = reduced_euler._closure

    def inject(offset):
        def faulty(geom, v):
            q, dcdt = closure(geom, v)
            return q, dcdt + offset

        monkeypatch.setattr(reduced_euler, "_closure", faulty)

    return inject


@pytest.fixture
def coupled_tabulated():
    """Factory for a tabulated 2x2 profile whose off-diagonal entry varies with r.

    ``make(kind)`` gives it on an interval with boundary endpoints or on a
    circle; both have length 1.
    """
    def make(kind):
        r = np.linspace(0.0, 1.0, 33)
        a = 2.0 * np.pi * r
        gram = np.empty((r.size, 2, 2))
        prime = np.empty_like(gram)
        gram[:, 0, 0] = 1.5 + 0.3 * np.cos(a)
        gram[:, 1, 1] = 2.0 + 0.1 * np.sin(a)
        gram[:, 0, 1] = gram[:, 1, 0] = 0.2 * np.sin(a)
        prime[:, 0, 0] = -0.6 * np.pi * np.sin(a)
        prime[:, 1, 1] = 0.2 * np.pi * np.cos(a)
        prime[:, 0, 1] = prime[:, 1, 0] = 0.4 * np.pi * np.cos(a)
        if kind == CIRCLE:
            gram[-1], prime[-1] = gram[0], prime[0]  # exactly periodic samples
            space = OrbitSpace(CIRCLE, 1.0)
        else:
            space = OrbitSpace(kind, 1.0, (BOUNDARY, BOUNDARY))
        return TabulatedProfile(reductive_split(abelian(2), []), space, r, gram, prime)

    return make
