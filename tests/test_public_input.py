"""Malformed caller input at every public entry point ends in a package error.

Each argument that a caller fills with plain values (a real, a count, an
array, a list of them, or a name), and each package object (an algebra, a
split, an orbit space, a geometry, a state and a solver config), is replaced
in turn by a malformed value. Only a ``CohoEulerError`` may escape; any other
exception fails the test. A run's row sink is passed as it is.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coho_euler import (
    CohoEulerError,
    InvariantMetric,
    LieAlgebraSpec,
    OrbitSpace,
    ReducedState,
    SolverConfig,
    TabulatedProfile,
    abelian,
    berger_circle,
    energy,
    integrate,
    pointwise_speed,
    pressure_reconstruct,
    reductive_split,
    step_rk4,
    su2,
    warped_torus,
)
from coho_euler.coho_geometry import BOUNDARY, CIRCLE, INTERVAL, SINGULAR
from coho_euler.diagnostics import GridGeometry

MALFORMED_VALUES = [None, "x", "1", True, [1.0, 2.0], [[0.5]], {}, math.nan, math.inf,
                    -math.inf, 2.0, 2**62, 10**400, 1j]

PROFILE = berger_circle(1.0, [[0.0, 0.1, 0.0], [0.0], [0.0]])
STATE = ReducedState(0.0, 0.1, np.ones((16, 3)))
CONFIG = SolverConfig(dt=0.01, t_end=0.02)
R = np.linspace(0.0, 1.0, 9)

# name: (call, its fuzzed arguments with valid values)
ENTRY_POINTS = {
    "SolverConfig": (SolverConfig, dict(dt=0.01, t_end=0.02, cfl_guard=0.5, snapshot_cadence=1,
                                        diagnostics_cadence=1)),
    "ReducedState": (ReducedState, dict(t=0.0, c=0.1, v=np.ones((16, 3)))),
    "OrbitSpace": (OrbitSpace, dict(kind=INTERVAL, length=1.0,
                                    endpoint_kinds=(SINGULAR, BOUNDARY))),
    "LieAlgebraSpec": (LieAlgebraSpec, dict(dim=3, structure=su2().structure, Q=np.eye(3))),
    "abelian": (abelian, dict(dim=2)),
    "reductive_split": (reductive_split, dict(alg=su2(), h_basis=[])),
    "warped_torus": (warped_torus, dict(length=1.0, coefficients=[[0.0, 0.1, 0.0], [0.0]])),
    "berger_circle": (berger_circle, dict(length=1.0, coefficients=[[0.0], [0.0], [0.0]])),
    "TabulatedProfile": (TabulatedProfile,
                         dict(split=reductive_split(abelian(1), []),
                              orbit_space=OrbitSpace(CIRCLE, 1.0), r_samples=R,
                              gram_samples=np.ones((9, 1, 1)),
                              gram_prime_samples=np.zeros((9, 1, 1)))),
    "InvariantMetric": (InvariantMetric, dict(split=reductive_split(su2(), []), gram=np.eye(3))),
    "GridGeometry": (GridGeometry, dict(geometry=PROFILE, n=16)),
    "gram_at": (PROFILE.gram_at, dict(r=0.3)),
    "volume_at": (PROFILE.volume_at, dict(r=0.3)),
    "h0_at": (PROFILE.h0_at, dict(r=0.3)),
    "energy": (energy, dict(state=STATE, geometry=PROFILE)),
    "pointwise_speed": (pointwise_speed, dict(state=STATE, geometry=PROFILE, j=3)),
    "pressure_reconstruct": (pressure_reconstruct, dict(state=STATE, geometry=PROFILE)),
    "integrate": (integrate, dict(state=STATE, geometry=PROFILE, config=CONFIG)),
    "step_rk4": (step_rk4, dict(state=STATE, geometry=PROFILE, config=CONFIG)),
}
ARGUMENTS = [(name, arg) for name, (_, args) in ENTRY_POINTS.items() for arg in args]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_unmodified_call_succeeds(name):
    call, args = ENTRY_POINTS[name]
    call(**args)


@pytest.mark.parametrize("name, arg", ARGUMENTS, ids=[f"{n}-{a}" for n, a in ARGUMENTS])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(bad=st.sampled_from(MALFORMED_VALUES))
def test_malformed_argument_raises_only_package_errors(name, arg, bad):
    call, args = ENTRY_POINTS[name]
    try:
        call(**{**args, arg: bad})
    except CohoEulerError:
        pass
