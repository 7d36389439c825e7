"""Invariant metrics on a single orbit and their Levi-Civita connection.

For invariant vector fields the inner products are constant over the orbit,
so the Koszul formula loses its derivative terms and the connection becomes
an algebraic bilinear map on complement coordinates:

    2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>.

This identification of the invariant-field bracket with the algebra bracket
is only valid when the isotropy is trivial or acts trivially on the whole
complement; anything else is refused rather than guessed. The sign of the
bracket is fixed so that time-forward integration of du/dt = -nabla_u u on
su(2) with a diagonal metric reproduces the classical rigid-body equations
w1' = ((I2 - I3)/I1) w2 w3 (cyclic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, StructureError
from .lie_core import ReductiveSplit
from .numerics import as_float_array
from .reports import ValidationReport

INVARIANCE_TOL = 1e-10


def check_grams(grams: np.ndarray) -> None:
    """Raise unless every matrix of the (n, m, m) stack is symmetric positive definite."""
    if not np.all(np.isfinite(grams)):
        raise InputError("gram contains non-finite entries")
    if np.max(np.abs(grams - grams.swapaxes(1, 2))) > 1e-12:
        raise StructureError("gram matrix is not symmetric")
    if np.min(np.linalg.eigvalsh(grams)) <= 0.0:
        raise InputError("gram matrix is not positive definite")


def connection_tensors(split: ReductiveSplit, grams: np.ndarray) -> np.ndarray:
    """Gamma[j,a,b,c] for an (n, m, m) stack of Gram matrices, in one pass.

    nabla_{e_a} e_b = sum_c Gamma[j,a,b,c] e_c under the metric grams[j].
    Every matrix must be symmetric positive definite, and the isotropy must
    fix the whole complement.
    """
    split.require_fixed_complement()
    check_grams(grams)
    n, m = grams.shape[:2]
    G1 = np.einsum("abd,jdc->jabc", split.bracket_on_m(), grams)
    # K[a,b,c] = <[a,b],c> - <[b,c],a> + <[c,a],b>, summed in place: at most
    # two stacks of n m^3 floats are alive at once
    K = G1 - np.einsum("jbca->jabc", G1)
    K += np.einsum("jcab->jabc", G1)
    del G1
    gamma = np.linalg.solve(grams, K.reshape(n, m * m, m).swapaxes(1, 2))
    gamma *= 0.5
    return gamma.swapaxes(1, 2).reshape(n, m, m, m)


@dataclass
class InvariantMetric:
    """An invariant metric on one orbit: the Gram matrix of the complement basis."""

    split: ReductiveSplit
    gram: np.ndarray

    def __post_init__(self):
        m = self.split.dim_m
        self.gram = as_float_array(self.gram, (m, m), "gram")
        check_grams(self.gram[None])

    def connection_tensor(self) -> np.ndarray:
        """Gamma[a,b,c] with nabla_{e_a} e_b = sum_c Gamma[a,b,c] e_c."""
        return connection_tensors(self.split, self.gram[None])[0]


def check_metric_invariance(metric: InvariantMetric) -> ValidationReport:
    """Ad(H)-invariance of the Gram matrix under the isotropy's ad-action."""
    report = ValidationReport()
    worst = 0.0
    for x in metric.split.h_basis:
        A = metric.split.ad_on_m(x)
        worst = max(worst, float(np.max(np.abs(A.T @ metric.gram + metric.gram @ A))))
    report.add("metric_ad_invariance", worst, INVARIANCE_TOL)
    return report


def invariant_connection(metric: InvariantMetric, X, Y) -> np.ndarray:
    """nabla_X Y for invariant fields, in complement coordinates."""
    m = metric.split.dim_m
    X = as_float_array(X, (m,), "X")
    Y = as_float_array(Y, (m,), "Y")
    return np.einsum("a,b,abc->c", X, Y, metric.connection_tensor())


def orbit_volume(metric: InvariantMetric) -> float:
    """Orbit volume relative to the reference density of the complement basis."""
    det = float(np.linalg.det(metric.gram))
    if det <= 0.0:
        raise InputError("gram matrix has non-positive determinant")
    return float(np.sqrt(det))

