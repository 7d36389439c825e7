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

from .errors import InputError, StructureError, UnsupportedConfigurationError
from .lie_core import ReductiveSplit
from .numerics import as_float_array
from .reports import ValidationReport

INVARIANCE_TOL = 1e-10


def _check_grams(grams: np.ndarray) -> None:
    """Raise unless every matrix of the (n, m, m) stack is symmetric positive definite."""
    if not np.all(np.isfinite(grams)):
        raise InputError("gram contains non-finite entries")
    if np.max(np.abs(grams - grams.swapaxes(1, 2))) > 1e-12:
        raise StructureError("gram matrix is not symmetric")
    if np.min(np.linalg.eigvalsh(grams)) <= 0.0:
        raise InputError("gram matrix is not positive definite")


def connection_supported(split: ReductiveSplit) -> bool:
    return split.dim_h == 0 or split.dim_m0 == split.dim_m


def connection_tensors(split: ReductiveSplit, grams: np.ndarray) -> np.ndarray:
    """Gamma[j,a,b,c] for an (n, m, m) stack of Gram matrices, in one pass.

    nabla_{e_a} e_b = sum_c Gamma[j,a,b,c] e_c under the metric grams[j].
    Every matrix must be symmetric positive definite.
    """
    if not connection_supported(split):
        raise UnsupportedConfigurationError(
            "invariant-field connection needs trivial isotropy or an isotropy "
            "acting trivially on the whole complement "
            f"(dim h = {split.dim_h}, dim m0 = {split.dim_m0}, dim m = {split.dim_m})"
        )
    _check_grams(grams)
    n, m = grams.shape[:2]
    G1 = np.einsum("abd,jdc->jabc", split.bracket_on_m(), grams)
    # K[a,b,c] = <[a,b],c> - <[b,c],a> + <[c,a],b>
    K = G1 - np.einsum("jbca->jabc", G1) + np.einsum("jcab->jabc", G1)
    rhs = K.reshape(n, m * m, m).swapaxes(1, 2)
    return 0.5 * np.linalg.solve(grams, rhs).swapaxes(1, 2).reshape(n, m, m, m)


@dataclass
class InvariantMetric:
    """An invariant metric on one orbit: the Gram matrix of the complement basis."""

    split: ReductiveSplit
    gram: np.ndarray

    def __post_init__(self):
        m = self.split.dim_m
        self.gram = as_float_array(self.gram, (m, m), "gram")
        _check_grams(self.gram[None])

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


def euler_arnold_rhs(metric: InvariantMetric, X) -> np.ndarray:
    """du/dt = -nabla_u u at u = X; always gram-orthogonal to X."""
    return -invariant_connection(metric, X, X)


def divergence_forms(gamma: np.ndarray) -> np.ndarray:
    """Row vectors d with div(X) = d . X for invariant fields, one per Gamma[j].

    The trace of Z -> nabla_Z X, which needs no basis: d_b = Gamma[a,b,a]
    = -tr(ad_{e_b}) for every metric. Identically zero for unimodular
    (e.g. compact) groups, so this is a runtime zero-witness.
    """
    return np.einsum("jaba->jb", gamma)


def divergence_form(metric: InvariantMetric) -> np.ndarray:
    """:func:`divergence_forms` of one invariant metric."""
    return divergence_forms(metric.connection_tensor()[None])[0]


def divergence_of_invariant_field(metric: InvariantMetric, X) -> float:
    X = as_float_array(X, (metric.split.dim_m,), "X")
    return float(divergence_form(metric) @ X)
