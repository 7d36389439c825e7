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

from .errors import InputError, StructureError, require_instance
from .lie_core import ReductiveSplit
from .numerics import as_float_array
from .reports import ValidationReport

INVARIANCE_TOL = 1e-10


def _has_cholesky(gram: np.ndarray) -> bool:
    try:
        return np.linalg.cholesky(gram) is not None
    except np.linalg.LinAlgError:
        return False


def check_grams(grams: np.ndarray, r=None):
    """The one positive-definiteness test of an (n, m, m) stack of Gram matrices.

    ``eigvalsh`` can round positive a g_r that is singular to rounding, on
    which a factorization then fails. So each matrix must be finite and
    symmetric, with every eigenvalue > 0, an LU determinant > 0 (so every
    ``solve`` succeeds) and a Cholesky factor (rho's whitening). An
    InputError names the first failing node, by its radius in ``r`` if given.
    Returns the least eigenvalues, the determinants and the Cholesky factors.
    """
    at = (lambda j: f"r = {r[j]:.6g}") if r is not None else "node {}".format
    finite = np.isfinite(grams).all(axis=(1, 2))
    if not finite.all():
        raise InputError(f"g_r is not finite at {at(np.argmin(finite))}")
    if np.max(np.abs(grams - grams.swapaxes(1, 2))) > 1e-12:
        raise StructureError("gram matrix is not symmetric")
    lam = np.linalg.eigvalsh(grams)[:, 0]
    # det > 0 judges what det's warnings would say; a det past the float range
    # is inf, whose volume the profile checks refuse by name
    with np.errstate(all="ignore"):
        det = np.linalg.det(grams)
    try:
        chol, factored = np.linalg.cholesky(grams), np.ones(len(grams), bool)
    except np.linalg.LinAlgError:
        chol, factored = None, np.array([_has_cholesky(g) for g in grams])
    ok = (lam > 0.0) & (det > 0.0) & factored
    if not ok.all():
        j = int(np.argmin(ok))
        no_factor = "" if factored[j] else ", no Cholesky factor"
        raise InputError(f"g_r is not positive definite at {at(j)} (min eigenvalue "
                         f"{lam[j]:.3e}, LU determinant {det[j]:.3e}{no_factor})")
    return lam, det, chol


def connection_tensors(split: ReductiveSplit, grams: np.ndarray) -> np.ndarray:
    """Gamma[j,a,b,c] for an (n, m, m) stack of Gram matrices, in one pass.

    nabla_{e_a} e_b = sum_c Gamma[j,a,b,c] e_c under the metric grams[j].
    Every matrix must pass :func:`check_grams`, and the isotropy must fix the
    whole complement.
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
        require_instance(self.split, ReductiveSplit, "a split")
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
    return float(np.sqrt(np.linalg.det(metric.gram)))
