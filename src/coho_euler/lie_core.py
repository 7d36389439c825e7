"""Compact Lie algebras from structure constants, with reductive splits.

The algebra is stored densely: bracket coefficients C[i][j][k] with
[e_i, e_j] = sum_k C[i][j][k] e_k, together with an ad-invariant inner
product Q used to split off the isotropy subalgebra. A compact algebra is
unimodular, tr ad(X) = 0 for every X, so its invariant vertical fields are
divergence-free: the structure checks read tr ad on C alone, where Q's scale
cannot hide it, and a split is never built whose complement carries a trace
tr_m(P_m ad_X). Dimensions stay in the single digits here, so clarity wins
over sparsity throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, StructureError, UnsupportedConfigurationError, require_instance
from .numerics import as_count, as_float_array, as_list
from .reports import ValidationReport

STRUCTURE_TOL = 1e-12
KERNEL_CUTOFF = 1e-10
# the largest dimension of a built-in abelian algebra: its bracket holds dim**3 floats
MAX_DIM = 16


@dataclass
class LieAlgebraSpec:
    """A finite-dimensional Lie algebra with a fixed inner product.

    Attributes:
        dim: number of basis vectors.
        structure: (dim, dim, dim) bracket coefficients, antisymmetric in
            the first two slots.
        Q: (dim, dim) symmetric positive-definite matrix; ad-invariance is
            checked by :func:`validate_structure`, not at construction.
    """

    dim: int
    structure: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.dim = n = as_count(self.dim, "algebra dimension", 1)
        self.structure = as_float_array(self.structure, (n, n, n), "structure")
        self.Q = as_float_array(self.Q, name="Q")
        if self.Q.shape != (n, n):
            # a C/Q shape mismatch is a structural inconsistency, not bad data
            raise StructureError(f"Q has shape {self.Q.shape}, expected {(n, n)}")


def bracket(alg: LieAlgebraSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Lie bracket [x, y] in basis coordinates."""
    x = as_float_array(x, (alg.dim,), "x")
    y = as_float_array(y, (alg.dim,), "y")
    return np.einsum("i,j,ijk->k", x, y, alg.structure)


def su2() -> LieAlgebraSpec:
    """su(2) with [e1,e2]=e3 cyclically and the standard inner product."""
    C = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        C[i, j, k] = 1.0
        C[j, i, k] = -1.0
    return LieAlgebraSpec(3, C, np.eye(3))


def abelian(dim: int) -> LieAlgebraSpec:
    """R^dim with vanishing bracket."""
    dim = as_count(dim, "algebra dimension", 1, MAX_DIM)
    return LieAlgebraSpec(dim, np.zeros((dim, dim, dim)), np.eye(dim))


def direct_sum(a: LieAlgebraSpec, b: LieAlgebraSpec) -> LieAlgebraSpec:
    """Block direct sum of two algebras with block-diagonal Q."""
    n, m = a.dim, b.dim
    C = np.zeros((n + m, n + m, n + m))
    C[:n, :n, :n] = a.structure
    C[n:, n:, n:] = b.structure
    Q = np.zeros((n + m, n + m))
    Q[:n, :n] = a.Q
    Q[n:, n:] = b.Q
    return LieAlgebraSpec(n + m, C, Q)


def validate_structure(alg: LieAlgebraSpec) -> ValidationReport:
    """Check antisymmetry, Jacobi, positivity of Q, ad-invariance of Q and unimodularity."""
    C = alg.structure
    report = ValidationReport()

    report.add("antisymmetry", np.max(np.abs(C + C.transpose(1, 0, 2))), STRUCTURE_TOL)

    jac = (
        np.einsum("ijm,mkl->ijkl", C, C)
        + np.einsum("jkm,mil->ijkl", C, C)
        + np.einsum("kim,mjl->ijkl", C, C)
    )
    report.add("jacobi_identity", np.max(np.abs(jac)), STRUCTURE_TOL)

    report.add("Q_symmetric", np.max(np.abs(alg.Q - alg.Q.T)), STRUCTURE_TOL)
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (alg.Q + alg.Q.T))))
    report.add_flag("Q_positive_definite", eigmin > 0.0, f"min eigenvalue {eigmin:.3e}")

    # Q(ad_i y, z) + Q(y, ad_i z) = 0 for every basis direction i
    ad_all = np.einsum("ijk->ikj", C)  # ad_all[i] = matrix of ad(e_i)
    inv = np.einsum("ikj,kl->ijl", ad_all, alg.Q) + np.einsum(
        "jk,ikl->ijl", alg.Q, ad_all
    )
    report.add("ad_invariance", np.max(np.abs(inv)), STRUCTURE_TOL)
    # the largest |tr ad(e_j)| = |sum_i C[j,i,i]|: zero on a compact algebra, whatever Q
    report.add("unimodular", np.max(np.abs(np.einsum("jii->j", C))), STRUCTURE_TOL)
    return report


@dataclass
class ReductiveSplit:
    """An isotropy subalgebra and its orthogonal complement.

    Rows of ``h_basis`` and of ``m_basis`` are Q-orthonormal bases of the
    isotropy and of its complement m. Gram matrices, initial data and
    tabulated g_r are read in the ``m_basis`` rows: e_1..e_n for a named
    algebra with no isotropy.
    """

    algebra: LieAlgebraSpec
    h_basis: np.ndarray
    m_basis: np.ndarray

    @property
    def dim_h(self) -> int:
        return self.h_basis.shape[0]

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[0]

    def ad_on_m(self, x: np.ndarray) -> np.ndarray:
        """Matrix of (project to complement) . ad(x) in complement coordinates."""
        w = np.einsum("i,bj,ijk->bk", x, self.m_basis, self.algebra.structure)
        return self.m_basis @ self.algebra.Q @ w.T

    def fixed_complement_residual(self) -> float:
        """Largest singular value of the stacked ``ad_on_m`` of the isotropy basis
        (0.0 with no isotropy): zero iff the connected isotropy fixes all of m."""
        if not self.dim_h:
            return 0.0
        return float(np.linalg.norm(np.vstack([self.ad_on_m(x) for x in self.h_basis]), 2))

    def require_fixed_complement(self):
        """Refuse a fibre whose isotropy moves part of the complement.

        Invariant fields carry the algebra bracket only when the isotropy fixes
        the whole complement, as trivial isotropy does; the invariant-field
        connection and every metric profile rest on that.
        """
        residual = self.fixed_complement_residual()
        if residual > KERNEL_CUTOFF:
            raise UnsupportedConfigurationError(
                "the isotropy must fix the whole complement "
                f"(dim h = {self.dim_h}, dim m = {self.dim_m}, "
                f"residual {residual:.3e} > {KERNEL_CUTOFF:.0e})"
            )

    def bracket_on_m(self) -> np.ndarray:
        """Tensor B[a,b,c]: projected bracket of complement basis vectors."""
        M, C, Q = self.m_basis, self.algebra.structure, self.algebra.Q
        full = np.einsum("ai,bj,ijk->abk", M, M, C)
        return np.einsum("abk,kl,cl->abc", full, Q, M)


def _q_orthonormalize(vectors: np.ndarray, Q: np.ndarray, required: int) -> np.ndarray:
    """Modified Gram-Schmidt in the Q inner product: a vector that drops out
    adds no row, and is refused among the first ``required`` (the isotropy).

    Each vector is orthogonalised twice: one pass leaves a residual of norm
    delta off by about eps/delta from orthogonal, which a nearly dependent
    candidate would carry into its row.
    """
    out = []
    for k, w in enumerate(vectors):
        norm0 = float(np.sqrt(max(w @ Q @ w, 0.0)))
        for _ in range(2):
            for u in out:
                w = w - (u @ Q @ w) * u
        norm = float(np.sqrt(max(w @ Q @ w, 0.0)))
        if norm > 1e-10 * norm0:
            out.append(w / norm)
        elif k < required:
            raise InputError(f"isotropy basis vectors are linearly dependent (vector {k})")
    return np.array(out)


def _isotropy_closure_residual(alg: LieAlgebraSpec, h_on: np.ndarray) -> float:
    """Largest Q-norm of the part of a bracket [h_i, h_j] off the isotropy span.

    ``h_on`` is a Q-orthonormal basis of that span, so the caller's scale
    does not enter; zero means the isotropy closes under the bracket.
    """
    worst = 0.0
    for i in range(len(h_on)):
        for j in range(i + 1, len(h_on)):
            b = bracket(alg, h_on[i], h_on[j])
            resid = b - h_on.T @ (h_on @ alg.Q @ b)
            worst = max(worst, float(np.sqrt(max(resid @ alg.Q @ resid, 0.0))))
    return worst


def reductive_split(alg: LieAlgebraSpec, h_basis) -> ReductiveSplit:
    """Split the algebra into the isotropy and its Q-orthogonal complement.

    One Gram-Schmidt pass in Q over the isotropy basis, then e_1..e_n, gives
    both bases. An isotropy basis that is dependent, does not close under the
    bracket, or spans the whole algebra (leaving m empty) is refused, and so
    is a complement that is not unimodular: tr_m(P_m ad_X) != 0 for some X in
    m, the vertical divergence of an invariant field, which no compact group
    has. tr ad = 0 on g does not imply it when [h, m] leaves m. Whether the
    isotropy fixes the complement is a separate question:
    :meth:`ReductiveSplit.require_fixed_complement` answers it.
    """
    require_instance(alg, LieAlgebraSpec, "an algebra")
    n = alg.dim
    h_rows = [as_float_array(v, (n,), "h_basis vector") for v in as_list(h_basis, "h_basis")]
    rows = _q_orthonormalize(np.vstack([*h_rows, np.eye(n)]), alg.Q, len(h_rows))
    h_on, m_basis = rows[:len(h_rows)], rows[len(h_rows):]

    worst = _isotropy_closure_residual(alg, h_on)
    if worst >= STRUCTURE_TOL:
        raise StructureError(
            f"isotropy basis does not span a subalgebra (off-span residual {worst:.3e})"
        )
    if not len(m_basis):
        raise StructureError("isotropy basis spans the whole algebra: the complement m is empty")
    if len(rows) != n:
        raise StructureError(f"complement has dimension {len(m_basis)}, expected {n - len(h_on)}")
    split = ReductiveSplit(alg, h_on, m_basis)
    # tr_m(P_m ad_X) on unit-length X = each m row, so Q's scale does not enter
    trace = np.max(np.abs(np.einsum("baa->b", split.bracket_on_m()))
                   / np.linalg.norm(m_basis, axis=1))
    if trace >= STRUCTURE_TOL:
        raise StructureError(f"the complement is not unimodular (largest |tr_m ad| {trace:.3e})")
    return split
