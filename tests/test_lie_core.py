import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from coho_euler import (
    InputError,
    StructureError,
    UnsupportedConfigurationError,
    abelian,
    bracket,
    direct_sum,
    reductive_split,
    su2,
    validate_structure,
)
from coho_euler.lie_core import KERNEL_CUTOFF, LieAlgebraSpec

from oracles import ad_direct, bracket_direct, joint_ad_kernel

coeffs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def test_su2_passes_all_structure_checks():
    report = validate_structure(su2())
    assert report.passed
    assert [c.name for c in report.checks] == [
        "antisymmetry",
        "jacobi_identity",
        "Q_symmetric",
        "Q_positive_definite",
        "ad_invariance",
    ]
    assert report["antisymmetry"].residual == 0.0
    assert report["jacobi_identity"].residual == 0.0


def test_abelian_passes():
    assert validate_structure(abelian(2)).passed


def test_broken_antisymmetry_fails():
    C = np.zeros((3, 3, 3))
    C[0, 1, 2] = 1.0  # no compensating C[1,0,2] = -1
    report = validate_structure(LieAlgebraSpec(3, C, np.eye(3)))
    assert not report["antisymmetry"].passed


def test_broken_jacobi_fails():
    # [e1,e2]=e3 and [e1,e3]=e1 leave a cyclic remainder [[e3,e1],e2] = -e3
    C = np.zeros((3, 3, 3))
    C[0, 1, 2], C[1, 0, 2] = 1.0, -1.0
    C[0, 2, 0], C[2, 0, 0] = 1.0, -1.0
    report = validate_structure(LieAlgebraSpec(3, C, np.eye(3)))
    assert not report["jacobi_identity"].passed


def test_indefinite_Q_fails():
    report = validate_structure(LieAlgebraSpec(3, su2().structure, np.diag([1.0, 1.0, -1.0])))
    assert not report["Q_positive_definite"].passed


def test_shape_mismatch_is_structural():
    with pytest.raises(StructureError):
        LieAlgebraSpec(3, np.zeros((3, 3, 3)), np.eye(4))


def test_non_finite_entries_rejected():
    C = np.zeros((2, 2, 2))
    C[0, 1, 0] = np.nan
    with pytest.raises(InputError):
        LieAlgebraSpec(2, C, np.eye(2))


def test_bracket_su2_basis():
    alg = su2()
    assert np.allclose(bracket(alg, [1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.allclose(bracket(alg, [0, 1, 0], [0, 0, 1]), [1, 0, 0])


def test_bracket_of_vector_with_itself_vanishes():
    alg = su2()
    x = np.array([0.3, -1.2, 0.8])
    assert np.allclose(bracket(alg, x, x), 0.0)


def test_bracket_length_mismatch():
    with pytest.raises(InputError):
        bracket(su2(), [1.0, 0.0], [0.0, 1.0, 0.0])


def test_bracket_bilinearity_against_direct_summation():
    alg = su2()
    x = np.array([1.0, 1.0, 0.0])  # e1 + e2
    y = np.array([0.0, 1.0, 0.0])
    got = bracket(alg, x, y)
    want = bracket_direct(alg.structure, x, y)
    assert np.allclose(got, want)
    assert np.allclose(got, [0.0, 0.0, 1.0])  # [e1+e2, e2] = e3


@settings(max_examples=50, deadline=None)
@given(
    x=st.tuples(coeffs, coeffs, coeffs),
    y=st.tuples(coeffs, coeffs, coeffs),
)
def test_bracket_matches_oracle_and_is_antisymmetric(x, y):
    alg = su2()
    x, y = np.array(x), np.array(y)
    got = bracket(alg, x, y)
    assert np.allclose(got, bracket_direct(alg.structure, x, y), atol=1e-12)
    assert np.allclose(got, -bracket(alg, y, x), atol=1e-12)


def test_jacobi_property_on_accepted_algebras():
    for alg in (su2(), abelian(3), direct_sum(su2(), abelian(1))):
        assert validate_structure(alg).passed
        n = alg.dim
        basis = np.eye(n)
        worst = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    cyc = (
                        bracket(alg, bracket(alg, basis[i], basis[j]), basis[k])
                        + bracket(alg, bracket(alg, basis[j], basis[k]), basis[i])
                        + bracket(alg, bracket(alg, basis[k], basis[i]), basis[j])
                    )
                    worst = max(worst, np.max(np.abs(cyc)))
        assert worst < 1e-12


def test_split_su2_e3_isotropy():
    split = reductive_split(su2(), [[0.0, 0.0, 1.0]])
    assert split.dim_h == 1 and split.dim_m == 2
    # m is the (e1, e2) plane, which ad(e3) rotates: nothing of m is fixed
    assert np.allclose(np.abs(split.m_basis), np.eye(3)[:2])
    assert split.fixed_complement_residual() == pytest.approx(1.0, rel=1e-14)
    assert_split_complementary(split)
    with pytest.raises(UnsupportedConfigurationError, match="dim h = 1, dim m = 2"):
        split.require_fixed_complement()


def assert_split_complementary(split):
    """m is Q-orthogonal to h, and dim h + dim m = dim g."""
    alg = split.algebra
    assert np.max(np.abs(split.h_basis @ alg.Q @ split.m_basis.T), initial=0.0) < 1e-12
    assert split.dim_h + split.dim_m == alg.dim


def test_split_abelian_trivial_isotropy():
    split = reductive_split(abelian(2), [])
    assert split.dim_m == 2 and split.fixed_complement_residual() == 0.0
    assert np.allclose(split.m_basis, np.eye(2))


def test_split_su2_plus_r_fixed_subspace():
    alg = direct_sum(su2(), abelian(1))
    split = reductive_split(alg, [[0.0, 0.0, 1.0, 0.0]])
    assert split.dim_m == 3
    # the brute-force kernel of the stacked ad matrices is the abelian factor alone,
    # so the isotropy moves part of m and the split is refused
    kernel = joint_ad_kernel(alg, split.h_basis, split.m_basis)
    assert kernel.shape[0] == 1
    fixed = (kernel @ split.m_basis)[0]
    assert np.allclose(np.abs(fixed / np.linalg.norm(fixed)), [0, 0, 0, 1], atol=1e-10)
    assert split.fixed_complement_residual() > KERNEL_CUTOFF
    with pytest.raises(UnsupportedConfigurationError):
        split.require_fixed_complement()


# (algebra, isotropy basis, supported): supported iff the isotropy fixes all of m
SPLITS = {
    "su2-e3": (su2(), [[0.0, 0.0, 1.0]], False),
    "su2+R-e3": (direct_sum(su2(), abelian(1)), [[0.0, 0.0, 1.0, 0.0]], False),
    "su2+R-R": (direct_sum(su2(), abelian(1)), [[0.0, 0.0, 0.0, 1.0]], True),
    "abelian3-e1": (abelian(3), [[1.0, 0.0, 0.0]], True),
    "su2+su2-e3-e6": (direct_sum(su2(), su2()), [np.eye(6)[2], np.eye(6)[5]], False),
    "su2+R-tiny-e3+R": (direct_sum(su2(), abelian(1)), [[0.0, 0.0, 1e-11, 1.0]], True),
    # nearly a basis vector: one orthogonalisation pass would leave m overlapping h
    "abelian3-e1+tiny-e2": (abelian(3), [[1.0, 1e-9, 0.0]], True),
    "su2+R-e3+tiny-R": (direct_sum(su2(), abelian(1)), [[0.0, 0.0, 1.0, 1e-9]], False),
}


@pytest.mark.parametrize("case", SPLITS)
def test_fixed_complement_residual_matches_joint_kernel(case):
    alg, h_basis, supported = SPLITS[case]
    split = reductive_split(alg, h_basis)
    assert_split_complementary(split)
    residual = split.fixed_complement_residual()
    stacked = np.vstack([split.ad_on_m(x) for x in split.h_basis])
    assert residual == np.linalg.svd(stacked, compute_uv=False)[0]
    kernel = joint_ad_kernel(alg, split.h_basis, split.m_basis)
    assert (residual <= KERNEL_CUTOFF) == (kernel.shape[0] == split.dim_m) == supported
    if supported:
        split.require_fixed_complement()
    else:
        with pytest.raises(UnsupportedConfigurationError, match=re.escape(f"residual {residual:.3e}")):
            split.require_fixed_complement()


def test_split_rejects_non_subalgebra():
    with pytest.raises(StructureError):
        reductive_split(su2(), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_split_rejects_isotropy_spanning_the_algebra():
    # su2 is a subalgebra of itself, but its empty complement carries no reduced state
    with pytest.raises(StructureError, match="spans the whole algebra: the complement m is empty"):
        reductive_split(su2(), np.eye(3))


def _closure_residual_reference(alg, h_basis):
    """The off-span residual as reductive_split computes it: brackets of the
    orthonormal isotropy rows, so that the caller's scale does not enter."""
    h_on = np.linalg.qr(np.asarray(h_basis, dtype=float).T)[0].T  # Q = identity here
    worst = 0.0
    for i in range(len(h_on)):
        for j in range(i + 1, len(h_on)):
            b = bracket(alg, h_on[i], h_on[j])
            resid = b - h_on.T @ (h_on @ alg.Q @ b)
            worst = max(worst, float(np.sqrt(max(resid @ alg.Q @ resid, 0.0))))
    return worst


def test_isotropy_closure_residual_is_shared():
    # [e1, (0.3, 0.6, 0.2)] leaves su(2) by the same residual at every scale
    alg = su2()
    for scale in (1.0, 100.0, 1e3, 1e6):
        h_basis = scale * np.array([[1.0, 0.0, 0.0], [0.3, 0.6, 0.2]])
        want = f"{_closure_residual_reference(alg, h_basis):.3e}"
        assert want == "1.000e+00"
        with pytest.raises(StructureError, match=re.escape(f"off-span residual {want}")):
            reductive_split(alg, h_basis)
    # a closed isotropy has residual zero, and the split accepts it
    alg, closed = direct_sum(su2(), su2()), [np.eye(6)[2], np.eye(6)[5]]
    assert _closure_residual_reference(alg, closed) == 0.0
    assert_split_complementary(reductive_split(alg, closed))


@pytest.mark.parametrize("scale", [1.0, 100.0, 1e3, 1e6])
def test_isotropy_closure_check_is_scale_free(scale):
    # a rotated basis of the first su(2) of su(2)+su(2) closes at every scale
    alg = direct_sum(su2(), su2())
    rotation = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    split = reductive_split(alg, np.hstack([scale * rotation, np.zeros((3, 3))]))
    assert split.dim_m == 3
    assert_split_complementary(split)
    split.require_fixed_complement()


def with_q(alg, Q):
    """``alg`` with its inner product replaced by the ad-invariant ``Q``."""
    alg = LieAlgebraSpec(alg.dim, alg.structure, Q)
    assert validate_structure(alg).passed
    return alg


# (algebra with an ad-invariant Q, isotropy basis): Q = I, scaled, and with a free centre
Q_SPLITS = {
    "su2-I": (su2(), []),
    "su2-2I": (with_q(su2(), 2.0 * np.eye(3)), []),
    "su2-I/4": (with_q(su2(), 0.25 * np.eye(3)), []),
    "su2+R-3335": (with_q(direct_sum(su2(), abelian(1)), np.diag([3.0, 3.0, 3.0, 5.0])), []),
    "su2+R-3335-e4": (with_q(direct_sum(su2(), abelian(1)), np.diag([3.0, 3.0, 3.0, 5.0])),
                      [[0.0, 0.0, 0.0, 1.0]]),
    "R2-offdiag": (with_q(abelian(2), np.array([[2.0, 0.5], [0.5, 1.0]])), []),
}


@pytest.mark.parametrize("case", Q_SPLITS)
def test_bracket_on_m_is_the_bracket_of_m_basis(case):
    # B[a, b] are the m_basis coordinates of the m-part of [m_a, m_b], for every Q
    alg, h_basis = Q_SPLITS[case]
    split = reductive_split(alg, h_basis)
    M, B = split.m_basis, split.bracket_on_m()
    assert np.allclose(M @ alg.Q @ M.T, np.eye(split.dim_m), rtol=0.0, atol=1e-15)
    if not h_basis:
        # with no isotropy the rows are L^-1 for the Cholesky factor Q = L L^T
        assert np.allclose(M, np.linalg.inv(np.linalg.cholesky(alg.Q)), rtol=0.0, atol=1e-15)
    worst = max(
        float(np.max(np.abs(M @ alg.Q @ (bracket(alg, M[a], M[b]) - B[a, b] @ M))))
        for a in range(split.dim_m)
        for b in range(split.dim_m)
    )
    assert worst <= 1e-14


def test_split_rejects_dependent_isotropy_basis():
    with pytest.raises(InputError):
        reductive_split(su2(), [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])


def test_m0_is_fixed_by_group_elements_monte_carlo():
    # on a supported split the fixed subspace m0 is all of m: exp(ad x) must fix
    # every complement vector for x in the isotropy, over 100 samples
    alg = direct_sum(su2(), abelian(1))
    split = reductive_split(alg, [[0.0, 0.0, 0.0, 1.0]])
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0) * split.h_basis[0]  # span of the isotropy basis
        g = expm(ad_direct(alg.structure, x))
        for v in split.m_basis:
            worst = max(worst, float(np.max(np.abs(g @ v - v))))
    assert worst < 1e-8
    # the package checks the infinitesimal action, which this group-level probe confirms
    assert split.fixed_complement_residual() <= KERNEL_CUTOFF
    split.require_fixed_complement()
def test_m0_fixed_under_ad_action_residual(su2_split):
    # the R factor as isotropy annihilates m = su(2): m0 = m, residual 0
    alg = direct_sum(su2(), abelian(1))
    split = reductive_split(alg, [[0.0, 0.0, 0.0, 1.0]])
    for x in split.h_basis:
        assert np.max(np.abs(split.ad_on_m(x))) < 1e-10
    assert split.fixed_complement_residual() == 0.0
    assert_split_complementary(split)
    assert_split_complementary(su2_split)
    assert su2_split.fixed_complement_residual() == 0.0
