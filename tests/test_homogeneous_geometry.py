import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coho_euler import (
    InputError,
    InvariantMetric,
    ReducedState,
    StructureError,
    UnsupportedConfigurationError,
    abelian,
    berger_circle,
    bracket,
    catalog,
    check_metric_invariance,
    direct_sum,
    divergence_residual,
    invariant_connection,
    orbit_volume,
    pointwise_speed,
    reductive_split,
    rhs,
    su2,
    warped_torus,
)
from coho_euler.coho_geometry import CIRCLE, OrbitSpace, TabulatedProfile
from coho_euler.config import build_problem
from coho_euler.diagnostics import GridGeometry, state_geometry
from coho_euler.homogeneous_geometry import check_grams, connection_tensors
from coho_euler.lie_core import LieAlgebraSpec

from bundled import LU_SINGULAR_SU2, NO_CHOLESKY_2
from oracles import koszul_oracle


def bracket_tensor(split):
    return split.bracket_on_m()


def test_metric_invariance_trivial_isotropy(su2_split):
    metric = InvariantMetric(su2_split, np.diag([1.0, 2.0, 3.0]))
    assert check_metric_invariance(metric).passed


def test_metric_invariance_rotation_invariant_gram():
    split = reductive_split(su2(), [[0.0, 0.0, 1.0]])
    assert check_metric_invariance(InvariantMetric(split, np.eye(2))).passed


def test_metric_invariance_fails_for_anisotropic_gram():
    split = reductive_split(su2(), [[0.0, 0.0, 1.0]])
    report = check_metric_invariance(InvariantMetric(split, np.diag([1.0, 2.0])))
    assert not report.passed


def test_gram_must_be_spd(su2_split):
    with pytest.raises(StructureError):
        InvariantMetric(su2_split, np.array([[1.0, 0.5, 0], [0.2, 1.0, 0], [0, 0, 1.0]]))
    with pytest.raises(InputError):
        InvariantMetric(su2_split, np.diag([1.0, -1.0, 1.0]))


def test_biinvariant_connection_is_half_bracket(su2_split):
    metric = InvariantMetric(su2_split, np.eye(3))
    for _ in range(5):
        rng = np.random.default_rng(42)
        x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert np.allclose(
            invariant_connection(metric, x, y),
            0.5 * bracket(su2(), x, y),
            atol=1e-14,
        )


def test_abelian_connection_vanishes():
    split = reductive_split(abelian(3), [])
    metric = InvariantMetric(split, np.diag([1.0, 4.0, 9.0]))
    assert np.allclose(invariant_connection(metric, [1, 2, 3], [4, 5, 6]), 0.0)


def test_connection_matches_koszul_oracle_anisotropic(su2_split):
    gram = np.diag([1.0, 2.0, 3.0])
    metric = InvariantMetric(su2_split, gram)
    B = bracket_tensor(su2_split)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    got = invariant_connection(metric, x, y)
    want = koszul_oracle(B, gram, x, y)
    assert np.allclose(got, want, atol=1e-14)
    # closed form (I3 - I1 + I2) / (2 I3) on the third slot
    assert np.allclose(got, [0.0, 0.0, (3.0 - 1.0 + 2.0) / 6.0])


def test_connection_bilinear(su2_split):
    gram = np.diag([1.0, 2.0, 3.0])
    metric = InvariantMetric(su2_split, gram)
    rng = np.random.default_rng(7)
    x, y, z = rng.uniform(-1, 1, (3, 3))
    a, b = 0.7, -1.3
    assert np.allclose(
        invariant_connection(metric, a * x + b * y, z),
        a * invariant_connection(metric, x, z) + b * invariant_connection(metric, y, z),
        atol=1e-12,
    )


def test_unsupported_isotropy_refused():
    split = reductive_split(su2(), [[0.0, 0.0, 1.0]])  # ad(e3) rotates all of m
    metric = InvariantMetric(split, np.eye(2))
    with pytest.raises(UnsupportedConfigurationError):
        invariant_connection(metric, [1.0, 0.0], [0.0, 1.0])


def koszul_per_node(split, gram):
    """Gamma on one orbit, one 2-d einsum and solve per Gram matrix."""
    B = split.bracket_on_m()
    G1 = np.einsum("abd,dc->abc", B, gram)
    K = G1 - np.einsum("bca->abc", G1) + np.einsum("cab->abc", G1)
    m = split.dim_m
    return 0.5 * np.linalg.solve(gram, K.reshape(m * m, m).T).T.reshape(m, m, m)


@pytest.mark.parametrize(
    "name", ["berger_circle", "t3_circle", "boundary_interval", "s3_t2_interval"]
)
def test_stacked_connection_equals_per_node(name):
    state, geom = build_problem(catalog.load_example(name))
    profile, n = geom.profile, len(state.v)
    grams = GridGeometry(profile, n).gram
    stacked = connection_tensors(profile.split, grams)
    assert stacked.shape == (n,) + (profile.dim,) * 3
    for j, g in enumerate(grams):
        assert np.array_equal(stacked[j], InvariantMetric(profile.split, g).connection_tensor())
        assert np.array_equal(stacked[j], koszul_per_node(profile.split, g))


# an array argument whose entries are not numbers, at each public entry point
# that coerces one: (the InputError's array name, call on su(2))
NOT_NUMBERS = {
    "structure": ("structure", lambda split: LieAlgebraSpec(3, "abc", np.eye(3))),
    "Q": ("Q", lambda split: LieAlgebraSpec(3, su2().structure, [[1.0, 0, 0], [0, 1.0], [0, 0, 1.0]])),
    "bracket": ("x", lambda split: bracket(su2(), ["a", "b", "c"], [0.0, 1.0, 0.0])),
    "h_basis": ("h_basis vector", lambda split: reductive_split(su2(), "ab")),
    "gram": ("gram", lambda split: InvariantMetric(split, "abc")),
    # strings that spell numbers are not numbers either
    "gram_str": ("gram", lambda split: InvariantMetric(split, [["1", "0", "0"], ["0", "2", "0"],
                                                               ["0", "0", "3"]])),
    # an int past the float range is no real number numpy can hold
    "gram_int_overflow": ("gram", lambda split: InvariantMetric(
        split, [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]])),
    "connection": ("Y", lambda split: invariant_connection(InvariantMetric(split, np.eye(3)),
                                                          [1.0, 0.0, 0.0], [1j, 0.0, 0.0])),
    "state_v": ("state coefficients v", lambda split: ReducedState(0.0, 0.0, ["a", "b", "c"])),
    "h_samples": ("h_samples", lambda split: divergence_residual(
        ReducedState(0.0, 0.0, np.ones(3)), InvariantMetric(split, np.eye(3)), h_samples=["a"])),
    "radius": ("r", lambda split: berger_circle(1.0, [[0.0]] * 3).gram_at("a")),
    "fourier_entry": ("Fourier entry", lambda split: warped_torus(1.0, [["a"]])),
    "tabulated_r": ("tabulated r", lambda split: TabulatedProfile(
        split, OrbitSpace(CIRCLE, 1.0), [str(r) for r in np.linspace(0.0, 1.0, 9)],
        np.tile(np.eye(3), (9, 1, 1)), np.zeros((9, 3, 3)))),
}


@pytest.mark.parametrize("case", NOT_NUMBERS)
def test_entries_that_are_not_numbers_raise_input_error(case, su2_split):
    name, call = NOT_NUMBERS[case]
    with pytest.raises(InputError, match=f"^{name} is not an array of real numbers$"):
        call(su2_split)


def test_stacked_connection_checks_every_matrix(su2_split):
    grams = np.stack([np.eye(3)] * 4)
    bad = grams.copy()
    bad[2, 0, 1] = 0.5
    with pytest.raises(StructureError):
        connection_tensors(su2_split, bad)
    bad = grams.copy()
    bad[3, 1, 1] = -1.0
    with pytest.raises(InputError):
        connection_tensors(su2_split, bad)
    split = reductive_split(su2(), [[0.0, 0.0, 1.0]])
    with pytest.raises(UnsupportedConfigurationError):
        connection_tensors(split, np.stack([np.eye(2)] * 4))


def test_trivially_acting_isotropy_supported():
    # su(2) + R with the R factor as isotropy: ad acts trivially on m = su(2)
    alg = direct_sum(su2(), abelian(1))
    split = reductive_split(alg, [[0.0, 0.0, 0.0, 1.0]])
    assert split.dim_m == 3 and split.fixed_complement_residual() == 0.0
    metric = InvariantMetric(split, np.eye(3))
    got = invariant_connection(metric, [1, 0, 0], [0, 1, 0])
    assert np.allclose(np.abs(got), [0.0, 0.0, 0.5], atol=1e-12)


def test_orbit_volume_examples(su2_split):
    split2 = reductive_split(abelian(2), [])
    assert orbit_volume(InvariantMetric(split2, np.eye(2))) == 1.0
    r = np.pi / 4
    vol = orbit_volume(InvariantMetric(split2, np.diag([np.cos(r) ** 2, np.sin(r) ** 2])))
    assert abs(vol - 0.5) < 1e-15
    split1 = reductive_split(abelian(1), [])
    assert orbit_volume(InvariantMetric(split1, np.array([[4.0]]))) == 2.0


def test_euler_arnold_steady_cases(su2_split):
    metric = InvariantMetric(su2_split, np.eye(3))
    assert np.allclose(rhs(ReducedState(0.0, 0.0, [1.0, 0.0, 0.0]), metric)[1], 0.0)
    split = reductive_split(abelian(3), [])
    flat = InvariantMetric(split, np.diag([2.0, 3.0, 4.0]))
    assert np.allclose(rhs(ReducedState(0.0, 0.0, [1.0, -2.0, 0.5]), flat)[1], 0.0)


def test_euler_arnold_matches_oracle_and_rigid_body(su2_split):
    gram = np.diag([1.0, 2.0, 3.0])
    metric = InvariantMetric(su2_split, gram)
    x = np.array([0.0, 1.0, 1.0])
    got = rhs(ReducedState(0.0, 0.0, x), metric)[1]
    want = -koszul_oracle(bracket_tensor(su2_split), gram, x, x)
    assert np.allclose(got, want, atol=1e-14)
    # classical pattern w1' = ((I2 - I3)/I1) w2 w3 (cyclic)
    classical = np.array(
        [
            (2.0 - 3.0) / 1.0 * x[1] * x[2],
            (3.0 - 1.0) / 2.0 * x[2] * x[0],
            (1.0 - 2.0) / 3.0 * x[0] * x[1],
        ]
    )
    assert np.allclose(got, classical, atol=1e-14)
    assert np.allclose(got, [-1.0, 0.0, 0.0])


def _random_spd(rng, n):
    a = rng.uniform(-1, 1, (n, n))
    return a @ a.T + n * np.eye(n)


@pytest.mark.parametrize("seed", range(5))
def test_connection_properties_random_metrics(su2_split, seed):
    rng = np.random.default_rng(seed)
    gram = _random_spd(rng, 3)
    metric = InvariantMetric(su2_split, gram)
    basis = np.eye(3)
    B = bracket_tensor(su2_split)
    for a in range(3):
        for b in range(3):
            nab = invariant_connection(metric, basis[a], basis[b])
            nba = invariant_connection(metric, basis[b], basis[a])
            # torsion-freeness against the projected bracket
            assert np.allclose(nab - nba, B[a, b], atol=1e-12)
            for cidx in range(3):
                nac = invariant_connection(metric, basis[a], basis[cidx])
                # metric compatibility: constant inner products of invariant fields
                resid = nab @ gram @ basis[cidx] + basis[b] @ gram @ nac
                assert abs(resid) < 1e-12
    x = rng.uniform(-1, 1, 3)
    # energy orthogonality: d/dt g(u,u) = 0 pointwise
    assert abs(rhs(ReducedState(0.0, 0.0, x), metric)[1] @ gram @ x) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_invariant_fields_divergence_free(su2_split, seed):
    rng = np.random.default_rng(100 + seed)
    metric = InvariantMetric(su2_split, _random_spd(rng, 3))
    x = rng.uniform(-1, 1, 3)
    state = ReducedState(0.0, 0.0, x)
    assert abs(divergence_residual(state, metric)) < 1e-10
    # the one orbit is node 0 of a one-node grid, whose derivative is zero
    assert pointwise_speed(state, metric, j=0) == pointwise_speed(state, metric)
    assert divergence_residual(state, metric, [2.0]) == divergence_residual(state, metric)


@pytest.mark.parametrize("algebra, gram", [(su2(), LU_SINGULAR_SU2), (abelian(2), NO_CHOLESKY_2)],
                         ids=["su2-lu-singular", "abelian2-no-cholesky"])
def test_gram_singular_to_rounding_raises_input_error(algebra, gram):
    # eigvalsh calls g positive; the geometry's factorizations do not, so every
    # entry point refuses g by name rather than with numpy's LinAlgError
    g = np.array(gram)
    assert np.linalg.eigvalsh(g)[0] > 0.0
    split = reductive_split(algebra, [])
    r = np.linspace(0.0, 1.0, 9)
    table = np.tile(g, (r.size, 1, 1))
    profile = TabulatedProfile(split, OrbitSpace(CIRCLE, 1.0), r, table, np.zeros_like(table))
    state = ReducedState(0.0, 0.0, np.ones((16, len(g))))
    for call in (lambda: state_geometry(state, profile), lambda: InvariantMetric(split, g),
                 lambda: connection_tensors(split, g[None])):
        with pytest.raises(InputError, match="not positive definite"):
            call()


@st.composite
def nearly_rank_one(draw):
    """u u^T plus a diagonal of 0 to 3e-16, for d from 2 to 4."""
    d = draw(st.integers(2, 4))
    u = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    diagonal = draw(st.lists(st.floats(0.0, 3e-16), min_size=d, max_size=d))
    return np.outer(u, u) + np.diag(diagonal)


@settings(max_examples=300, deadline=None)
@given(g=nearly_rank_one())
def test_check_grams_accepts_only_what_factors(g):
    # a matrix the test accepts is one every factorization of the geometry takes
    try:
        check_grams(g[None])
    except InputError:
        return
    np.linalg.cholesky(g)
    assert np.linalg.det(g) > 0.0
    np.linalg.solve(g, np.ones(len(g)))
