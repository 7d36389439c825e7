import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from coho_euler import (
    DomainError,
    InputError,
    StructureError,
    UnsupportedConfigurationError,
    abelian,
    berger_circle,
    ReducedState,
    catalog,
    reductive_split,
    rhs,
    su2,
    validate_profile,
    warped_torus,
)
from coho_euler.coho_geometry import (
    BOUNDARY,
    CIRCLE,
    INTERVAL,
    SINGULAR,
    FD_STEP,
    MAX_MODES,
    FourierDiagonalProfile,
    OrbitSpace,
    RoundS3T2Profile,
    TabulatedProfile,
    _probe_grid,
    load_tabulated_csv,
    trace_identity_probes,
    write_tabulated_csv,
)
from coho_euler.diagnostics import GridGeometry
from coho_euler.numerics import cubic_spline

from bundled import initial_problem
from oracles import coordinate_divergence_fd, h0_by_ode


def tabulated_interval(fn, dfn, d=1, n=33, length=1.0, endpoints=(BOUNDARY, BOUNDARY)):
    split = reductive_split(su2() if d == 3 else abelian(d), [])
    space = OrbitSpace(INTERVAL, length, endpoints)
    r = np.linspace(0.0, length, n)
    gram = np.zeros((n, d, d))
    prime = np.zeros((n, d, d))
    for i in range(d):
        gram[:, i, i] = fn(r)
        prime[:, i, i] = dfn(r)
    return TabulatedProfile(split, space, r, gram, prime)


def test_orbit_space_validation():
    with pytest.raises(InputError):
        OrbitSpace("moebius", 1.0)
    with pytest.raises(InputError):
        OrbitSpace(CIRCLE, -1.0)
    with pytest.raises(InputError):
        OrbitSpace(CIRCLE, 1.0, (SINGULAR, SINGULAR))
    with pytest.raises(InputError):
        OrbitSpace(INTERVAL, 1.0)
    with pytest.raises(InputError):
        OrbitSpace(INTERVAL, 1.0, ("weird", BOUNDARY))


def test_round_s3_t2_metric_at(round_s3_t2):
    g, gp = round_s3_t2.gram_at(np.pi / 4), round_s3_t2.gram_prime_at(np.pi / 4)
    assert np.allclose(np.diag(g), [0.5, 0.5])
    assert np.allclose(np.diag(gp), [-1.0, 1.0])


def test_constant_warped_torus_metric(flat_torus):
    g, gp = flat_torus.gram_at(0.37), flat_torus.gram_prime_at(0.37)
    assert np.allclose(g, np.eye(2))
    assert np.allclose(gp, 0.0)


def test_warped_torus_chain_rule_at_zero():
    wt = warped_torus(1.0, [[0.0, 0.0, 1.0]])  # f^2 = exp(sin 2 pi r)
    g, gp = wt.gram_at(0.0), wt.gram_prime_at(0.0)
    assert abs(g[0, 0] - 1.0) < 1e-15
    assert abs(gp[0, 0] - 2.0 * np.pi) < 1e-12


def test_fourier_entry_past_the_mode_cap_is_refused():
    # the library caps an entry as the config schema does: at most MAX_MODES
    # modes, so no gram_at call builds phase arrays past them
    most = 2 * MAX_MODES + 1
    assert most == 2049
    assert warped_torus(1.0, [[0.0] * most]).gram_at(0.3).shape == (1, 1)
    with pytest.raises(InputError, match="^Fourier entry 0 has 100001 coefficients, "
                                         "more than 2049 \\(1024 modes\\)$"):
        warped_torus(1.0, [[0.0] * 100001])
    with pytest.raises(InputError, match="^Fourier entry 2 has 2051 coefficients"):
        berger_circle(1.0, [[0.0], [0.0], [0.0] * (most + 2)])


def test_circle_coordinates_wrap(flat_torus):
    wt = warped_torus(1.0, [[0.1, 0.3, -0.2]])
    g1, gp1 = wt.gram_at(0.25), wt.gram_prime_at(0.25)
    g2, gp2 = wt.gram_at(1.25), wt.gram_prime_at(1.25)
    assert np.allclose(g1, g2) and np.allclose(gp1, gp2)


def test_domain_errors_at_singular_endpoints(round_s3_t2):
    for r in (0.0, -0.1, np.pi / 2, np.pi / 2 + 0.1):
        for sampler in (round_s3_t2.gram_at, round_s3_t2.gram_prime_at):
            with pytest.raises(DomainError):
                sampler(r)


SAMPLED_PROFILES = ["round_s3_t2", "warped_torus", "berger_circle", INTERVAL, CIRCLE]


def sampled_profile(name, coupled_tabulated):
    if name == "round_s3_t2":
        return RoundS3T2Profile()
    if name == "warped_torus":
        return warped_torus(1.0, [[0.0, 0.1, 0.05], [0.2, -0.1, 0.03]])
    if name == "berger_circle":
        return berger_circle(1.0, [[0.0, 0.04, 0.0], [0.26, -0.03, 0.02], [0.47, 0.03, -0.02]])
    return coupled_tabulated(name)


@pytest.mark.parametrize("name", SAMPLED_PROFILES)
def test_sampler_matches_scalar_accessors_bitwise(name, coupled_tabulated):
    prof = sampled_profile(name, coupled_tabulated)
    probes = trace_identity_probes(prof, 97)
    if prof.orbit_space.kind == CIRCLE:
        probes = np.concatenate([probes, probes - prof.length, probes + 3 * prof.length])
    reduced = prof.reduce(probes)
    for batched, scalar in zip(prof._grams(reduced), (prof.gram_at, prof.gram_prime_at)):
        assert batched.shape == (probes.size, prof.dim, prof.dim)
        assert np.array_equal(batched, np.array([scalar(r) for r in probes]))
        assert np.array_equal(batched, scalar(probes))


@pytest.mark.parametrize("name", SAMPLED_PROFILES)
def test_grid_geometry_matches_profile_accessors_bitwise(name, coupled_tabulated):
    prof = sampled_profile(name, coupled_tabulated)
    geom = GridGeometry(prof, 16)
    pairs = ((geom.gram, prof.gram_at), (geom.gram_prime, prof.gram_prime_at),
             (geom.S, prof.shape_operator_at), (geom.vol, prof.volume_at))
    for built, accessor in pairs:
        assert np.array_equal(built, accessor(geom.r))


def test_sampler_raises_at_or_beyond_singular_endpoints(round_s3_t2, coupled_tabulated):
    inside = 0.5
    for bad in (0.0, -0.1, np.pi / 2, np.pi / 2 + 0.1, np.nan):
        for sampler in (round_s3_t2.gram_at, round_s3_t2.gram_prime_at):
            with pytest.raises(DomainError):
                sampler(np.array([inside, bad]))
    prof = coupled_tabulated(INTERVAL)
    prof.gram_at(np.array([0.0, 1.0]))  # boundary endpoints are in the domain
    with pytest.raises(DomainError):
        prof.gram_at(np.array([0.5, 1.0 + 1e-9]))


def test_boundary_endpoints_are_in_domain():
    prof = tabulated_interval(lambda r: 1.0 + r, lambda r: np.ones_like(r))
    prof.gram_at(0.0), prof.gram_prime_at(0.0)
    prof.gram_at(1.0), prof.gram_prime_at(1.0)
    with pytest.raises(DomainError):
        prof.gram_at(1.0 + 1e-9), prof.gram_prime_at(1.0 + 1e-9)


def test_shape_operator_examples(round_s3_t2, flat_torus):
    assert np.allclose(round_s3_t2.shape_operator_at(np.pi / 4), np.diag([1.0, -1.0]))
    assert np.allclose(flat_torus.shape_operator_at(0.3), 0.0)
    exp_prof = tabulated_interval(lambda r: np.exp(2 * r), lambda r: 2 * np.exp(2 * r))
    # evaluated at a sample node the spline is exact
    assert abs(exp_prof.shape_operator_at(0.5)[0, 0] + 1.0) < 1e-12


def test_mean_curvature_examples(round_s3_t2, flat_torus):
    assert abs(round_s3_t2.mean_curvature_at(np.pi / 4)) < 1e-14
    assert abs(flat_torus.mean_curvature_at(0.123)) < 1e-15
    want = np.tan(np.pi / 6) - 1.0 / np.tan(np.pi / 6)
    assert abs(round_s3_t2.mean_curvature_at(np.pi / 6) - want) < 1e-14
    assert abs(want + 2.0 / np.sqrt(3.0)) < 1e-15


def test_shape_operator_gram_symmetry_random_probes():
    rng = np.random.default_rng(2024)
    profiles = [
        warped_torus(1.0, [[0.0, 0.2, -0.1], [0.3, 0.1, 0.05]]),
        berger_circle(2.0, [[0.0, 0.1, 0.0], [0.2, -0.05, 0.02], [0.4, 0.03, -0.02]]),
    ]
    worst = 0.0
    for prof in profiles:
        for _ in range(400):
            r = rng.uniform(0, prof.length)
            g = prof.gram_at(r)
            gs = g @ prof.shape_operator_at(r)
            worst = max(worst, float(np.max(np.abs(gs - gs.T))))
    prof = tabulated_interval(lambda r: 2.0 + np.sin(r), lambda r: np.cos(r), d=3)
    for _ in range(200):
        r = rng.uniform(0, 1)
        g = prof.gram_at(r)
        gs = g @ prof.shape_operator_at(r)
        worst = max(worst, float(np.max(np.abs(gs - gs.T))))
    assert worst < 1e-12


def test_trace_identity_on_builtin_families(round_s3_t2):
    eps = 1e-5
    profiles = [
        round_s3_t2,
        warped_torus(1.0, [[0.0, 0.2, -0.1], [0.3, 0.1, 0.05]]),
        berger_circle(1.0, [[0.0, 0.04, 0.0], [0.26, -0.03, 0.02], [0.47, 0.03, -0.02]]),
    ]
    for prof in profiles:
        worst = 0.0
        for r in trace_identity_probes(prof):
            lnv = np.log(prof.volume_at(r + eps)) - np.log(prof.volume_at(r - eps))
            worst = max(worst, abs(prof.mean_curvature_at(r) + lnv / (2 * eps)))
        assert worst < 1e-6, type(prof).__name__


def test_h0_constant_profile_is_one(flat_torus):
    grid = np.linspace(0, 1, 64, endpoint=False)
    assert np.allclose(flat_torus.h0_at(grid), 1.0)


def test_h0_closed_form_single_fiber():
    wt = warped_torus(1.0, [[0.0, 0.0, 1.0]])  # vol = exp(sin(2 pi r) / 2)
    grid = np.linspace(0, 1, 32, endpoint=False)
    want = np.exp(-0.5 * np.sin(2 * np.pi * grid))
    assert np.allclose(wt.h0_at(grid), want, rtol=1e-14)


def test_h0_normalised_at_midpoint():
    wt = warped_torus(2.0, [[0.1, 0.3, -0.2], [0.0, -0.1, 0.25]])
    assert abs(wt.h0_at(1.0) - 1.0) < 1e-15


def test_h0_rejected_on_interval(round_s3_t2):
    with pytest.raises(UnsupportedConfigurationError):
        round_s3_t2.h0_at([0.3])


def test_h0_matches_ode_integration():
    # dual route: volume-ratio closed form vs direct integration of h' = H h
    wt = warped_torus(1.0, [[0.0, 0.3, -0.15], [0.1, 0.1, 0.2]])
    n = 64
    grid = np.arange(n) / n
    closed = wt.h0_at(grid)
    ode = h0_by_ode(wt, n)
    assert np.max(np.abs(ode - closed) / closed) < 1e-8


def test_coordinate_divergence_oracle_fixes_convention():
    # div(h0 dr) = (vol h0)'/vol must vanish: checks the no-half convention
    wt = warped_torus(1.0, [[0.0, 0.4, -0.2]])
    for r in np.linspace(0.05, 0.95, 7):
        div = coordinate_divergence_fd(wt, wt.h0_at, r)
        assert abs(div) < 1e-8


BERGER = [[0.0, 0.04, 0.0], [0.26, -0.03, 0.02], [0.47, 0.03, -0.02]]


def test_validate_profile_passes_builtins(round_s3_t2, flat_torus):
    assert validate_profile(round_s3_t2).passed
    assert validate_profile(flat_torus).passed
    assert validate_profile(berger_circle(1.0, BERGER)).passed


class _Stretched(FourierDiagonalProfile):
    """A Fourier family sampled with a period of L (1 + 1e-6): not periodic on [0, L]."""

    def _phases(self, r):
        return super()._phases(r / (1.0 + 1e-6))


@pytest.mark.parametrize("shift", [0.0, 15.0])
def test_periodicity_reads_the_same_in_any_units(shift):
    # every log-entry raised by 15 scales g by e^15: the same flow in other
    # units, periodic up to rounding at g's scale; a wrong period still fails
    coefficients = [[a0 + shift, *rest] for a0, *rest in BERGER]
    profile = berger_circle(1.0, coefficients)
    assert validate_profile(profile)["periodicity"].passed
    assert not validate_profile(_Stretched(profile.split, 1.0, coefficients))["periodicity"].passed


def test_overflowing_gram_is_refused_by_name():
    # e^710 overflows a float: positivity names the radius, without a numpy
    # warning (a RuntimeWarning from coho_euler fails this suite)
    report = validate_profile(berger_circle(1.0, [[710.0, 0.04, 0.0], *BERGER[1:]]))
    assert not report.passed
    assert report["gram_positive_on_probe_grid"].line().endswith("g_r is not finite at r = 0")


def test_validate_profile_flags_missing_collapse():
    # constant fibre metric declared singular: volume cannot collapse
    prof = tabulated_interval(
        lambda r: np.ones_like(r),
        lambda r: np.zeros_like(r),
        endpoints=(SINGULAR, BOUNDARY),
    )
    report = validate_profile(prof)
    assert not report.passed
    assert not report["volume_collapse_at_r=0"].passed


def test_validate_profile_flags_first_order_collapse():
    # g ~ r collapses, but only to first order: wrong parity
    prof = tabulated_interval(
        lambda r: r + 1e-12,
        lambda r: np.ones_like(r),
        endpoints=(SINGULAR, BOUNDARY),
        n=65,
    )
    report = validate_profile(prof)
    assert not report["second_order_collapse_at_r=0"].passed


def test_velocity_on_interval_has_no_horizontal_part(round_s3_t2):
    # the horizontal velocity c h0 does not exist on an interval: h0 is refused
    # there, and so is a state with a nonzero c; the velocity is v alone
    with pytest.raises(UnsupportedConfigurationError):
        round_s3_t2.h0_at(0.7)
    v = np.tile([1.0, 2.0], (8, 1))
    with pytest.raises(InputError, match="only a circle state"):
        rhs(ReducedState(0.0, 5.0, v), round_s3_t2)
    assert np.allclose(ReducedState(0.0, 0.0, v).v, [1.0, 2.0])


def test_horizontal_velocity_on_constant_profile_is_c(flat_torus):
    # h = c h0(r), and h0 = 1 on a constant profile
    assert abs(2.0 * flat_torus.h0_at(0.3) - 2.0) < 1e-15


def test_velocity_speed_contraction(round_s3_t2):
    # a purely vertical velocity (c = 0) has speed^2 = g_r(v, v)
    a, b, r = 1.5, -0.7, 0.9
    v = np.array([a, b])
    speed2 = v @ round_s3_t2.gram_at(r) @ v
    want = a * a * np.cos(r) ** 2 + b * b * np.sin(r) ** 2
    assert abs(speed2 - want) < 1e-14


def test_tabulated_csv_round_trip(tmp_path):
    r = np.linspace(0, 1, 9)
    gram = np.zeros((9, 2, 2))
    prime = np.zeros((9, 2, 2))
    gram[:, 0, 0] = 1 + r
    gram[:, 1, 1] = 2 - r
    gram[:, 0, 1] = gram[:, 1, 0] = 0.1 * r
    prime[:, 0, 0] = 1.0
    prime[:, 1, 1] = -1.0
    prime[:, 0, 1] = prime[:, 1, 0] = 0.1
    path = tmp_path / "prof.csv"
    write_tabulated_csv(path, r, gram, prime)
    r2, g2, p2 = load_tabulated_csv(path)
    assert np.array_equal(r, r2)
    assert np.array_equal(gram, g2)
    assert np.array_equal(prime, p2)


def test_tabulated_csv_header_mandatory(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0,0.0\n0.5,1.0,0.0\n")
    with pytest.raises(InputError):
        load_tabulated_csv(path)


def test_tabulated_csv_bad_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,g_11,gp_11,extra\n0,1,0,9\n0.5,1,0,9\n1,1,0,9\n1.5,1,0,9\n")
    with pytest.raises(InputError):
        load_tabulated_csv(path)


def test_tabulated_periodic_mismatch_rejected():
    split = reductive_split(abelian(1), [])
    space = OrbitSpace(CIRCLE, 1.0)
    r = np.linspace(0, 1, 9)
    gram = (1.0 + r).reshape(-1, 1, 1)  # endpoints disagree
    prime = np.ones_like(gram)
    with pytest.raises(StructureError):
        TabulatedProfile(split, space, r, gram, prime)


def spline_probes(x, seed=0):
    """Knots, both ends, the 512 validation probes of either kind, and random points."""
    L = x[-1] - x[0]
    grid = np.arange(512) / 512
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [x, [x[0], x[-1]], x[0] + L * grid, x[0] + L * (grid + 0.5 / 512),
         rng.uniform(x[0], x[-1], 256)]
    )


def assert_spline_matches_scipy(x, y, periodic, probes=None):
    ref = CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot", axis=0)
    ours = cubic_spline(x, y, periodic)
    probes = spline_probes(x) if probes is None else probes
    assert np.array_equal(ours.c, ref.c)
    assert np.array_equal(ours(probes), ref(probes))
    assert np.array_equal(ours.derivative().c, ref.derivative().c)
    assert np.array_equal(ours.derivative()(probes), ref.derivative()(probes))


def test_spline_matches_scipy_on_bundled_csv():
    csv = catalog.example_path("boundary_interval").parent / "boundary_interval_profile.csv"
    r, gram, prime = load_tabulated_csv(csv)
    space = OrbitSpace(INTERVAL, 1.0, (BOUNDARY, BOUNDARY))
    prof = TabulatedProfile(reductive_split(su2(), []), space, r, gram, prime)
    rs = trace_identity_probes(prof)
    probes = np.concatenate([spline_probes(r), _probe_grid(prof), rs - FD_STEP, rs + FD_STEP])
    # the profile's one spline over the stacked tables: each half is scipy's
    # spline of that table
    values, slopes = prof._spline(probes), prof._spline.derivative()(probes)
    for half, y in enumerate((gram, prime)):
        assert_spline_matches_scipy(r, y, False, probes)
        ref = CubicSpline(r, y, axis=0)
        assert np.array_equal(prof._spline.c[:, :, half], ref.c)
        assert np.array_equal(values[:, half], ref(probes))
        assert np.array_equal(slopes[:, half], ref.derivative()(probes))


@pytest.mark.parametrize("seed", range(6))
def test_spline_matches_scipy_on_non_uniform_knots(seed):
    rng = np.random.default_rng(seed)
    n = 33
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    x -= x[0]
    # dx0 + dx1 < dx2 makes the eliminated second pivot dx0 + dx1 smaller than
    # the entry dx2 below it, so dgtsv swaps rows 1 and 2
    x[3:] += x[1] + x[2]
    assert x[1] - x[0] + x[2] - x[1] < x[3] - x[2]
    y = rng.normal(size=(n, 3, 3))
    assert_spline_matches_scipy(x, y, periodic=False)
    y[-1] = y[0]
    assert_spline_matches_scipy(x, y, periodic=True)


@pytest.mark.parametrize("periodic", [False, True])
def test_spline_matches_scipy_on_four_samples(periodic):
    x = np.array([0.0, 0.3, 0.45, 1.0])
    y = np.random.default_rng(3).normal(size=(4, 2, 2))
    if periodic:
        y[-1] = y[0]
    assert_spline_matches_scipy(x, y, periodic)


def test_spline_matches_scipy_on_tabulated_circle(coupled_tabulated):
    prof = coupled_tabulated(CIRCLE)
    r = prof.r_samples
    # periodic splines wrap: points outside [0, L] land on the same values
    probes = np.concatenate([spline_probes(r), [-0.25, 1.25, 3.0]])
    values = prof._spline(probes)
    for half in range(2):
        # the constant terms are the samples but the last, which equals the first
        c = prof._spline.c[:, :, half]
        y = np.concatenate([c[-1], c[-1][:1]])
        assert_spline_matches_scipy(r, y, True, probes)
        ref = CubicSpline(r, y, bc_type="periodic", axis=0)
        assert np.array_equal(c, ref.c)
        assert np.array_equal(values[:, half], ref(probes))
    ends = prof._grams(np.array([0.0, prof.length]))[0]
    assert np.array_equal(ends[0], ends[1])


GRID_EXAMPLES = [n for n in catalog.example_names() if n != "su2_rigid_body"]


@pytest.mark.parametrize("name", GRID_EXAMPLES)
def test_volume_is_the_metric_volume(name):
    # volume_at forms no S, yet reads the same bits as metric_at's volume at
    # every radius validation samples a volume at
    prof = initial_problem(name)[2]
    rs = trace_identity_probes(prof)
    for radii in (_probe_grid(prof), rs - FD_STEP, rs + FD_STEP):
        assert np.array_equal(prof.volume_at(radii), prof.metric_at(radii)[3])


def test_tabulated_non_finite_samples_rejected():
    split = reductive_split(abelian(1), [])
    space = OrbitSpace(INTERVAL, 1.0, (BOUNDARY, BOUNDARY))
    r = np.linspace(0, 1, 9)
    gram = (1.0 + r).reshape(-1, 1, 1)
    prime = np.ones_like(gram)

    def poisoned(a, value):
        a = a.copy()
        a[4] = value
        return a

    for name, args in (
        ("r", (poisoned(r, np.nan), gram, prime)),
        ("gram", (r, poisoned(gram, np.inf), prime)),
        ("gram'", (r, gram, poisoned(prime, -np.inf))),
    ):
        with pytest.raises(InputError, match=f"^tabulated {name} contains non-finite entries$"):
            TabulatedProfile(split, space, *args)


def test_tabulated_derivative_consistency_check():
    # supplied derivative contradicts the metric table: flagged, not hidden
    prof = tabulated_interval(lambda r: 1.0 + r * r, lambda r: np.full_like(r, 7.0))
    report = validate_profile(prof)
    assert not report["tabulated_derivative_consistency"].passed
