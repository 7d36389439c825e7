import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from coho_euler.errors import InputError
from coho_euler.numerics import (
    Derivative4Interval,
    Derivative4Periodic,
    _solve_tridiagonal,
    cumulative_integral,
    seeded_uniform,
    simpson_weights_closed,
    simpson_weights_periodic,
)

cubic_coeffs = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=4, max_size=4
)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 33, 64, 127, 130])
def test_closed_simpson_weights_exact_for_cubics(n):
    dr = 1.0 / (n - 1)
    w = simpson_weights_closed(n, dr)
    x = np.linspace(0.0, 1.0, n)
    for k in range(4):
        assert abs(np.sum(w * x**k) - 1.0 / (k + 1)) < 1e-13


def test_periodic_simpson_integrates_constants_and_kills_modes():
    n, L = 64, 2.0
    w = simpson_weights_periodic(n, L / n)
    x = L * np.arange(n) / n
    assert abs(np.sum(w) - L) < 1e-13
    for k in (1, 2, 5):
        assert abs(np.sum(w * np.sin(2 * np.pi * k * x / L))) < 1e-13
        assert abs(np.sum(w * np.cos(2 * np.pi * k * x / L))) < 1e-13


@settings(max_examples=40, deadline=None)
@given(coeffs=cubic_coeffs, n=st.sampled_from([8, 9, 16, 33]))
def test_cumulative_integral_exact_for_cubics(coeffs, n):
    # every local rule interpolates with cubics, so cubics integrate exactly
    dr = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    got = cumulative_integral(poly(x), dr)
    want = anti(x) - anti(x[0])
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_cumulative_integral_needs_four_nodes():
    with pytest.raises(InputError):
        cumulative_integral(np.ones(3), 0.1)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=5, max_size=5))
def test_interval_derivative_exact_for_quartics(coeffs):
    # 5-point stencils (centred and one-sided) differentiate quartics exactly
    n = 17
    dr = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    poly = np.polynomial.Polynomial(coeffs)
    got = Derivative4Interval(n, dr)(poly(x))
    want = poly.deriv()(x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) < 1e-11 * scale


def test_periodic_derivative_fourth_order():
    errs = []
    for n in (32, 64, 128):
        x = np.arange(n) / n
        d = Derivative4Periodic(n, 1.0 / n)
        got = d(np.sin(2 * np.pi * x))
        errs.append(np.max(np.abs(got - 2 * np.pi * np.cos(2 * np.pi * x))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.9)


def test_periodic_derivative_applies_along_first_axis():
    n = 32
    x = np.arange(n) / n
    f = np.column_stack([np.sin(2 * np.pi * x), np.cos(4 * np.pi * x)])
    d = Derivative4Periodic(n, 1.0 / n)(f)
    assert d.shape == f.shape
    assert np.max(np.abs(d[:, 0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-2


@pytest.mark.parametrize("stencil", [Derivative4Interval, Derivative4Periodic])
@pytest.mark.parametrize("T", [1, 2, 5, 85])
def test_stencil_columns_do_not_depend_on_layout(stencil, T):
    # a column stacked node-first (n, T, d) or node-last (n, d, T) gets the
    # bits of that column differentiated alone
    n, d = 64, 3
    deriv = stencil(n, 0.37 / n)
    rng = np.random.default_rng(T)
    f = rng.standard_normal((n, T, d)) * 10.0 ** rng.integers(-3, 4, (n, T, d))
    node_first = deriv(f)
    node_last = deriv(np.ascontiguousarray(f.transpose(0, 2, 1)))
    for t in range(T):
        for a in range(d):
            alone = deriv(f[:, t, a].copy())
            assert np.array_equal(node_first[:, t, a], alone), (t, a)
            assert np.array_equal(node_last[:, a, t], alone), (t, a)


def test_interval_stencil_interior_keeps_its_operation_order():
    # the interior is the central difference evaluated as one expression,
    # then scaled by 1 / dr, bit for bit
    n, dr = 64, 0.37 / 64
    f = np.random.default_rng(5).standard_normal((n, 3, 85))
    got = Derivative4Interval(n, dr)(f)
    want = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / 12.0 * (1.0 / dr)
    assert np.array_equal(got[2:-2], want)


@pytest.mark.parametrize("n", [2, 3, 5, 33])
@pytest.mark.parametrize("seed", range(4))
def test_tridiagonal_solve_matches_lapack_gtsv(n, seed):
    # unit-normal bands are far from diagonally dominant: most rows take
    # dgtsv's interchange branch, including the first and the last
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(3, n))
    ab[1, 0] = 1e-3 * ab[2, 0]
    ab[1, -2] = 1e-3 * ab[2, -2]
    for b in (rng.normal(size=n), rng.normal(size=(n, 3, 3))):
        ref = solve_banded((1, 1), ab, b.reshape(n, -1)).reshape(b.shape)
        assert np.array_equal(_solve_tridiagonal(ab, b), ref)


# numpy's own generator is the arbiter of the pure-Python stream
def test_seeded_uniform_matches_numpy_first_draws():
    # against numpy's scalar uniform(-1, 1) calls, over 1001 seeds
    for seed in range(1001):
        rng = np.random.default_rng(seed)
        assert seeded_uniform(seed, 64) == [rng.uniform(-1, 1) for _ in range(64)], seed


@pytest.mark.parametrize("seed", [0, 20240811, 2**32, 2**64 + 5,
                                  pytest.param(int("7" * 4299), id="4299-digits")])
def test_seeded_uniform_matches_numpy_full_stream(seed):
    # two draws per component and mode at the config caps (16 components,
    # 1024 modes); 2**32 and 2**64 + 5 take 2 and 3 entropy words, and the
    # 4299-digit seed more than the 4-word pool
    ref = np.random.default_rng(seed).uniform(-1.0, 1.0, 32768)
    assert seeded_uniform(seed, 32768) == ref.tolist()


@pytest.mark.parametrize("width", [1, 3, 8])
@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_seeded_uniform_rows_match_numpy_array_draws(width, seed):
    # random_fourier reads one call's draws as rows: they equal a generator's
    # draws taken row by row
    rng = np.random.default_rng(seed)
    ref = np.array([rng.uniform(-1.0, 1.0, width) for _ in range(100)])
    got = np.array(seeded_uniform(seed, 100 * width)).reshape(100, width)
    assert np.array_equal(got, ref)
