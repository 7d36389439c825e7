"""Quadrature weights and finite-difference stencils shared by the solvers.

Everything here is deterministic: weight vectors are built once, and all
reductions go through numpy's fixed-order pairwise summation, so identical
inputs give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# interior 4th-order central stencil and the matching one-sided closures
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _simpson_even(n_nodes: int, dr: float) -> np.ndarray:
    # classic 1,4,2,...,4,1 pattern; requires an even interval count
    w = np.zeros(n_nodes)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dr / 3.0)


def simpson_weights_closed(n_nodes: int, dr: float) -> np.ndarray:
    """Composite-Simpson weights on a closed uniform grid.

    For an odd interval count the last three intervals are handled with the
    3/8 rule so the global order stays four.
    """
    if n_nodes < 4:
        raise InputError(f"need at least 4 nodes for Simpson weights, got {n_nodes}")
    if (n_nodes - 1) % 2 == 0:
        return _simpson_even(n_nodes, dr)
    w = np.zeros(n_nodes)
    m = n_nodes - 3  # head nodes; head interval count n_nodes-4 is even
    if m >= 3:
        w[:m] += _simpson_even(m, dr)
    w[m - 1 :] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * dr / 8.0)
    return w


def simpson_weights_periodic(n_nodes: int, dr: float) -> np.ndarray:
    """Composite-Simpson weights over one period (node n == node 0)."""
    if n_nodes < 4 or n_nodes % 2:
        raise InputError(f"periodic Simpson needs an even node count >= 4, got {n_nodes}")
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    return w * (dr / 3.0)


def cumulative_integral(y: np.ndarray, dr: float) -> np.ndarray:
    """Running integral of samples on a uniform grid, zero at the first node.

    Even-index nodes chain classic Simpson pairs; odd-index nodes add one
    interval integrated by the local interpolating cubic, so every node is
    4th-order accurate with the last sub-interval at local order five.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 4:
        raise InputError(f"cumulative integration needs at least 4 nodes, got {n}")
    out = np.empty(n)
    out[0] = 0.0
    out[2::2] = np.cumsum((dr / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]))
    # first interval: cubic through nodes 0..3
    out[1] = dr * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    # interior odd nodes: centred cubic over [j-1, j]
    j = np.arange(3, n - 1, 2)
    out[j] = out[j - 1] + dr * (
        -y[j - 2] + 13.0 * y[j - 1] + 13.0 * y[j] - y[j + 1]
    ) / 24.0
    if (n - 1) % 2 and n - 1 >= 3:
        out[n - 1] = out[n - 2] + dr * (
            y[n - 4] - 5.0 * y[n - 3] + 19.0 * y[n - 2] + 9.0 * y[n - 1]
        ) / 24.0
    return out


class Derivative4Periodic:
    """4th-order central d/dr on a uniform periodic grid, applied along axis 0."""

    def __init__(self, n: int, dr: float):
        idx = np.arange(n)
        self._m2 = (idx - 2) % n
        self._m1 = (idx - 1) % n
        self._p1 = (idx + 1) % n
        self._p2 = (idx + 2) % n
        self._inv = 1.0 / (12.0 * dr)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return (
            f[self._m2] - 8.0 * f[self._m1] + 8.0 * f[self._p1] - f[self._p2]
        ) * self._inv


class Derivative4Interval:
    """4th-order d/dr on a closed uniform grid with one-sided closures."""

    def __init__(self, n: int, dr: float):
        if n < 5:
            raise InputError(f"need at least 5 nodes for the 4th-order stencil, got {n}")
        self.n = n
        self._inv = 1.0 / dr

    def __call__(self, f: np.ndarray) -> np.ndarray:
        out = np.empty_like(f)
        out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / 12.0
        out[0] = np.tensordot(_EDGE0, f[:5], axes=(0, 0))
        out[1] = np.tensordot(_EDGE1, f[:5], axes=(0, 0))
        out[-1] = -np.tensordot(_EDGE0, f[-5:][::-1], axes=(0, 0))
        out[-2] = -np.tensordot(_EDGE1, f[-5:][::-1], axes=(0, 0))
        return out * self._inv


def as_float_array(x, shape=None, name="array") -> np.ndarray:
    """Coerce to a float ndarray, rejecting non-finite entries."""
    a = np.asarray(x, dtype=float)
    if shape is not None and a.shape != tuple(shape):
        raise InputError(f"{name} has shape {a.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a
