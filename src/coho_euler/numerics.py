"""Quadrature, stencils, the cubic spline, seeded draws, the one reading of caller
numbers and the one CSV number format.

Everything here is deterministic: weight vectors are built once, and all
reductions go through numpy's fixed-order pairwise summation, so identical
inputs give bit-identical results.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .errors import InputError

# the one-sided closures of the 4th-order central stencil at the first two nodes,
# and their mirror images at the last two, which read the nodes backwards
_EDGE0 = [w / 12.0 for w in (-25.0, 48.0, -36.0, 16.0, -3.0)]
_EDGE1 = [w / 12.0 for w in (-3.0, -10.0, 18.0, -6.0, 1.0)]
_TAIL0 = [-w for w in _EDGE0]
_TAIL1 = [-w for w in _EDGE1]
CSV_BLOCK_ROWS = 512


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
    """4th-order central d/dr on a uniform periodic grid, applied along axis 0.

    Each value is computed elementwise from its own column, so a column's
    bits do not depend on the layout or the number of columns beside it.
    """

    def __init__(self, n: int, dr: float):
        self.n = n
        self._inv = 1.0 / (12.0 * dr)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        # node j of the padded copy is node j - 2 of f, wrapped
        g = np.concatenate((f[-2:], f, f[:2]))
        n = self.n
        out = np.multiply(g[1 : n + 1], 8.0)
        np.subtract(g[:n], out, out=out)
        out += 8.0 * g[3 : n + 3]
        out -= g[4:]
        out *= self._inv
        return out


class Derivative4Interval:
    """4th-order d/dr on a closed uniform grid with one-sided closures, along axis 0.

    Each value is computed elementwise from its own column, so a column's
    bits do not depend on the layout or the number of columns beside it.
    """

    def __init__(self, n: int, dr: float):
        if n < 5:
            raise InputError(f"need at least 5 nodes for the 4th-order stencil, got {n}")
        self.n = n
        self._inv = 1.0 / dr

    def __call__(self, f: np.ndarray) -> np.ndarray:
        out = np.empty_like(f)
        # (f[:-4] - 8 f[1:-3] + 8 f[3:-1] - f[4:]) / 12, operation for operation
        mid = out[2:-2]
        np.multiply(f[1:-3], 8.0, out=mid)
        np.subtract(f[:-4], mid, out=mid)
        mid += 8.0 * f[3:-1]
        mid -= f[4:]
        mid /= 12.0
        # the closures, summed term by term
        back = f[::-1]
        for row, w, g in ((0, _EDGE0, f), (1, _EDGE1, f), (-1, _TAIL0, back), (-2, _TAIL1, back)):
            out[row] = w[0] * g[0] + w[1] * g[1] + w[2] * g[2] + w[3] * g[3] + w[4] * g[4]
        out *= self._inv
        return out


def _solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system given in (1, 1) banded form, row by row.

    ``ab[0, 1:]``, ``ab[1]`` and ``ab[2, :-1]`` are the super-, main and
    sub-diagonals; ``b`` holds one right-hand side per trailing index.
    Elimination and back substitution follow LAPACK ``dgtsv`` operation for
    operation, including its swap of rows i and i+1 when |d_i| < |dl_i|, so
    the result equals ``scipy.linalg.solve_banded((1, 1), ab, b)`` bit for
    bit. Not-a-knot end rows are not diagonally dominant on non-uniform
    knots, so the swap does occur.
    """
    du = ab[0, 1:].tolist()
    d = ab[1].tolist()
    dl = ab[2, :-1].tolist()
    du2 = [0.0] * len(d)  # second superdiagonal, filled by row swaps
    x = np.array(b, dtype=float)
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            x[i + 1] = x[i + 1] - fact * x[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
            temp = x[i].copy()
            x[i] = x[i + 1]
            x[i + 1] = temp - fact * x[i + 1]
    x[n - 1] = x[n - 1] / d[n - 1]
    x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x


class PiecewisePolynomial:
    """Polynomial pieces c[:, i] on [x_i, x_{i+1}], highest power first.

    Evaluates as ``scipy.interpolate.PPoly`` does, term by term in the same
    order, so equal coefficients give equal values bit for bit. Periodic
    pieces map a point into [x_0, x_N) first; otherwise the end pieces
    extend beyond the knots.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray, periodic: bool):
        self.x = x
        self.c = c
        self.periodic = periodic

    def __call__(self, r) -> np.ndarray:
        """Values at a 1-d array of points, stacked along axis 0."""
        x = self.x
        r = np.asarray(r, dtype=float)
        if self.periodic:
            r = x[0] + (r - x[0]) % (x[-1] - x[0])
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        s = (r - x[i]).reshape((r.size,) + (1,) * (self.c.ndim - 2))
        out = 0.0 + self.c[-1][i]  # PPoly's sum starts at 0.0, so -0.0 reads +0.0
        z = s
        for row in self.c[-2::-1]:
            out = out + row[i] * z
            z = z * s
        return out

    def derivative(self) -> "PiecewisePolynomial":
        k = self.c.shape[0] - 1
        factor = np.arange(k, 0, -1, dtype=float).reshape((k,) + (1,) * (self.c.ndim - 1))
        return PiecewisePolynomial(self.x, self.c[:-1] * factor, self.periodic)


def cubic_spline(x, y, periodic: bool) -> PiecewisePolynomial:
    """C2 cubic spline through (x, y) along axis 0, not-a-knot or periodic.

    A numpy transcription of ``scipy.interpolate.CubicSpline`` (scipy 1.17,
    n >= 4 knots) kept operation for operation, so its coefficients, values
    and derivative values equal scipy's bit for bit. The slopes solve the
    same tridiagonal system; periodic splines solve the condensed (n-2)
    system for two right-hand sides and close it with the equation for
    s[n-2]. The coefficients are built as ``CubicHermiteSpline`` builds them.
    Periodic samples must already satisfy y[-1] == y[0].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr

    A = np.zeros((3, n))  # banded: super-, main and sub-diagonal rows
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if periodic:
        A = A[:, :-1]
        A[1, 0] = 2 * (dx[-1] + dx[0])
        A[0, 1] = dx[-1]
        b = b[:-1]
        b[0] = 3 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
        b[-1] = 3 * (dxr[-1] * slope[-2] + dxr[-2] * slope[-1])
        Ac = A[:, :-1]
        s1 = _solve_tridiagonal(Ac, b[:-1])
        b2 = np.zeros_like(b[:-1])
        b2[0] = -dx[0]
        b2[-1] = -dx[-3]
        s2 = _solve_tridiagonal(Ac, b2)
        s_m1 = (b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1]) / (
            2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]
        )
        s = np.empty_like(y)
        s[:-2] = s1 + s_m1 * s2
        s[-2] = s_m1
        s[-1] = s[0]
    else:
        A[1, 0] = dx[1]
        A[0, 1] = x[2] - x[0]
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        A[1, -1] = dx[-2]
        A[-1, -2] = x[-1] - x[-3]
        d = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = _solve_tridiagonal(A, b)

    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return PiecewisePolynomial(x, c, periodic)


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def seeded_uniform(seed: int, count: int) -> list[float]:
    """The first ``count`` draws of numpy's ``default_rng(seed).uniform(-1.0, 1.0)``.

    A pure-Python transcription of numpy's ``SeedSequence`` (4-word pool,
    ``generate_state(4, uint64)``) and its PCG64 generator (128-bit LCG,
    XSL-RR output), so the draws equal numpy's bit for bit without loading
    numpy's random module and the hashing modules it imports. ``seed`` is a
    non-negative integer.
    """
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = (hash_a * 0x931E8875) & _M32
        value = (value * hash_a) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))

    hash_b, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = (hash_b * 0x58F38DED) & _M32
        value = (value * hash_b) & _M32
        state.append(value ^ (value >> 16))
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))

    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    x = ((inc + (s0 << 64 | s1)) * mult + inc) & _M128  # srandom_r: step, add, step
    out = []
    for _ in range(count):
        x = (x * mult + inc) & _M128
        rot, xsl = x >> 122, (x >> 64 ^ x) & _M64
        word = (xsl >> rot | xsl << (64 - rot)) & _M64
        out.append(-1.0 + 2.0 * ((word >> 11) * 2**-53))
    return out


def as_float_array(x, shape=None, name="array", finite=True) -> np.ndarray:
    """Coerce to a float ndarray, rejecting non-numeric and, unless not
    ``finite``, non-finite entries; a real scalar is the 0-d case.

    A string is not a number, even one that spells a number, and a complex
    array is not real: numpy would drop its imaginary part with a warning.
    """
    try:
        raw = np.asarray(x)
        if raw.dtype.kind in "SUc" or raw.dtype == object and any(
                isinstance(e, (str, bytes)) for e in raw.flat):
            raise TypeError("string or complex entries")
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} is not an array of real numbers") from exc
    if shape is not None and a.shape != tuple(shape):
        raise InputError(f"{name} has shape {a.shape}, expected {tuple(shape)}")
    if finite and not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


def as_real(x, name, positive=False) -> float:
    """A finite real scalar, > 0 with ``positive``: the 0-d case of :func:`as_float_array`."""
    try:
        value = float(as_float_array(x, (), name))
        if value > 0 or not positive:
            return value
    except InputError:
        pass  # refused below, in a scalar's words
    raise InputError(f"{name} must be a {'positive' if positive else 'finite'} real, got {x!r}")


def as_count(x, name, low=None, high=None) -> int:
    """A count or index: an int (not a bool) that an int64 holds, within ``low`` and
    ``high`` where given."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not -2**63 <= int(x) < 2**63:
        raise InputError(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise InputError(f"{name} must be >= {low}, got {x}")
    if high is not None and x > high:
        raise InputError(f"{name} must be at most {high}, got {x}")
    return int(x)


def as_list(x, name) -> list:
    """The entries of a list argument, such as a list of vectors, as a list."""
    try:
        return list(x)
    except TypeError:
        raise InputError(f"{name} must be a list, got {x!r}") from None


def write_csv_rows(fh, columns):
    """One "%.17g" line per row of the columns, formatted in blocks.

    ``columns`` have equal lengths, each (rows,) or (rows, k); a block of at
    most CSV_BLOCK_ROWS rows is stacked and formatted at a time.
    """
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([col[lo : lo + CSV_BLOCK_ROWS] for col in columns]).tolist()
        template = ",".join(["%.17g"] * len(block[0])) + "\n"
        fh.write("".join([template % tuple(row) for row in block]))


def write_csv(path, header, columns):
    """A CSV file of a header line and the rows of the columns."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        write_csv_rows(fh, columns)
