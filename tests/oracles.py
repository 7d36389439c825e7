"""Independent oracles, brute-force or closed-form; nothing here imports solver internals."""

import numpy as np
from scipy.special import ellipj, ellipkinc


def bracket_direct(C, x, y):
    """Direct triple-loop summation of the structure constants."""
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * C[i][j][k]
    return out


def koszul_oracle(bracket_coeffs, gram, X, Y):
    """Invariant-field connection by evaluating the Koszul formula per basis Z.

    ``bracket_coeffs[a, b]`` holds the coefficient vector of the (projected)
    bracket of basis vectors a and b.
    """
    m = gram.shape[0]

    def ip(u, w):
        return float(u @ gram @ w)

    def br(u, w):
        out = np.zeros(m)
        for a in range(m):
            for b in range(m):
                out += u[a] * w[b] * bracket_coeffs[a, b]
        return out

    rhs = np.zeros(m)
    for cidx in range(m):
        Z = np.zeros(m)
        Z[cidx] = 1.0
        rhs[cidx] = 0.5 * (ip(br(X, Y), Z) - ip(br(Y, Z), X) + ip(br(Z, X), Y))
    return np.linalg.solve(gram, rhs)


def joint_ad_kernel(alg, h_basis, m_basis, tol=1e-10):
    """Fixed subspace by brute force: eigen-decompose the stacked Gram matrix."""
    rows = []
    for x in h_basis:
        adx = alg.ad(np.asarray(x, float))
        for mb in np.asarray(m_basis, float):
            w = adx @ mb
            # coefficients of the orthogonal projection onto span(m_basis)
            coeffs = np.linalg.lstsq(np.asarray(m_basis, float).T, w, rcond=None)[0]
            rows.append(coeffs)
    if not rows:
        return np.eye(len(m_basis))
    A = np.array(rows).reshape(len(h_basis), len(m_basis), len(m_basis))
    A = np.concatenate([a.T for a in A], axis=0)  # maps m-coefficients forward
    evals, evecs = np.linalg.eigh(A.T @ A)
    return evecs[:, evals < tol**2 * max(1.0, evals[-1])].T


def euler_top_elliptic(inertia, omega0, t):
    """Closed-form Euler top, (T, 3) angular velocities at the times ``t``.

    Landau & Lifshitz, Mechanics, section 37: for I1 < I2 < I3 and
    M^2 > 2 E I2 the body rotates about the third axis, and
    (w1, w2, w3) = (A1 cn u, A2 sn u, A3 dn u) with u = u0 + t sqrt((I3 - I2)
    (M^2 - 2 E I1) / (I1 I2 I3)) and parameter
    m = (I2 - I1)(2 E I3 - M^2) / ((I3 - I2)(M^2 - 2 E I1)).
    """
    i1, i2, i3 = (float(x) for x in inertia)
    w = np.asarray(omega0, dtype=float)
    two_e = i1 * w[0] ** 2 + i2 * w[1] ** 2 + i3 * w[2] ** 2
    m2 = i1**2 * w[0] ** 2 + i2**2 * w[1] ** 2 + i3**2 * w[2] ** 2
    if not (i1 < i2 < i3 and m2 > two_e * i2 and w[2] > 0.0):
        raise ValueError("oracle covers I1 < I2 < I3, M^2 > 2 E I2 and w3 > 0 only")
    amp = np.sqrt([(two_e * i3 - m2) / (i1 * (i3 - i1)),
                   (two_e * i3 - m2) / (i2 * (i3 - i2)),
                   (m2 - two_e * i1) / (i3 * (i3 - i1))])
    m = (i2 - i1) * (two_e * i3 - m2) / ((i3 - i2) * (m2 - two_e * i1))
    rate = np.sqrt((i3 - i2) * (m2 - two_e * i1) / (i1 * i2 * i3))
    # the amplitude phi of u0 has cos phi = cn u0 and sin phi = sn u0
    u0 = ellipkinc(np.arctan2(w[1] / amp[1], w[0] / amp[0]), m)
    sn, cn, dn, _ = ellipj(u0 + rate * np.asarray(t, dtype=float), m)
    return np.stack([amp[0] * cn, amp[1] * sn, amp[2] * dn], axis=-1)


def h0_by_ode(profile, n_grid, substeps_per_cell=32):
    """Integrate dh/dr = H(r) h around the circle from the normalisation point.

    Fine-step RK4 starting at h(L/2) = 1; records h at the solver grid nodes.
    Independent of the closed-form volume-ratio construction.
    """
    L = profile.length
    dr_grid = L / n_grid
    ds = dr_grid / substeps_per_cell
    mc = profile.mean_curvature_at

    h = 1.0
    out = np.empty(n_grid)
    pos = 0.5 * L
    # grid nodes sorted by distance along the integration path
    order = sorted(range(n_grid), key=lambda j: (j * dr_grid - 0.5 * L) % L)
    targets = {j: (j * dr_grid - 0.5 * L) % L for j in order}
    k_target = {j: int(round(targets[j] / ds)) for j in order}
    steps_total = n_grid * substeps_per_cell
    values = {0: h}
    for k in range(steps_total):
        r = 0.5 * L + k * ds
        k1 = mc(r) * h
        k2 = mc(r + 0.5 * ds) * (h + 0.5 * ds * k1)
        k3 = mc(r + 0.5 * ds) * (h + 0.5 * ds * k2)
        k4 = mc(r + ds) * (h + ds * k3)
        h = h + ds / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        values[k + 1] = h
    for j in order:
        out[j] = values[k_target[j]]
    return out


def coordinate_divergence_fd(profile, h_of_r, r, eps=1e-5):
    """div(h dr) = (vol h)' / vol via centred differences of the product.

    This is the flat-model product-rule form h' + (vol'/vol) h, evaluated
    without using the shape operator or the mean curvature at all.
    """
    num = profile.volume_at(r + eps) * h_of_r(r + eps) - profile.volume_at(r - eps) * h_of_r(r - eps)
    return num / (2.0 * eps * profile.volume_at(r))
