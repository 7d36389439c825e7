"""Independent oracles, brute-force or closed-form; nothing here imports solver internals."""

import numpy as np
from scipy.special import ellipj, ellipkinc

from coho_euler.diagnostics import (
    C1_GROWTH_LIMIT,
    C_BOUND_MARGIN,
    DIV_RESIDUAL_TOL,
    ENERGY_DRIFT_TOL,
    ENVELOPE_FACTOR,
    PERIODICITY_TOL,
    SPEED_DRIFT_TOL,
    TAYLOR_GROWTH_LIMIT,
)


def bracket_direct(C, x, y):
    """Direct triple-loop summation of the structure constants."""
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * C[i][j][k]
    return out


def ad_direct(C, x):
    """Matrix of ad(x): y -> [x, y]; column j is [x, e_j] by direct summation."""
    n = len(x)
    return np.column_stack([bracket_direct(C, x, e) for e in np.eye(n)])


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


def casimir(gram, bracket, v):
    """The coadjoint Casimir of m = g v at each node, from g and the bracket alone.

    C = m^T K^-1 m with the Killing form K_ab = sum_cd B[a,c,d] B[b,d,c] of
    the bracket B on m, or |m|^2 where K vanishes (an abelian fibre). A
    reduced flow carries it, dC/dt + h dC/dr = 0: C is conserved at each
    node of an interval or a single orbit, and int C vol dr on a circle.
    ``gram`` is (n, d, d) and ``v`` (..., n, d); returns (..., n).
    """
    m = np.einsum("jab,...jb->...ja", gram, v)
    K = np.einsum("acd,bdc->ab", bracket, bracket)
    if not np.any(K):
        return np.sum(m * m, axis=-1)
    return np.einsum("...ja,ab,...jb->...j", m, np.linalg.inv(K), m)


def joint_ad_kernel(alg, h_basis, m_basis, tol=1e-10):
    """Fixed subspace by brute force: eigen-decompose the stacked Gram matrix."""
    rows = []
    for x in h_basis:
        adx = ad_direct(alg.structure, np.asarray(x, float))
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


def conservation_summary(s, kind, c_bound, failure):
    """The run summary in array form, over every recorded row at once.

    ``s`` maps each series name to its whole array, as a run's row sink
    collects them; ``c_bound`` and ``failure`` are the report's.
    """
    E = s["E"]
    e_scale = max(abs(float(E[0])), 1e-30)
    with np.errstate(invalid="ignore", over="ignore"):
        energy_drift = float(np.max(np.abs(E - E[0]))) / e_scale
    summary = {
        "kind": kind,
        "t_final": float(s["t"][-1]),
        "energy": {
            "initial": float(E[0]),
            "max_rel_drift": energy_drift,
            "tol": ENERGY_DRIFT_TOL,
            "ok": bool(energy_drift <= ENERGY_DRIFT_TOL),
        },
    }
    if kind in ("homogeneous", "interval"):
        drift = float(np.max(s["speed_drift"]))
        summary["pointwise_speed"] = {"max_drift": drift, "tol": SPEED_DRIFT_TOL,
                                      "ok": bool(drift <= SPEED_DRIFT_TOL)}
    if kind == "circle":
        margin = float(np.max(s["c"] ** 2 - c_bound))
        summary["c_bound"] = {"bound": c_bound, "max_margin": margin, "tol": C_BOUND_MARGIN,
                              "ok": bool(margin <= C_BOUND_MARGIN)}
        mv = s["max_vertical"]
        if mv[0] > 1e-30:
            with np.errstate(over="ignore"):
                envelope = mv[0] * np.exp(2.0 * s["t"] * s["envelope_rate"])
            ratio = float(np.max(mv / envelope))
        else:
            ratio = 1.0 if float(np.max(mv)) <= 1e-25 else np.inf
        summary["max_principle"] = {"max_ratio": ratio, "tol": ENVELOPE_FACTOR,
                                    "ok": bool(ratio <= ENVELOPE_FACTOR)}
    c1 = s["c1_monitor"]
    growth = float(np.max(c1)) / max(abs(float(c1[0])), 1e-12)
    summary["c1_monitor"] = {
        "initial": float(c1[0]),
        "max": float(np.max(c1)),
        "max_sv_raw": float(np.max(s["c1_sv_raw"])),
        "growth_factor": growth,
        "limit": C1_GROWTH_LIMIT,
        "ok": bool(growth <= C1_GROWTH_LIMIT),
    }
    div_max = float(np.max(s["div_residual"]))
    summary["divergence"] = {"max_residual": div_max, "tol": DIV_RESIDUAL_TOL,
                             "ok": bool(div_max <= DIV_RESIDUAL_TOL)}
    p_max = float(np.max(s["p_periodicity"]))
    summary["pressure_periodicity"] = {"max_residual": p_max, "tol": PERIODICITY_TOL,
                                       "ok": bool(p_max <= PERIODICITY_TOL)}
    if "alpha" in s:
        alpha, beta = s["alpha"], s["beta"]
        floor = 1e-8 * max(1.0, float(np.max(np.abs(alpha[0]))), float(np.max(np.abs(beta[0]))))
        growth = max(float(np.max(np.abs(alpha) / np.maximum(np.abs(alpha[0]), floor))),
                     float(np.max(np.abs(beta) / np.maximum(np.abs(beta[0]), floor))))
        summary["endpoint_taylor"] = {
            "max_growth": growth,
            "limit": TAYLOR_GROWTH_LIMIT,
            "max_parity_misfit": float(np.max(s["parity_misfit"])),
            "ok": bool(growth <= TAYLOR_GROWTH_LIMIT),
        }
    if failure is not None:
        summary["failure"] = failure
    summary["all_ok"] = bool(
        failure is None
        and all(v["ok"] for v in summary.values() if isinstance(v, dict) and "ok" in v)
    )
    return summary
