"""Independent brute-force oracles used only by the test suite.

These deliberately re-derive everything from scratch so they share no search
logic with the package solvers: the forward-rate oracle scans a dense alpha
grid and decides per-alpha feasibility by intersecting the root interval of
the distortion quadratic with the rate-budget interval (the solver instead
takes alpha and beta in closed form from the whitened program's geometry).
The blend reference settles the search's garbling weight with one exact
`cmi` on the blend's joint per bisection step.
"""

import math

import numpy as np


def _beta_window_feasible(va, vb, k, t, alpha, tol):
    """Exact feasibility at fixed alpha via root intervals of g(beta).

    g(beta) = (alpha*va + beta*vb)^2 - k*(alpha^2*va + beta^2*vb + 1) must be
    >= 0 somewhere on the rate-budget interval |beta| <= B.
    """
    rem = t - 1.0 - alpha * alpha * va
    if rem < 0:
        return False
    c0 = (alpha * va) ** 2 - k * (alpha * alpha * va + 1.0)
    if vb == 0.0:
        return c0 >= -tol
    bmax = math.sqrt(rem / vb)
    a2 = vb * (vb - k)
    b1 = 2.0 * alpha * va * vb
    if a2 == 0.0:
        g_hi = b1 * bmax + c0
        g_lo = -b1 * bmax + c0
        return max(g_hi, g_lo) >= -tol
    disc = b1 * b1 - 4.0 * a2 * c0
    if disc < 0:
        # no real roots: sign of g is the sign of the leading coefficient
        return a2 > 0
    sq = math.sqrt(disc)
    r_lo = (-b1 - sq) / (2.0 * a2)
    r_hi = (-b1 + sq) / (2.0 * a2)
    if r_lo > r_hi:
        r_lo, r_hi = r_hi, r_lo
    if a2 > 0:
        # g >= 0 outside (r_lo, r_hi)
        return r_lo >= -bmax or r_hi <= bmax
    # g >= 0 on [r_lo, r_hi]
    return r_lo <= bmax and r_hi >= -bmax


def gaussian_min_r1_oracle(va, vb, d1, d2_eff, r2, n=800):
    """Dense-alpha-grid minimizer of the forward-rate program, refined once."""
    if va == 0.0:
        return 0.0
    k = va + vb - d2_eff
    if k <= 0:
        return max(0.5 * math.log2(va / d1), 0.0)
    t = 2.0 ** (2.0 * r2)
    tol = 1e-9 * max(1.0, k * t)
    alphas = np.concatenate([[0.0], np.logspace(-4, 4, n)])
    # the first feasible grid alpha; the scan stops there
    i = next((j for j, a in enumerate(alphas)
              if _beta_window_feasible(va, vb, k, t, a, tol)), None)
    if i is None:
        return None
    if alphas[i] == 0.0:
        return max(0.5 * math.log2(va / d1), 0.0)
    fine = np.linspace(alphas[i - 1], alphas[i], n)
    alpha = float(alphas[i])
    for a in fine:
        if _beta_window_feasible(va, vb, k, t, float(a), tol):
            alpha = float(a)
            break
    return max(0.5 * math.log2(va / d1), 0.5 * math.log2(1.0 + alpha * alpha * va))


def blend_to_rate_bisection(pxyz, p_u, cap):
    """Reference for `discrete._blend_to_rate`: 40 bisection steps on the exact r2.

    r2 = I(U; X, Y | Z) on the cascade's joint axes (X, Y, Z, U, Xhat1),
    with no relay factor.
    """
    from cascade_rd.probability import cmi, joint

    pxy = pxyz.sum(axis=2)
    marg = np.einsum("xy,xyu->u", pxy, p_u)

    def rate(t):
        mixed = (1.0 - t) * p_u + t * marg[None, None, :]
        return cmi(joint(5, (pxyz, (0, 1, 2)), (mixed, (0, 1, 3))), (3,), (0, 1), (2,)), mixed

    r0, _ = rate(0.0)
    if r0 <= cap + 1e-9:
        return p_u, 0.0
    lo, hi = 0.0, 1.0
    mixed = marg[None, None, :] * np.ones_like(p_u)
    for _ in range(40):
        t = 0.5 * (lo + hi)
        r, cand = rate(t)
        if r <= cap + 1e-12:
            hi, mixed = t, cand
        else:
            lo = t
    return mixed, hi
