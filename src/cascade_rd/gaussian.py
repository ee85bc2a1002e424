"""Quadratic Gaussian rate-distortion programs for the cascade family.

Source model: X = A + B + Z, Y = B + Z, with A, B, Z independent zero-mean
Gaussians. All rates are in bits/sample, distortions in squared-error units
of the source. The forward-link programs reduce to a two-parameter program
over the auxiliary description U = alpha*A + beta*B + Z*, with the noise
variance pinned to 1 by scale invariance, whose boundary is in closed form;
the backward (side-information feedback) region has closed-form corner
constructions built from additive Gaussian test channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InfeasibleError, NumericDomainError

# feasibility slack treated as zero, relative to the constraint scale
_FEAS_REL_TOL = 1e-9
# backward-region slack (bits) still counted as membership
_REGION_TOL = 1e-9


@dataclass(frozen=True)
class GaussianCascadeSource:
    """Variances of the independent components A, B, Z."""

    var_a: float
    var_b: float
    var_z: float

    def __post_init__(self):
        for name in ("var_a", "var_b", "var_z"):
            _check_arg(name, getattr(self, name), 0.0)
        if self.var_a == self.var_b == self.var_z == 0:
            raise ValueError("at least one variance must be positive")

    @property
    def var_z_given_y(self) -> float:
        denom = self.var_b + self.var_z
        if denom <= 0:
            return 0.0
        return self.var_z * self.var_b / denom


@dataclass(frozen=True)
class GaussianAux:
    """Description channel U = alpha*A + beta*B + Z*, Z* ~ N(0, var_zstar).

    (c*alpha, c*beta, c^2*var_zstar) describes the same channel for any
    c != 0; solvers report the canonical scale var_zstar = 1.
    """

    alpha: float
    beta: float
    var_zstar: float = 1.0

    def __post_init__(self):
        if self.var_zstar <= 0:
            raise ValueError("var_zstar must be positive")


@dataclass(frozen=True)
class AuxStats:
    """Quantities of the auxiliary channel entering the optimization."""

    var_u: float
    rate_u: float  # 1/2 log2(var_u / var_zstar), the R2 cost
    var_a_given_ub: float  # objective
    var_s_given_u: float  # Var(A+B | U), the D2 side


def aux_stats(src: GaussianCascadeSource, aux: GaussianAux) -> AuxStats:
    va, vb = src.var_a, src.var_b
    a, b, w = aux.alpha, aux.beta, aux.var_zstar
    var_u = a * a * va + b * b * vb + w
    rate_u = 0.5 * math.log2(var_u / w)
    var_a_given_ub = va * w / (a * a * va + w)
    var_s_given_u = va + vb - (a * va + b * vb) ** 2 / var_u
    return AuxStats(var_u, rate_u, var_a_given_ub, var_s_given_u)


# --------------------------------------------------------------------- MMSE


def conditional_variance(cov: np.ndarray, target: int, observed) -> float:
    """Var(target | observed) for a jointly Gaussian vector, exact for `cov`.

    Conditions on one observation at a time, the Cholesky (symmetric
    elimination) update of the Schur complement, in exact rational
    arithmetic on the float entries, so the only rounding is that of the
    result: no cancellation between terms of the size of the prior variance
    enters it. An observation whose conditional variance given the earlier
    ones is not positive is a combination of them and is skipped, so exactly
    collinear observations are handled without regularization knobs.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be a square matrix")
    n = cov.shape[0]
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > 1e-10 * scale:
        raise NumericDomainError("cov is not symmetric")
    if np.linalg.eigvalsh(cov).min() < -1e-10 * scale:
        raise NumericDomainError("cov is not positive semidefinite")
    observed = list(observed)
    if target < 0 or target >= n or any(i < 0 or i >= n for i in observed):
        raise ValueError("index out of range")
    keep = list(dict.fromkeys([target, *observed]))
    m = {(i, j): Fraction(float(cov[i, j])) for i in keep for j in keep}
    for k in dict.fromkeys(observed):
        pivot = m[k, k]
        if pivot <= 0:
            continue
        col = {i: m[i, k] for i in keep}
        for i in keep:
            for j in keep:
                m[i, j] -= col[i] * col[j] / pivot
    return float(max(Fraction(0), m[target, target]))


# -------------------------------------------------------- forward-link solver


def _d2_slack(va: float, vb: float, k: float, t: float, alpha: float):
    """Best achievable margin of the distortion constraint at fixed alpha.

    Maximizes g(beta) = (alpha*va + beta*vb)^2 - k * var_u over the beta
    interval allowed by the rate budget t = 2^(2 R2); g >= 0 iff
    Var(A+B | U) <= d2. Returns (g_max, argmax beta), or (-inf, 0) when
    alpha alone already busts the rate budget.
    """
    rem = t - 1.0 - alpha * alpha * va
    if rem < 0:
        return -math.inf, 0.0
    if vb == 0.0:
        g0 = (alpha * va) ** 2 - k * (alpha * alpha * va + 1.0)
        return g0, 0.0
    bmax = math.sqrt(rem / vb)

    def g(beta):
        return (alpha * va + beta * vb) ** 2 - k * (
            alpha * alpha * va + beta * beta * vb + 1.0
        )

    cands = [-bmax, 0.0, bmax]
    curv = vb - k
    if curv < 0:
        bv = alpha * va / (-curv)  # stationary point, only a max when concave
        if -bmax <= bv <= bmax:
            cands.append(bv)
    best = max(cands, key=g)
    return g(best), best


def _feasible(va, vb, k, t, alpha):
    gmax, beta = _d2_slack(va, vb, k, t, alpha)
    tol = _FEAS_REL_TOL * max(1.0, abs(k) * t)
    return gmax >= -tol, beta


def _boundary_alpha(va, vb, k, t, d2_eff):
    """(alpha, beta, branch): the smallest alpha with a feasible beta, in closed form.

    There the distortion margin is zero, at a rate-tight beta (both tight:
    a root of va*s*a^2 - 2*va*sqrt(k t)*a + k t - (t-1)*vb, s = va + vb) or
    at the interior stationary beta (a^2 = (va - d2)/(va*d2), if va > d2).
    The diagonal alpha = beta is the one feasible point with r2 on the
    threshold, where rounding can lose the double root. Candidates are capped
    at the largest alpha the rate budget admits; the smallest that
    `_feasible` accepts is returned.
    """
    s = va + vb
    cap = math.sqrt((t - 1.0) / va)
    while cap * cap * va > t - 1.0:
        cap = math.nextafter(cap, 0.0)
    h = va * math.sqrt(k * t)
    c = k * t - (t - 1.0) * vb
    cands = [(math.sqrt((s / d2_eff - 1.0) / s), "both_tight")]  # the diagonal
    disc = h * h - va * s * c
    if disc >= 0:
        big = h + math.sqrt(disc)  # h > 0: the cancellation-free pair of roots
        cands += [(big / (va * s), "both_tight"), (abs(c / big), "both_tight")]
    if va > d2_eff:
        cands.append((math.sqrt((va - d2_eff) / (va * d2_eff)), "stationary"))
    for alpha, branch in sorted((min(a, cap), br) for a, br in cands):
        ok, beta = _feasible(va, vb, k, t, alpha)
        if ok:
            return alpha, beta, branch
    raise InfeasibleError(
        "no feasible auxiliary found for (d2, r2)",
        threshold=_threshold(s, d2_eff),
    )


@dataclass(frozen=True)
class ForwardSolution:
    r1: float
    aux: GaussianAux
    branch: str  # const_u, beta_only, both_tight or stationary (_boundary_alpha)
    r4_threshold: float | None = None


def _min_r1(src: GaussianCascadeSource, d1: float, d2_eff: float, r2: float):
    va, vb = src.var_a, src.var_b
    k = va + vb - d2_eff
    r1_d1 = _threshold(va, d1)
    if k <= 0:
        # distortion constraint slack: constant U is optimal
        return ForwardSolution(r1_d1, GaussianAux(0.0, 0.0, 1.0), "const_u")
    t = 2.0 ** (2.0 * r2)
    ok0, beta0 = _feasible(va, vb, k, t, 0.0)
    # va = 0: the callers' threshold check is the beta-only test t >= vb/d2_eff
    # to 1e-12 bits, which `_feasible` can refuse at large variances; beta-only
    # answers, so `_boundary_alpha`, which divides by va, is never reached
    if ok0 or va == 0.0:
        return ForwardSolution(r1_d1, GaussianAux(0.0, beta0, 1.0), "beta_only")

    alpha, beta, branch = _boundary_alpha(va, vb, k, t, d2_eff)
    r1 = max(r1_d1, 0.5 * math.log2(1.0 + alpha * alpha * va))
    return ForwardSolution(r1, GaussianAux(alpha, beta, 1.0), branch)


def cascade_min_r1(src: GaussianCascadeSource, d1: float, d2: float,
                   r2: float) -> ForwardSolution:
    """Smallest forward rate R1 at fixed (D1, D2, R2) for the cascade setting.

    Maximizes Var(A | U, B) over auxiliaries U = alpha*A + beta*B + Z*
    subject to the R2 rate budget and the D2 distortion bound, then
    R1 = max(1/2 log2(var_a / D1), 1/2 log2(var_a / Var(A|U,B))).
    """
    _check_query(d1, d2, r2)
    thr = _threshold(src.var_a + src.var_b, d2)
    if r2 < thr - 1e-12:
        raise InfeasibleError(
            f"r2={r2:g} below the feasibility threshold {thr:g} bits",
            threshold=thr,
        )
    return _min_r1(src, d1, d2, r2)


def triangular_min_r1(src: GaussianCascadeSource, d1: float, d2: float,
                      r2: float, r3: float) -> ForwardSolution:
    """Cascade program with the D2 bound relaxed to 2^(2 R3) * D2."""
    _check_query(d1, d2, r2)
    _check_arg("r3", r3, 0.0)
    thr = _threshold(src.var_a + src.var_b, d2)
    if r2 + r3 < thr - 1e-12:
        raise InfeasibleError(
            f"r2+r3={r2 + r3:g} below the feasibility threshold {thr:g} bits",
            threshold=thr,
        )
    return _min_r1(src, d1, d2 * 2.0 ** (2.0 * r3), r2)


def two_way_triangular_min_r1(src: GaussianCascadeSource, d1: float, d2: float,
                              d3: float, r2: float, r3: float,
                              r4: float) -> ForwardSolution:
    """Two-way variant: the backward link decouples, so R1 matches the
    triangular program; also reports the R4 feasibility threshold."""
    _check_arg("d3", d3, 0.0, strict=True)
    _check_arg("r4", r4, 0.0)
    thr4 = _threshold(src.var_z_given_y, d3)
    if r4 < thr4 - 1e-12:
        raise InfeasibleError(
            f"r4={r4:g} below the backward threshold {thr4:g} bits",
            threshold=thr4,
        )
    fwd = triangular_min_r1(src, d1, d2, r2, r3)
    return replace(fwd, r4_threshold=thr4)


def _threshold(s: float, d: float) -> float:
    """Rate 1/2 log2(s/d) of describing variance s at distortion d; 0 if d >= s."""
    return max(0.5 * math.log2(s / d), 0.0) if s > 0 else 0.0


def _check_arg(name, value, least=-math.inf, strict=False):
    """Refuse NaN, +-inf and values below `least` (or at it when strict), by name."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < least or (strict and value == least):
        bound = f"{'>' if strict else '>='} {least:g}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_query(d1, d2, r2):
    _check_arg("d1", d1, 0.0, strict=True)
    _check_arg("d2", d2, 0.0, strict=True)
    _check_arg("r2", r2, 0.0)


# ----------------------------------------------------------- backward region


def q_map(x: float, s: float) -> float:
    """Noise variance Q(x) = x*s/(s-x) of the additive test channel.

    Observing Z + W with Var(W) = Q(x) alongside Y drives Var(Z | Y, Z+W)
    down to exactly x; requires 0 < x < s where s = Var(Z|Y).
    """
    if not (0.0 < x < s):
        raise NumericDomainError(f"need 0 < x < s, got x={x:g}, s={s:g}")
    return x * s / (s - x)


def _q_cumulative(x: float, s: float) -> float:
    # closure of q_map at x = s: an uninformative (infinite-noise) layer
    if x >= s:
        return math.inf
    return q_map(x, s)


@dataclass(frozen=True)
class RegionCheck:
    member: bool
    slacks: tuple[float, float, float]


def extended_backward_region_check(src: GaussianCascadeSource,
                                   point, targets) -> RegionCheck:
    """Slack of the three backward-rate inequalities at (R3, R4, R5)."""
    r3, r4, r5 = point
    dz1, dz2 = targets
    for name, value in zip(("r3", "r4", "r5"), point):
        _check_arg(name, value)
    s = src.var_z_given_y
    _check_dz(dz1, dz2, s)
    t1 = _rate(s, dz1)
    t2 = _rate(s, min(dz1, dz2))
    t3 = _rate(s, dz2)
    slacks = (r3 - t1, r3 + r5 - t2, r4 + r5 - t3)
    return RegionCheck(member=min(slacks) >= -_REGION_TOL, slacks=slacks)


def _check_dz(dz1, dz2, s):
    _check_arg("dz1", dz1)
    _check_arg("dz2", dz2)
    if s <= 0:
        raise ValueError("source has Var(Z|Y) = 0; backward region is degenerate")
    if not (0.0 < dz1 <= s * (1 + 1e-12)) or not (0.0 < dz2 <= s * (1 + 1e-12)):
        raise ValueError(f"distortion targets must lie in (0, {s:g}]")


@dataclass(frozen=True)
class BackwardConstruction:
    """Concrete noise-chain achieving a backward-region corner.

    w1, w2, w3 are the incremental noise variances of the layered test
    channels (math.inf marks an uninformative layer); achieved rates are the
    exact mutual-information costs of the chain and the distortions are its
    closed-form MMSEs.
    """

    case_id: int
    w1: float
    w2: float
    w3: float
    r3: float
    r4: float
    r5: float
    dist_z1: float
    dist_z2: float


def _chain_distortion(src: GaussianCascadeSource, cum_noise: float) -> float:
    """Var(Z | Y, Z + W) = s*q/(s + q) with s = Var(Z|Y), q = Var(W) = cum_noise.

    Observing Z + W adds the precision 1/q to the 1/s left after Y; an
    uninformative (q = inf) layer leaves s.
    """
    s = src.var_z_given_y
    if math.isinf(cum_noise):
        return s
    return s * cum_noise / (s + cum_noise)


def _w_diff(outer: float, inner: float) -> float:
    # incremental noise between consecutive layers; inf-noise layers add nothing
    if math.isinf(inner):
        return 0.0
    if math.isinf(outer):
        return math.inf
    return max(0.0, outer - inner)


def _rate(s: float, d: float) -> float:
    return 0.5 * math.log2(s / d)


def extended_backward_achievability(src: GaussianCascadeSource,
                                    dz1: float, dz2: float,
                                    r3: float, r4: float) -> BackwardConstruction:
    """Layered test-channel construction meeting (D_Z1, D_Z2) within (R3, R4).

    Picks the case from the target ordering and the R3/R4 split, saturates the
    binding inequality, and returns the chain with its exact rates and MMSE
    distortions. The R5 rate is an output: the refinement cost left over after
    R4 (cases 1-2) or R3 (case 3).
    """
    s = src.var_z_given_y
    _check_dz(dz1, dz2, s)
    _check_arg("r3", r3, 0.0)
    _check_arg("r4", r4, 0.0)
    if r3 < _rate(s, dz1) - 1e-9:
        raise InfeasibleError(
            f"violated: R3 >= 1/2 log2(s/D_Z1) = {_rate(s, dz1):g} bits",
            threshold=_rate(s, dz1),
        )

    if dz1 <= dz2:
        case = 1
        d_prime = min(max(s * 2.0 ** (-2.0 * r4), dz2), s)
        q1 = _q_cumulative(dz1, s)  # U1, decoded from the R3 link
        q3 = _q_cumulative(dz2, s)  # U3 = U1 + W3
        q2 = _q_cumulative(d_prime, s)  # U2 = U3 + W2
        w1, w3, w2 = q1, _w_diff(q3, q1), _w_diff(q2, q3)
        ach_r3 = _rate(s, dz1)
        ach_r4 = _rate(s, d_prime)
        ach_r5 = _rate(s, dz2) - ach_r4
        dist1, dist2 = _chain_distortion(src, q1), _chain_distortion(src, q3)
    else:
        case = 2 if r3 >= r4 else 3
        d_prime = min(max(s * 2.0 ** (-2.0 * r3), dz2), dz1)
        q3 = _q_cumulative(dz2, s)  # U3, finest layer
        q1 = _q_cumulative(d_prime, s)  # U1 = U3 + W1
        w3, w1 = q3, _w_diff(q1, q3)
        if case == 2:
            d_dprime = min(max(s * 2.0 ** (-2.0 * r4), d_prime), s)
            q2 = _q_cumulative(d_dprime, s)  # U2 = U1 + W2
            w2 = _w_diff(q2, q1)
            ach_r4 = _rate(s, d_dprime)
        else:
            w2 = 0.0  # U2 = U1, so the R4 link reuses the R3 description
            ach_r4 = _rate(s, d_prime)
        ach_r3 = _rate(s, d_prime)
        ach_r5 = _rate(s, dz2) - ach_r4
        dist1, dist2 = _chain_distortion(src, q1), _chain_distortion(src, q3)

    return BackwardConstruction(
        case_id=case, w1=w1, w2=w2, w3=w3,
        r3=ach_r3, r4=ach_r4, r5=ach_r5,
        dist_z1=dist1, dist_z2=dist2,
    )


# ------------------------------------------------------- covariance transform


def equivalent_observation_transform(src: GaussianCascadeSource) -> tuple[float, float]:
    """(alpha, var_z) such that (X, alpha*(X+Z')) matches Cov(A+B, B) entrywise.

    Maps the two-observation cascade source onto the equivalent
    independent-noise form; requires var_b > 0.
    """
    va, vb = src.var_a, src.var_b
    if vb <= 0:
        raise NumericDomainError("var_b must be positive for the transform")
    var_x = va + vb
    alpha = vb / var_x
    var_z = (vb - alpha * alpha * var_x) / (alpha * alpha)
    return alpha, var_z
