import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cascade_rd.gaussian import (
    GaussianAux,
    GaussianCascadeSource,
    InfeasibleError,
    NumericDomainError,
    aux_stats,
    cascade_min_r1,
    conditional_variance,
    extended_backward_achievability,
    extended_backward_region_check,
    equivalent_observation_transform,
    q_map,
    triangular_min_r1,
    two_way_triangular_min_r1,
)
from cascade_rd.gaussian import _chain_distortion
from oracles import _beta_window_feasible, gaussian_min_r1_oracle

UNIT = GaussianCascadeSource(1.0, 1.0, 1.0)


# --------------------------------------------------------- conditional variance


def test_conditional_variance_self_conditioning():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert conditional_variance(cov, 0, [0]) == pytest.approx(0.0, abs=1e-12)


def test_conditional_variance_independent():
    cov = np.diag([3.0, 2.0])
    assert conditional_variance(cov, 0, [1]) == pytest.approx(3.0, abs=1e-12)


def test_conditional_variance_two_by_two_mmse():
    # Z given Y = B + Z with var_b = var_z = 1
    cov = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert conditional_variance(cov, 0, [1]) == pytest.approx(0.5, abs=1e-12)


def test_conditional_variance_rejects_non_psd():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericDomainError):
        conditional_variance(cov, 0, [1])


def test_conditional_variance_singular_observed_block():
    # duplicated observation; pseudo-inverse must cope
    cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert conditional_variance(cov, 0, [1, 2]) == pytest.approx(1.0, abs=1e-10)


# -------------------------------------------------------------- cascade solver


def test_cascade_constant_u_when_d2_slack():
    sol = cascade_min_r1(UNIT, d1=0.25, d2=2.5, r2=0.7)
    assert sol.r1 == pytest.approx(1.0, abs=1e-12)
    assert sol.aux.alpha == 0.0 and sol.aux.beta == 0.0


def test_cascade_zero_rate_when_both_terms_slack():
    sol = cascade_min_r1(UNIT, d1=1.5, d2=2.5, r2=0.1)
    assert sol.r1 == 0.0


def test_cascade_worked_instance():
    # At r2 equal to the feasibility threshold the only admissible auxiliary
    # is the distortion-tight diagonal alpha = beta = sqrt(1.5), hence
    # Var(A|U,B) = 0.4 and the D1 term dominates: R1 = 1 bit.
    sol = cascade_min_r1(UNIT, d1=0.25, d2=0.5, r2=1.0)
    assert sol.r1 == pytest.approx(1.0, abs=2e-3)
    assert sol.aux.alpha == pytest.approx(math.sqrt(1.5), rel=1e-3)


def test_cascade_worked_instance_d1_slack():
    # same auxiliary, D1 loose enough that the description term binds
    sol = cascade_min_r1(UNIT, d1=0.6, d2=0.5, r2=1.0)
    assert sol.r1 == pytest.approx(0.5 * math.log2(2.5), abs=2e-3)


def test_cascade_infeasible_r2_reports_threshold():
    with pytest.raises(InfeasibleError) as err:
        cascade_min_r1(UNIT, d1=0.25, d2=0.5, r2=0.9)
    assert err.value.threshold == pytest.approx(1.0, abs=1e-12)


def test_cascade_feasibility_edge_returns_finite_r1():
    # r2 exactly at the threshold: the feasible set is the single tight point
    thr = 0.5 * math.log2(2.0 / 0.5)
    sol = cascade_min_r1(UNIT, d1=0.25, d2=0.5, r2=thr)
    assert math.isfinite(sol.r1)
    stats = aux_stats(UNIT, sol.aux)
    assert stats.rate_u <= thr + 1e-9
    assert stats.var_s_given_u <= 0.5 + 1e-9


def test_cascade_solution_is_always_feasible():
    rng = np.random.default_rng(5)
    for _ in range(25):
        va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
        src = GaussianCascadeSource(va, vb, vz)
        s = va + vb
        d2 = s * 10.0 ** rng.uniform(-1.2, -0.05)
        r2 = max(0.5 * math.log2(s / d2), 0.0) + rng.uniform(0.02, 2.0)
        sol = cascade_min_r1(src, d1=0.3 * va, d2=d2, r2=r2)
        stats = aux_stats(src, sol.aux)
        assert stats.var_s_given_u <= d2 * (1 + 1e-6)
        if sol.aux.alpha != 0 or sol.aux.beta != 0:
            assert stats.rate_u <= r2 + 1e-9


def test_cascade_monotone_in_r2_d1_d2():
    r1_r2 = [cascade_min_r1(UNIT, 0.25, 0.5, r2).r1 for r2 in (1.0, 1.3, 1.8, 2.5)]
    assert all(a >= b - 1e-9 for a, b in zip(r1_r2, r1_r2[1:]))
    r1_d1 = [cascade_min_r1(UNIT, d1, 0.5, 1.5).r1 for d1 in (0.1, 0.3, 0.6, 1.2)]
    assert all(a >= b - 1e-9 for a, b in zip(r1_d1, r1_d1[1:]))
    r1_d2 = [cascade_min_r1(UNIT, 0.25, d2, 1.5).r1 for d2 in (0.45, 0.7, 1.2, 2.5)]
    assert all(a >= b - 1e-9 for a, b in zip(r1_d2, r1_d2[1:]))


def test_aux_stats_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(30):
        aux = GaussianAux(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(0.1, 2))
        c = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        scaled = GaussianAux(c * aux.alpha, c * aux.beta, c * c * aux.var_zstar)
        s1 = aux_stats(UNIT, aux)
        s2 = aux_stats(UNIT, scaled)
        assert s1.rate_u == pytest.approx(s2.rate_u, abs=1e-10)
        assert s1.var_a_given_ub == pytest.approx(s2.var_a_given_ub, abs=1e-10)
        assert s1.var_s_given_u == pytest.approx(s2.var_s_given_u, abs=1e-10)


# ------------------------------------------------------------------ triangular


def test_triangular_reduces_to_cascade_at_r3_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
        src = GaussianCascadeSource(va, vb, vz)
        s = va + vb
        d1 = 0.4 * va
        d2 = 0.4 * s
        r2 = 0.5 * math.log2(s / d2) + 0.3
        tri = triangular_min_r1(src, d1, d2, r2, 0.0)
        cas = cascade_min_r1(src, d1, d2, r2)
        assert abs(tri.r1 - cas.r1) <= 1e-9


def test_triangular_relaxed_constraint_vacuous():
    # r3 large enough to absorb the whole D2 requirement at r2 = 0
    s = 2.0
    d2 = 0.5
    r3 = 0.5 * math.log2(s / d2)
    sol = triangular_min_r1(UNIT, d1=0.25, d2=d2, r2=0.0, r3=r3)
    assert sol.r1 == pytest.approx(1.0, abs=1e-12)
    assert sol.aux.alpha == 0.0


def test_triangular_infeasible_budget():
    with pytest.raises(InfeasibleError):
        triangular_min_r1(UNIT, d1=0.25, d2=0.5, r2=0.4, r3=0.4)


def test_triangular_worked_instance():
    # r2 + r3 at the joint threshold forces the tight diagonal with
    # alpha = beta = sqrt(0.5) under the relaxed distortion 2^(2 r3) d2 = 1,
    # so Var(A|U,B) = 2/3; d1 = 0.8 keeps the description term dominant
    sol = triangular_min_r1(UNIT, d1=0.8, d2=0.5, r2=0.5, r3=0.5)
    assert sol.r1 == pytest.approx(0.5 * math.log2(1.5), abs=2e-3)
    assert sol.aux.alpha == pytest.approx(math.sqrt(0.5), rel=1e-3)


# --------------------------------------------------------------------- two-way


def test_two_way_threshold_and_decoupling():
    src = GaussianCascadeSource(1.0, 1.0, 1.0)  # var_z_given_y = 0.5
    sol = two_way_triangular_min_r1(src, 0.25, 0.5, 0.125, r2=1.2, r3=0.0, r4=1.0)
    assert sol.r4_threshold == pytest.approx(1.0, abs=1e-12)
    tri = triangular_min_r1(src, 0.25, 0.5, 1.2, 0.0)
    assert sol.r1 == tri.r1


def test_two_way_threshold_zero_when_d3_slack():
    sol = two_way_triangular_min_r1(UNIT, 0.25, 0.5, 0.7, r2=1.2, r3=0.0, r4=0.0)
    assert sol.r4_threshold == 0.0


def test_two_way_infeasible_r4():
    with pytest.raises(InfeasibleError) as err:
        two_way_triangular_min_r1(UNIT, 0.25, 0.5, 0.125, r2=1.2, r3=0.0, r4=0.5)
    assert err.value.threshold == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- backward region


def test_q_map_algebraic_identity():
    assert q_map(0.25, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert q_map(0.125, 0.5) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert q_map(1e-9, 0.5) < 2e-9


def test_q_map_domain_error():
    with pytest.raises(NumericDomainError):
        q_map(0.5, 0.5)
    with pytest.raises(NumericDomainError):
        q_map(0.7, 0.5)


def test_q_map_round_trip_mmse():
    rng = np.random.default_rng(17)
    for _ in range(50):
        vb, vz = 10.0 ** rng.uniform(-1, 1, size=2)
        src = GaussianCascadeSource(1.0, vb, vz)
        s = src.var_z_given_y
        x = s * rng.uniform(0.05, 0.95)
        q = q_map(x, s)
        cov = np.array(
            [
                [vz, vz, vz],
                [vz, vb + vz, vz],
                [vz, vz, vz + q],
            ]
        )
        assert conditional_variance(cov, 0, [1, 2]) == pytest.approx(x, abs=1e-10)


def test_region_check_worked_points():
    chk = extended_backward_region_check(UNIT, (1.0, 1.0, 0.0), (0.25, 0.125))
    assert chk.member
    assert chk.slacks == pytest.approx((0.5, 0.0, 0.0), abs=1e-12)

    chk2 = extended_backward_region_check(UNIT, (0.5, 0.0, 0.5), (0.25, 0.125))
    assert not chk2.member
    assert chk2.slacks[2] == pytest.approx(-0.5, abs=1e-12)


def test_region_check_all_thresholds_zero():
    s = UNIT.var_z_given_y
    chk = extended_backward_region_check(UNIT, (0.0, 0.0, 0.0), (s, s))
    assert chk.member
    assert chk.slacks == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_region_check_rejects_bad_targets():
    with pytest.raises(ValueError):
        extended_backward_region_check(UNIT, (1, 1, 1), (0.7, 0.1))


def test_backward_case1_worked_example():
    # s = 0.5, dz1 = 0.125, dz2 = 0.25, r4 at the dz2 line: the corner has
    # r3 = 1/2 log2(s/dz1) = 1 and r4 + r5 = 1/2 log2(s/dz2) = 0.5
    s = UNIT.var_z_given_y
    r4 = 0.5 * math.log2(s / 0.25)
    con = extended_backward_achievability(UNIT, 0.125, 0.25, r3=1.0, r4=r4)
    assert con.case_id == 1
    assert con.r3 == pytest.approx(1.0, abs=1e-12)
    assert con.r4 + con.r5 == pytest.approx(0.5, abs=1e-12)
    assert con.dist_z1 == pytest.approx(0.125, abs=1e-9)
    assert con.dist_z2 == pytest.approx(0.25, abs=1e-9)


def test_backward_degenerate_targets_all_zero_rates():
    s = UNIT.var_z_given_y
    con = extended_backward_achievability(UNIT, s, s, r3=0.0, r4=0.0)
    assert (con.r3, con.r4, con.r5) == (0.0, 0.0, 0.0)
    assert con.dist_z1 == pytest.approx(s, abs=1e-9)
    assert con.dist_z2 == pytest.approx(s, abs=1e-9)


def test_backward_case3_reuses_forward_description():
    # dz1 > dz2 and r3 < r4: the construction sets U2 = U1, so r4' = r3'
    con = extended_backward_achievability(UNIT, 0.25, 0.125, r3=1.0, r4=1.5)
    assert con.case_id == 3
    assert con.r4 == con.r3
    assert con.w2 == 0.0


def test_backward_constructions_pass_region_check():
    rng = np.random.default_rng(23)
    for case in (1, 2, 3):
        for _ in range(20):
            vb, vz = 10.0 ** rng.uniform(-1, 1, size=2)
            src = GaussianCascadeSource(1.0, vb, vz)
            s = src.var_z_given_y
            lo, hi = np.sort(rng.uniform(0.05, 0.95, size=2) * s)
            if case == 1:
                dz1, dz2 = lo, hi
            else:
                dz1, dz2 = hi, lo
            r3 = 0.5 * math.log2(s / dz1)
            r4 = r3 - rng.uniform(0, r3) if case == 2 else r3 + rng.uniform(0.01, 1.0)
            con = extended_backward_achievability(src, dz1, dz2, r3, r4)
            assert con.case_id == case
            chk = extended_backward_region_check(
                src, (con.r3, con.r4, con.r5), (dz1, dz2)
            )
            assert min(chk.slacks) >= -1e-9
            assert con.dist_z1 <= dz1 + 1e-9
            assert con.dist_z2 <= dz2 + 1e-9


def test_backward_infeasible_r3_names_inequality():
    with pytest.raises(InfeasibleError) as err:
        extended_backward_achievability(UNIT, 0.125, 0.25, r3=0.5, r4=1.0)
    assert "R3" in str(err.value)


def _layer_ratio(rng, i):
    """x/s in [1e-6, 1 - 1e-9]: log-uniform on even draws, 1 - x/s log-uniform on odd."""
    ratio = 10.0 ** rng.uniform(-6, 0) if i % 2 == 0 else 1.0 - 10.0 ** rng.uniform(-9, 0)
    return min(max(ratio, 1e-6), 1.0 - 1e-9)


def test_chain_distortion_is_the_closed_form_mmse():
    # The Schur complement of the explicit covariance is the reference. The
    # stored entry vz + q rounds q by up to half an ulp of vz (1.3e-9 of x at
    # x/s = 1e-6), hence its absolute floor; against the layer target x the
    # closed form holds to 4 ulp over the whole range.
    rng = np.random.default_rng(59)
    for i in range(1000):
        va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
        src = GaussianCascadeSource(va, vb, vz)
        s = src.var_z_given_y
        x = s * _layer_ratio(rng, i)
        q = q_map(x, s)
        got = _chain_distortion(src, q)
        cov = np.array([[vz, vz, vz], [vz, vb + vz, vz], [vz, vz, vz + q]])
        ref = conditional_variance(cov, 0, [1, 2])
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12 * vz), (i, got, ref)
        assert abs(got - x) <= 4 * math.ulp(x), (i, got, x)
        assert _chain_distortion(src, math.inf) == s
        ref_inf = conditional_variance(np.array([[vz, vz], [vz, vb + vz]]), 0, [1])
        assert s == pytest.approx(ref_inf, rel=1e-12)


def test_conditional_variance_is_exact_for_the_matrix_it_is_given():
    # the instances above: Var(Z | B + Z, Z + W) is 1/(1/vz + 1/vb + 1/q) for
    # the variances the stored matrix holds, vb = cov[1,1] - vz and
    # q = cov[2,2] - vz taken exactly; the old Schur complement through a
    # pseudo-inverse missed it by up to 9e-8 relative at x/s = 1e-6
    rng = np.random.default_rng(59)
    for i in range(1000):
        va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
        s = GaussianCascadeSource(va, vb, vz).var_z_given_y
        x = s * _layer_ratio(rng, i)
        cov = np.array([[vz, vz, vz], [vz, vb + vz, vz], [vz, vz, vz + q_map(x, s)]])
        held = [Fraction(float(cov[k, k])) - Fraction(vz) for k in (1, 2)]
        closed = 1 / (1 / Fraction(vz) + 1 / held[0] + 1 / held[1])
        got = conditional_variance(cov, 0, [1, 2])
        assert abs(Fraction(got) - closed) <= 1e-12 * closed, (i, got, float(closed))
        assert got == pytest.approx(x, rel=2e-9), i  # the rounding of vz + q


def test_backward_distortions_hit_their_layer_targets():
    # dist_z1 and dist_z2 are the chain's MMSEs at the layers built for D_Z1
    # (D' in cases 2-3) and D_Z2, so they reproduce those targets to 4 ulp
    rng = np.random.default_rng(61)
    for case in (1, 2, 3):
        for i in range(400):
            va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
            src = GaussianCascadeSource(va, vb, vz)
            s = src.var_z_given_y
            lo, hi = sorted(s * _layer_ratio(rng, i + k) for k in (0, 1))
            if lo == hi:
                continue
            dz1, dz2 = (lo, hi) if case == 1 else (hi, lo)
            r3 = 0.5 * math.log2(s / dz1) + rng.uniform(0.0, 2.0)
            if case == 1:
                r4 = rng.uniform(0.0, 3.0)
            elif case == 2:
                r4 = r3 * rng.uniform(0.0, 1.0)
            else:
                r4 = r3 + rng.uniform(0.01, 1.0)
            con = extended_backward_achievability(src, dz1, dz2, r3, r4)
            assert con.case_id == case
            target1 = dz1 if case == 1 else min(max(s * 2.0 ** (-2.0 * r3), dz2), dz1)
            assert abs(con.dist_z1 - target1) <= 4 * math.ulp(target1), (case, i, con)
            assert abs(con.dist_z2 - dz2) <= 4 * math.ulp(dz2), (case, i, con)


# --------------------------------------------------------- covariance transform


def test_transform_worked_case():
    alpha, var_z = equivalent_observation_transform(UNIT)
    assert alpha == 0.5
    assert var_z == 2.0


def test_transform_degenerate_y_equals_x():
    alpha, var_z = equivalent_observation_transform(GaussianCascadeSource(0.0, 1.0, 1.0))
    assert alpha == 1.0
    assert var_z == 0.0


def test_transform_requires_var_b():
    with pytest.raises(NumericDomainError):
        equivalent_observation_transform(GaussianCascadeSource(1.0, 0.0, 1.0))


def test_transform_matches_covariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        va, vb = 10.0 ** rng.uniform(-1, 1, size=2)
        src = GaussianCascadeSource(va, vb, rng.uniform(0.1, 10))
        alpha, var_z = equivalent_observation_transform(src)
        var_x = va + vb
        built = np.array(
            [
                [var_x, alpha * var_x],
                [alpha * var_x, alpha * alpha * (var_x + var_z)],
            ]
        )
        target = np.array([[va + vb, vb], [vb, vb]])
        assert np.abs(built - target).max() <= 1e-12 * max(1.0, var_x)


# ------------------------------------------------------- closed-form boundary


def _forward_query(rng, i):
    """(va, vb, d1, d2, r2): vb = 0 on every fifth query, d2 >= va on most of
    every seventh, and r2 exactly on the threshold on every third."""
    va = 10.0 ** rng.uniform(-1, 1)
    vb = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-1, 1)
    s = va + vb
    d1 = va * 10.0 ** rng.uniform(-1.3, -0.05)
    if i % 7 == 0:
        d2 = min(va * rng.uniform(1.0, 1.5), 0.9 * s)
    else:
        d2 = s * 10.0 ** rng.uniform(-1.2, -0.05)
    thr = 0.5 * math.log2(s / d2)
    r2 = thr if i % 3 == 0 else thr + rng.uniform(0.0, 2.0)
    return va, vb, d1, d2, r2


def _answered_within_both_constraints(src, d1, d2, r2):
    sol = cascade_min_r1(src, d1, d2, r2)
    stats = aux_stats(src, sol.aux)
    assert stats.rate_u <= r2 + 1e-12, sol
    assert stats.var_s_given_u <= d2 * (1 + 1e-11), sol
    return sol


def test_boundary_alpha_is_minimal_and_matches_the_oracle():
    # The returned auxiliary meets both constraints to rounding, and 1e-6
    # below its alpha no beta meets D2 within the budget (the oracle's exact
    # root-interval test, with no slack). On the threshold the feasible set is
    # the single point alpha = beta = sqrt((s/d2 - 1)/s), which the oracle's
    # grid cannot hit, so r1 is compared with that point instead.
    rng = np.random.default_rng(41)
    seen = {"beta_only": 0, "both_tight": 0, "stationary": 0}
    for i in range(500):
        va, vb, d1, d2, r2 = _forward_query(rng, i)
        s, k, t = va + vb, va + vb - d2, 2.0 ** (2.0 * r2)
        sol = _answered_within_both_constraints(GaussianCascadeSource(va, vb, 1.0), d1, d2, r2)
        seen[sol.branch] += 1
        alpha = sol.aux.alpha
        if alpha > 0:
            assert not _beta_window_feasible(va, vb, k, t, alpha * (1.0 - 1e-6), 0.0), (i, sol)
        if i % 3 == 0:
            gamma2 = (s / d2 - 1.0) / s
            want = max(0.5 * math.log2(va / d1), 0.5 * math.log2(1.0 + gamma2 * va))
        else:
            want = gaussian_min_r1_oracle(va, vb, d1, d2, r2)
            if want is None:  # a feasible alpha interval narrower than a grid step
                want = gaussian_min_r1_oracle(va, vb, d1, d2, r2, n=8000)
        assert abs(sol.r1 - want) <= 1e-4, (i, sol, want)
    assert seen["both_tight"] >= 100 and seen["stationary"] >= 100, seen


@pytest.mark.parametrize("d2, r2, branch", [
    (2.5, 0.7, "const_u"),  # d2 above var_a + var_b
    (1.2, 1.5, "beta_only"),  # B alone meets d2 within the budget
    (0.5, 1.0, "both_tight"),  # on the threshold: the diagonal alpha = beta
    (0.5, 1.1, "both_tight"),
    (0.5, 1.5, "stationary"),  # the stationary beta = 2 alpha fits the budget
])
def test_forward_solution_reports_its_branch(d2, r2, branch):
    assert cascade_min_r1(UNIT, 0.25, d2, r2).branch == branch
    assert triangular_min_r1(UNIT, 0.25, d2, r2, 0.0).branch == branch
    assert two_way_triangular_min_r1(UNIT, 0.25, d2, 0.3, r2, 0.0, 1.0).branch == branch


def test_r2_on_the_threshold_without_b_is_answered():
    # var_b = 0: every candidate is the rate-tight alpha, which rounding used
    # to push just past the budget, so this feasible query was refused
    va, d2 = 7.95626658168367, 0.7722508514888111
    src = GaussianCascadeSource(va, 0.0, 1.0)
    thr = 0.5 * math.log2(va / d2)
    stats = aux_stats(src, cascade_min_r1(src, 0.25 * va, d2, thr).aux)
    assert stats.rate_u <= thr + 1e-12
    assert stats.var_s_given_u <= d2 * (1 + 1e-9)


@pytest.mark.parametrize("vb, d2", [(1.0, 0.5), (1e3, 999.9), (1.0, 0.999), (1.0, 1.5)])
def test_forward_programs_without_a_meet_d2_with_their_own_auxiliary(vb, d2):
    # var_a = 0 returned (alpha, beta) = (0, 0) before D2 was checked, so
    # Var(A+B|U) = var_b > d2; with only that return deleted, (1e3, 999.9) at
    # r2 = thr - 1e-12 divided by var_a = 0 in the boundary solve
    src = GaussianCascadeSource(0.0, vb, 1.0)
    thr = 0.5 * math.log2(max(vb / d2, 1.0))
    for r2 in (max(thr - 1e-12, 0.0), thr, thr + 0.5):
        for sol in (cascade_min_r1(src, 0.25, d2, r2),
                    triangular_min_r1(src, 0.25, d2 / 4, r2, 1.0),  # d2_eff = d2
                    two_way_triangular_min_r1(src, 0.25, d2, 0.3, r2, 0.0, 5.0)):
            stats = aux_stats(src, sol.aux)
            assert (sol.r1, sol.branch) == (0.0, "const_u" if vb <= d2 else "beta_only")
            assert stats.rate_u <= r2 + 1e-12
            assert stats.var_s_given_u <= d2 * (1 + 1e-9)


def test_forward_program_answers_every_query_its_threshold_admits():
    # A tolerance of 1e-9*max(1, k t) on the D2 margin refused 24 of these
    # at large variances, e.g. (va, vb) = (1, 1000), d2 = 0.999 s at
    # r2 = thr - 1e-12, with "no feasible auxiliary found", and let through
    # auxiliaries breaking D2 by up to 3.4e-8 relative
    for va, vb, f, dr in itertools.product((0.001, 1.0, 10.0, 100.0), (0.0, 1.0, 1e3, 1e5),
                                           (0.999, 0.9995, 0.99999, 0.5, 0.01),
                                           (-1e-12, 0.0, 1e-9, 0.3)):
        s = va + vb
        d2 = f * s
        _answered_within_both_constraints(GaussianCascadeSource(va, vb, 1.0), 0.25 * va,
                                          d2, 0.5 * math.log2(s / d2) + dr)


def test_forward_program_at_small_variances_matches_unit_scale():
    # the absolute floor of that tolerance admitted a stationary alpha at
    # 2^-20 scale: r1 = 0.95191 against 1.01250, with D2 broken by 3.5 %
    q = (0.013197783189622234, 0.012559172757444155, 0.006968728109027255,
         0.003526904421006243)
    r2 = 1.4378609534248576
    unit = _answered_within_both_constraints(GaussianCascadeSource(q[0], q[1], 1.0),
                                             q[2], q[3], r2)
    va, vb, d1, d2 = (2.0 ** -20 * x for x in q)
    small = _answered_within_both_constraints(GaussianCascadeSource(va, vb, 1.0), d1, d2, r2)
    assert unit.r1 == pytest.approx(1.0125011871298, abs=1e-12)
    assert (small.r1, small.branch) == (unit.r1, unit.branch)


def test_forward_program_is_scale_invariant():
    # scaling every variance and distortion by c leaves r1 alone; the
    # tolerance's absolute floor moved it by up to 0.06 bits
    rng = np.random.default_rng(43)
    for i in range(1000):
        va, vb, d1, d2, _ = _forward_query(rng, i)
        r2 = 0.5 * math.log2((va + vb) / d2) + 10.0 ** rng.uniform(-6, 0.5)
        want = cascade_min_r1(GaussianCascadeSource(va, vb, 1.0), d1, d2, r2).r1
        for c in (2.0 ** -20, 1e-3, 1e3, 2.0 ** 20):
            got = cascade_min_r1(GaussianCascadeSource(c * va, c * vb, 1.0), c * d1, c * d2, r2)
            assert abs(got.r1 - want) <= 1e-11, (i, c, got, want)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cascade_min_r1(UNIT, 0.0, 0.5, 1.0), "d1 must be > 0, got 0.0",
                 id="d1-zero"),
    pytest.param(lambda: cascade_min_r1(UNIT, 0.25, 0.5, -1.0), "r2 must be >= 0, got -1.0",
                 id="r2-negative"),
    pytest.param(lambda: GaussianCascadeSource(0.0, 0.0, 0.0),
                 "at least one variance must be positive", id="all-variances-zero"),
    pytest.param(lambda: GaussianAux(1.0, 1.0, 0.0), "var_zstar must be positive",
                 id="var_zstar-zero"),
    pytest.param(lambda: extended_backward_achievability(
        GaussianCascadeSource(1.0, 1.0, 0.0), 0.1, 0.1, 1.0, 1.0),
        "source has Var(Z|Y) = 0; backward region is degenerate", id="backward-degenerate"),
    pytest.param(lambda: extended_backward_region_check(
        GaussianCascadeSource(1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.1, 0.1)),
        "source has Var(Z|Y) = 0; backward region is degenerate", id="region-degenerate"),
])
def test_out_of_range_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ----------------------------------------------------------- non-finite input


_TWO_WAY = two_way_triangular_min_r1
_EXT = extended_backward_achievability
_REGION = extended_backward_region_check


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda v: GaussianCascadeSource(v, 1.0, 1.0), "var_a", id="source-var_a"),
    pytest.param(lambda v: GaussianCascadeSource(1.0, v, 1.0), "var_b", id="source-var_b"),
    pytest.param(lambda v: GaussianCascadeSource(1.0, 1.0, v), "var_z", id="source-var_z"),
    pytest.param(lambda v: cascade_min_r1(UNIT, v, 0.5, 1.5), "d1", id="cascade-d1"),
    pytest.param(lambda v: cascade_min_r1(UNIT, 0.25, v, 1.5), "d2", id="cascade-d2"),
    pytest.param(lambda v: cascade_min_r1(UNIT, 0.25, 0.5, v), "r2", id="cascade-r2"),
    pytest.param(lambda v: triangular_min_r1(UNIT, 0.25, 0.5, 1.5, v), "r3",
                 id="triangular-r3"),
    pytest.param(lambda v: _TWO_WAY(UNIT, 0.25, 0.5, v, 1.5, 0.0, 1.0), "d3", id="two-way-d3"),
    pytest.param(lambda v: _TWO_WAY(UNIT, 0.25, 0.5, 0.3, 1.5, 0.0, v), "r4", id="two-way-r4"),
    pytest.param(lambda v: _EXT(UNIT, v, 0.25, 1.0, 1.0), "dz1", id="extended-dz1"),
    pytest.param(lambda v: _EXT(UNIT, 0.125, v, 1.0, 1.0), "dz2", id="extended-dz2"),
    pytest.param(lambda v: _EXT(UNIT, 0.125, 0.25, v, 1.0), "r3", id="extended-r3"),
    pytest.param(lambda v: _EXT(UNIT, 0.125, 0.25, 1.0, v), "r4", id="extended-r4"),
    pytest.param(lambda v: _REGION(UNIT, (v, 1.0, 0.0), (0.25, 0.125)), "r3", id="region-r3"),
    pytest.param(lambda v: _REGION(UNIT, (1.0, 1.0, v), (0.25, 0.125)), "r5", id="region-r5"),
    pytest.param(lambda v: _REGION(UNIT, (1.0, 1.0, 0.0), (0.25, v)), "dz2", id="region-dz2"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused_by_name(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)


# ------------------------------------------------------------------- oracle


def _oracle_full_scan(va, vb, d1, d2_eff, r2, n=800):
    """`gaussian_min_r1_oracle` as it was: every grid alpha tested, then the first feasible."""
    if va == 0.0:
        return 0.0
    k = va + vb - d2_eff
    if k <= 0:
        return max(0.5 * math.log2(va / d1), 0.0)
    t = 2.0 ** (2.0 * r2)
    tol = 1e-9 * max(1.0, k * t)
    alphas = np.concatenate([[0.0], np.logspace(-4, 4, n)])
    feas = [_beta_window_feasible(va, vb, k, t, a, tol) for a in alphas]
    if not any(feas):
        return None
    i = feas.index(True)
    if alphas[i] == 0.0:
        return max(0.5 * math.log2(va / d1), 0.0)
    fine = np.linspace(alphas[i - 1], alphas[i], n)
    alpha = float(alphas[i])
    for a in fine:
        if _beta_window_feasible(va, vb, k, t, float(a), tol):
            alpha = float(a)
            break
    return max(0.5 * math.log2(va / d1), 0.5 * math.log2(1.0 + alpha * alpha * va))


def test_oracle_stops_at_the_first_feasible_alpha_with_the_same_answers():
    # every fourth query has r2 below the threshold, so no grid alpha is
    # feasible; on the threshold (every third) the grid misses the one point too
    rng = np.random.default_rng(67)
    answers = []
    for i in range(500):
        va, vb, d1, d2, r2 = _forward_query(rng, i)
        if i % 4 == 1:
            r2 *= rng.uniform(0.0, 0.99)
        want = _oracle_full_scan(va, vb, d1, d2, r2)
        assert gaussian_min_r1_oracle(va, vb, d1, d2, r2) == want, (i, want)
        answers.append(want)
    assert sum(a is None for a in answers) >= 100
    assert sum(a is not None for a in answers) >= 250
