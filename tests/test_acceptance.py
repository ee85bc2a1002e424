"""Acceptance suite: one test per criterion, pinned tolerances, timed runs.

Each test prints an ACCEPTANCE line on success; a pytest failure on one of
these tests is the corresponding criterion failing.
"""

import math
import time

import numpy as np

from cascade_rd.discrete import (
    ORACLE_SLACK_BITS,
    AuxiliarySystem,
    SourceSpec,
    evaluate_point,
    min_r1_cascade_search,
    oracle_min_r1,
)
from cascade_rd.gaussian import (
    GaussianCascadeSource,
    cascade_min_r1,
    conditional_variance,
    extended_backward_achievability,
    extended_backward_region_check,
    equivalent_observation_transform,
    q_map,
    triangular_min_r1,
)
from cascade_rd.probability import (
    CondPMF,
    DeterministicMap,
    JointPMF,
    check_markov_chain,
    compose_markov_chain,
    conditional_mutual_information,
    kaspi_lemma_check,
)
from cascade_rd.simulate import TypicalityParams, run_simulation
from fixtures import HAMMING, binary_markov_source, h2, ident_source, rand_cond
from oracles import gaussian_min_r1_oracle
from test_probability import kaspi_violation_values


def sample_feasible_instance(rng):
    va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
    s = va + vb
    d1 = va * 10.0 ** rng.uniform(-1.3, -0.05)
    d2 = s * 10.0 ** rng.uniform(-1.2, -0.05)
    r2 = max(0.5 * math.log2(s / d2), 0.0) + rng.uniform(0.02, 2.0)
    return va, vb, vz, d1, d2, r2


def test_criterion_1_gaussian_solver_vs_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        va, vb, vz, d1, d2, r2 = sample_feasible_instance(rng)
        sol = cascade_min_r1(GaussianCascadeSource(va, vb, vz), d1, d2, r2)
        ora = gaussian_min_r1_oracle(va, vb, d1, d2, r2, n=800)
        assert ora is not None
        worst = max(worst, abs(sol.r1 - ora))
    elapsed = time.monotonic() - t0
    assert worst <= 2e-3, f"worst solver-oracle gap {worst:g} bits"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS (worst gap {worst:.2e} bits, {elapsed:.1f}s)")


def test_criterion_2_closed_form_degenerate_cases():
    rng = np.random.default_rng(7)
    for _ in range(20):
        va, vb, vz = 10.0 ** rng.uniform(-1, 1, size=3)
        d1 = va * 10.0 ** rng.uniform(-1.5, 0.5)
        d2 = (va + vb) * rng.uniform(1.0, 3.0)  # slack: constant U feasible
        r2 = rng.uniform(0.0, 2.0)
        sol = cascade_min_r1(GaussianCascadeSource(va, vb, vz), d1, d2, r2)
        expect = max(0.5 * math.log2(va / d1), 0.0)
        assert abs(sol.r1 - expect) <= 1e-9
    print("\nACCEPTANCE 2 PASS")


def test_criterion_3_reduction_lattice():
    rng = np.random.default_rng(11)
    # triangular at R3 = 0 collapses to the cascade program
    for _ in range(20):
        va, vb, vz, d1, d2, r2 = sample_feasible_instance(rng)
        src = GaussianCascadeSource(va, vb, vz)
        tri = triangular_min_r1(src, d1, d2, r2, 0.0)
        cas = cascade_min_r1(src, d1, d2, r2)
        assert abs(tri.r1 - cas.r1) <= 1e-9

    # two-way triangular evaluator with constant V equals the two-way cascade
    # evaluator, and with constant U2 equals the triangular one, exactly
    for _ in range(20):
        src = binary_markov_source(rng, d3=True)
        nu = int(rng.integers(2, 4))
        p_u = rand_cond(rng, (2, 2), nu)
        p_xhat1 = rand_cond(rng, (2, 2, nu), 2)
        p_u2 = rand_cond(rng, (2, nu), 2)
        g2 = DeterministicMap(rng.integers(0, 2, size=(nu, 2)), 2)
        g3 = DeterministicMap(rng.integers(0, 2, size=(nu, 2, 2, 2)), 2)
        twc_pt = evaluate_point(
            "two-way-cascade", src,
            AuxiliarySystem(p_u=p_u, p_xhat1=p_xhat1, p_u2=p_u2, g2=g2, g3=g3),
        )
        twt_pt = evaluate_point(
            "two-way-triangular", src,
            AuxiliarySystem(
                p_u=p_u, p_xhat1=p_xhat1,
                p_v=CondPMF(np.ones((2, 2, nu, 1))),
                p_u2=CondPMF(p_u2.table[:, :, None, :]),
                g2=DeterministicMap(g2.table[:, None, :], 2),
                g3=DeterministicMap(g3.table[:, :, None, :, :], 2),
            ),
        )
        assert (twt_pt.r1, twt_pt.r2, twt_pt.r4, twt_pt.d1, twt_pt.d2, twt_pt.d3) == (
            twc_pt.r1, twc_pt.r2, twc_pt.r3, twc_pt.d1, twc_pt.d2, twc_pt.d3,
        )
        assert twt_pt.r3 == 0.0

    for _ in range(20):
        src = binary_markov_source(rng, d3=True)
        nu, nv = int(rng.integers(2, 4)), 2
        p_u = rand_cond(rng, (2, 2), nu)
        p_xhat1 = rand_cond(rng, (2, 2, nu), 2)
        p_v = rand_cond(rng, (2, 2, nu), nv)
        g2 = DeterministicMap(rng.integers(0, 2, size=(nu, nv, 2)), 2)
        tri_pt = evaluate_point(
            "triangular", src, AuxiliarySystem(p_u=p_u, p_xhat1=p_xhat1, p_v=p_v, g2=g2)
        )
        twt_pt = evaluate_point(
            "two-way-triangular", src,
            AuxiliarySystem(
                p_u=p_u, p_xhat1=p_xhat1, p_v=p_v,
                p_u2=CondPMF(np.ones((2, nu, nv, 1))),
                g2=g2,
                g3=DeterministicMap(np.zeros((nu, 1, nv, 2, 2), dtype=int), 2),
            ),
        )
        assert (twt_pt.r1, twt_pt.r2, twt_pt.r3, twt_pt.d1, twt_pt.d2) == (
            tri_pt.r1, tri_pt.r2, tri_pt.r3, tri_pt.d1, tri_pt.d2,
        )
        assert twt_pt.r4 == 0.0
    print("\nACCEPTANCE 3 PASS")


def test_criterion_4_covariance_transform():
    # worked case is exact
    alpha, var_z = equivalent_observation_transform(GaussianCascadeSource(1, 1, 1))
    assert (alpha, var_z) == (0.5, 2.0)
    rng = np.random.default_rng(13)
    for _ in range(100):
        va, vb = 10.0 ** rng.uniform(-1, 1, size=2)
        src = GaussianCascadeSource(va, vb, rng.uniform(0.1, 10.0))
        a, vz_eq = equivalent_observation_transform(src)
        var_x = va + vb
        built = np.array(
            [[var_x, a * var_x], [a * var_x, a * a * (var_x + vz_eq)]]
        )
        target = np.array([[va + vb, vb], [vb, vb]])
        assert np.abs(built - target).max() <= 1e-12 * max(1.0, var_x)
    print("\nACCEPTANCE 4 PASS")


def test_criterion_5_backward_constructions():
    rng = np.random.default_rng(17)
    for case in (1, 2, 3):
        for _ in range(20):
            vb, vz = 10.0 ** rng.uniform(-1, 1, size=2)
            src = GaussianCascadeSource(1.0, vb, vz)
            s = src.var_z_given_y
            lo, hi = np.sort(rng.uniform(0.05, 0.95, size=2) * s)
            if lo == hi:
                continue
            dz1, dz2 = (lo, hi) if case == 1 else (hi, lo)
            # corner budget: R3 at its threshold, R4 per the case split
            r3 = 0.5 * math.log2(s / dz1)
            if case == 1:
                r4 = rng.uniform(0.0, 0.5 * math.log2(s / dz2))
            elif case == 2:
                r4 = r3 - rng.uniform(0.0, r3)
            else:
                r4 = r3 + rng.uniform(0.01, 1.0)
            con = extended_backward_achievability(src, dz1, dz2, r3, r4)
            assert con.case_id == case
            chk = extended_backward_region_check(
                src, (con.r3, con.r4, con.r5), (dz1, dz2)
            )
            assert min(chk.slacks) >= -1e-9
            assert abs(con.dist_z1 - dz1) <= 1e-9
            assert abs(con.dist_z2 - dz2) <= 1e-9
            # the test-channel property behind the construction
            for x in (dz1, dz2):
                q = q_map(x, s)
                cov = np.array(
                    [[vz, vz, vz], [vz, vb + vz, vz], [vz, vz, vz + q]]
                )
                assert abs(conditional_variance(cov, 0, [1, 2]) - x) <= 1e-10
    print("\nACCEPTANCE 5 PASS")


def test_criterion_6_kaspi_lemma():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(200):
        sizes = rng.integers(2, 4, size=4)
        p1 = JointPMF(rng.dirichlet(np.ones(sizes[0] * sizes[2])).reshape(
            sizes[0], sizes[2]))
        p2 = JointPMF(rng.dirichlet(np.ones(sizes[1] * sizes[3])).reshape(
            sizes[1], sizes[3]))
        nm1, nm2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        m1 = DeterministicMap(rng.integers(0, nm1, size=(sizes[0], sizes[1])), nm1)
        m2 = DeterministicMap(
            rng.integers(0, nm2, size=(sizes[2], sizes[3], nm1)), nm2
        )
        worst = max(worst, max(kaspi_lemma_check(p1, p2, m1, m2)))
    assert worst <= 1e-10, f"worst identity value {worst:g}"

    control_rng = np.random.default_rng(23)
    trials = 60
    hits = sum(max(kaspi_violation_values(control_rng)) > 1e-3
               for _ in range(trials))
    assert hits >= 0.9 * trials
    print(f"\nACCEPTANCE 6 PASS (worst identity {worst:.2e}, "
          f"control hits {hits}/{trials})")


def test_criterion_7_discrete_search_vs_oracle():
    # instance A: Y = X, Z constant, Hamming, D1 = 0; the oracle frontier's
    # rate envelope follows 1 - h2(d2) and the search must not be dominated
    src = ident_source()
    t0 = time.monotonic()
    for q_num in (2, 3):
        q = q_num / 9.0
        r2_env = 1.0 - h2(q)
        ora = oracle_min_r1(src, u_size=2, resolution=9,
                            d1_target=1e-9, d2_target=q + 0.01,
                            r2_budget=r2_env + 0.01)
        assert ora is not None
        # below the envelope (minus grid slack) the oracle has no points
        assert oracle_min_r1(src, u_size=2, resolution=9,
                             d1_target=1e-9, d2_target=q + 0.01,
                             r2_budget=r2_env - 0.03) is None
        res = min_r1_cascade_search(src, 0.0, q + 0.01, r2_env + 0.01,
                                    u_size=2, restarts=8)
        assert res.r1 <= ora + ORACLE_SLACK_BITS[9]
    elapsed_a = time.monotonic() - t0
    assert elapsed_a < 300.0

    # instance B: noisy side information chain, |U| = 3 against the
    # resolution-4 lattice, |U| = 2 against resolution 9
    pmf = compose_markov_chain(
        np.array([0.5, 0.5]),
        CondPMF(np.array([[0.8, 0.2], [0.2, 0.8]])),
        CondPMF(np.array([[0.7, 0.3], [0.3, 0.7]])),
    )
    src_b = SourceSpec(pmf, HAMMING, HAMMING)
    query = dict(d1_target=0.1, d2_target=0.3, r2_budget=0.4)
    t0 = time.monotonic()
    ora2 = oracle_min_r1(src_b, u_size=2, resolution=9, **query)
    res2 = min_r1_cascade_search(src_b, u_size=2, restarts=8, **query)
    assert ora2 is not None
    assert res2.r1 <= ora2 + ORACLE_SLACK_BITS[9]
    elapsed_b = time.monotonic() - t0
    assert elapsed_b < 300.0

    t0 = time.monotonic()
    ora3 = oracle_min_r1(src_b, u_size=3, resolution=4, **query)
    res3 = min_r1_cascade_search(src_b, u_size=3, restarts=8, **query)
    assert ora3 is not None
    assert res3.r1 <= ora3 + ORACLE_SLACK_BITS[4]
    elapsed_c = time.monotonic() - t0
    assert elapsed_c < 300.0
    print(f"\nACCEPTANCE 7 PASS (instances {elapsed_a:.0f}s / "
          f"{elapsed_b:.0f}s / {elapsed_c:.0f}s)")


def test_criterion_8_simulator_trend():
    # Y = X uniform binary, Z constant, Hamming. The auxiliary is an erasure
    # description (U = X w.p. 0.65, erased otherwise): its zero-probability
    # cross symbols give wrong codewords a hard exponential typicality decay,
    # and I(U;X) - delta = 0.5 keeps the codebook/bin ceiling padding aligned
    # across all four blocklengths, so the event trends are clean.
    src = ident_source()
    pu = np.zeros((2, 2, 3))
    pu[0, :, 0] = 0.65
    pu[0, :, 2] = 0.35
    pu[1, :, 1] = 0.65
    pu[1, :, 2] = 0.35
    pxh = np.zeros((2, 2, 3, 2))
    pxh[:, :, 0, 0] = 1.0
    pxh[:, :, 1, 1] = 1.0
    pxh[:, :, 2, 0] = 1.0
    aux = AuxiliarySystem(
        p_u=CondPMF(pu), p_xhat1=CondPMF(pxh),
        g2=DeterministicMap(np.array([[0], [1], [0]]), 2),
    )
    eps = 0.65
    trials = 2000
    t0 = time.monotonic()
    results = {
        n: run_simulation(src, aux, TypicalityParams(epsilon=eps, n=n),
                          delta=0.15, trials=trials, seed=0)
        for n in (8, 12, 16, 20)
    }
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"

    def ci(rate):
        return 1.96 * math.sqrt(rate * (1.0 - rate) / trials)

    for event in (1, 4, 5):
        rates = [results[n].event_rates()[event] for n in (8, 12, 16, 20)]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + ci(a) + ci(b), (
                f"E{event} rose {a:.4f} -> {b:.4f} beyond CI overlap "
                f"(sequence {rates})"
            )

    final = results[20]
    assert final.clean_trials >= 0.3 * trials  # the scheme genuinely works
    point = evaluate_point("cascade", src, aux)
    assert final.d2_mean_clean <= point.d2 + eps * 1.0 + final.d2_ci_clean
    print(f"\nACCEPTANCE 8 PASS ({elapsed:.1f}s, "
          f"E1={[round(results[n].event_rates()[1], 3) for n in (8, 12, 16, 20)]}, "
          f"E4={[round(results[n].event_rates()[4], 3) for n in (8, 12, 16, 20)]}, "
          f"E5={[round(results[n].event_rates()[5], 3) for n in (8, 12, 16, 20)]})")


def test_criterion_9_information_measure_suite():
    rng = np.random.default_rng(29)
    for trial in range(500):
        if trial % 2 == 0:
            sizes = tuple(rng.integers(2, 4, size=3))
            pmf = JointPMF(rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes))
            a, b, c = ([0], [1], [2])
        else:
            sizes = tuple(rng.integers(2, 3, size=4))
            pmf = JointPMF(rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes))
            a, b, c = ([0], [1, 3], [2])
        # chain rule
        lhs = conditional_mutual_information(pmf, a, list(b) + list(c))
        rhs = conditional_mutual_information(pmf, a, c) + \
            conditional_mutual_information(pmf, a, b, c)
        assert abs(lhs - rhs) <= 1e-10
        # nonnegativity
        assert conditional_mutual_information(pmf, a, b, c) >= 0.0
        # composed chains have zero Markov deviation
        if trial % 5 == 0:
            chain = compose_markov_chain(
                rng.dirichlet(np.ones(2)),
                rand_cond(rng, (2,), 3),
                rand_cond(rng, (3,), 2),
            )
            assert check_markov_chain(chain, ([0], [1], [2])) <= 1e-12
    print("\nACCEPTANCE 9 PASS")
