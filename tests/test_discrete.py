import numpy as np
import pytest

from cascade_rd import discrete
from cascade_rd.discrete import (
    _SETTINGS,
    AuxiliarySystem,
    RegionPoint,
    SourceSpec,
    _pareto_min,
    _xhat1_rd_solve,
    _xhat1_zero_rate,
    brute_force_region_oracle,
    evaluate_point,
    load_aux,
    load_source_spec,
    min_r1_cascade_search,
    oracle_min_r1,
    save_aux,
    save_source_spec,
)
from cascade_rd.errors import FactorizationError, InfeasibleError, ResourceLimitError
from cascade_rd.probability import (
    CondPMF,
    DeterministicMap,
    JointPMF,
    cmi,
    compose_markov_chain,
    joint,
)
from oracles import blend_to_rate_bisection
from test_golden_search import DSBS, bsc, digest, dsbs_source, ternary_source

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def rand_cond(rng, ins, out):
    return CondPMF(rng.dirichlet(np.ones(out), size=ins))


def binary_markov_source(rng, d3=False):
    px = rng.dirichlet(np.ones(2))
    pyx = rand_cond(rng, (2,), 2)
    pzy = rand_cond(rng, (2,), 2)
    pmf = compose_markov_chain(px, pyx, pzy)
    return SourceSpec(pmf, HAMMING, HAMMING, d3=HAMMING if d3 else None)


def ident_source():
    # Y = X uniform binary, Z constant
    pxyz = np.zeros((2, 2, 1))
    pxyz[0, 0, 0] = 0.5
    pxyz[1, 1, 0] = 0.5
    return SourceSpec(JointPMF(pxyz), HAMMING, HAMMING)


def random_cascade_aux(rng, nu=3):
    return AuxiliarySystem(
        p_u=rand_cond(rng, (2, 2), nu),
        p_xhat1=rand_cond(rng, (2, 2, nu), 2),
        g2=DeterministicMap(rng.integers(0, 2, size=(nu, 2)), 2),
    )


def slow_cmi(joint, sa, sb, sc):
    """Direct-definition conditional MI, nested loops over every cell."""
    probs = joint.probs if isinstance(joint, JointPMF) else joint
    arity = probs.ndim

    def key(idx, axes):
        return tuple(idx[a] for a in axes)

    def marg(axes):
        acc = {}
        for idx in np.ndindex(*probs.shape):
            k = key(idx, axes)
            acc[k] = acc.get(k, 0.0) + probs[idx]
        return acc

    sa, sb, sc = tuple(sa), tuple(sb), tuple(sc)
    a_c = marg(sa + sc)
    b_c = marg(sb + sc)
    ab_c = marg(sa + sb + sc)
    c_m = marg(sc)
    total = 0.0
    for k_abc, pab in ab_c.items():
        if pab <= 0:
            continue
        ka = k_abc[: len(sa)] + k_abc[len(sa) + len(sb):]
        kb = k_abc[len(sa):]
        kc = k_abc[len(sa) + len(sb):]
        pc = c_m[kc] if sc else 1.0
        total += pab * np.log2(pab * pc / (a_c[ka] * b_c[kb]))
    return max(0.0, total)


# ------------------------------------------------------------- point evaluators


def test_cascade_identity_channels():
    src = ident_source()
    pu = np.zeros((2, 2, 2))
    pu[0, :, 0] = 1.0
    pu[1, :, 1] = 1.0
    pxh = np.zeros((2, 2, 2, 2))
    pxh[0, :, :, 0] = 1.0
    pxh[1, :, :, 1] = 1.0
    aux = AuxiliarySystem(
        p_u=CondPMF(pu),
        p_xhat1=CondPMF(pxh),
        g2=DeterministicMap(np.array([[0], [1]]), 2),
    )
    pt = evaluate_point("cascade", src, aux)
    assert pt.r1 == pytest.approx(0.0, abs=1e-12)  # Y carries X already
    assert pt.r2 == pytest.approx(1.0, abs=1e-12)
    assert pt.d1 == pytest.approx(0.0, abs=1e-15)
    assert pt.d2 == pytest.approx(0.0, abs=1e-15)


def test_cascade_uninformative_aux():
    src = ident_source()
    aux = AuxiliarySystem(
        p_u=CondPMF(np.full((2, 2, 2), 0.5)),
        p_xhat1=CondPMF(np.full((2, 2, 2, 2), 0.5)),
        g2=DeterministicMap(np.zeros((2, 1), dtype=int), 2),
    )
    pt = evaluate_point("cascade", src, aux)
    assert pt.r1 == pytest.approx(0.0, abs=1e-12)
    assert pt.r2 == pytest.approx(0.0, abs=1e-12)
    assert pt.d2 == pytest.approx(0.5, abs=1e-12)  # best constant guess


def test_cascade_matches_direct_definition():
    rng = np.random.default_rng(2)
    for _ in range(5):
        src = binary_markov_source(rng)
        aux = random_cascade_aux(rng)
        pt = evaluate_point("cascade", src, aux)
        joint = (
            src.pmf.probs[:, :, :, None, None]
            * aux.p_u.table[:, :, None, :, None]
            * aux.p_xhat1.table[:, :, None, :, :]
        )
        assert pt.r1 == pytest.approx(slow_cmi(joint, (0,), (4, 3), (1,)), abs=1e-10)
        assert pt.r2 == pytest.approx(slow_cmi(joint, (3,), (0, 1), (2,)), abs=1e-10)
        # distortions against plain loops
        d1v = 0.0
        d2v = 0.0
        for idx in np.ndindex(*joint.shape):
            x, y, z, u, xh = idx
            d1v += joint[idx] * HAMMING[x, xh]
            d2v += joint[idx] * HAMMING[x, aux.g2.table[u, z]]
        assert pt.d1 == pytest.approx(d1v, abs=1e-12)
        assert pt.d2 == pytest.approx(d2v, abs=1e-12)


def test_cascade_data_processing_identity():
    # under the factorization U - (X,Y) - Z: I(U;X,Y|Z) = I(U;X,Y) - I(U;Z)
    rng = np.random.default_rng(3)
    for _ in range(10):
        src = binary_markov_source(rng)
        aux = random_cascade_aux(rng)
        pt = evaluate_point("cascade", src, aux)
        joint = JointPMF(
            src.pmf.probs[:, :, :, None] * aux.p_u.table[:, :, None, :]
        )
        from cascade_rd.probability import conditional_mutual_information as cmi

        lhs = pt.r2
        rhs = cmi(joint, [3], [0, 1]) - cmi(joint, [3], [2])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_cascade_rejects_non_markov_source():
    joint = np.zeros((2, 2, 2))
    joint[0, :, 0] = 0.25
    joint[1, :, 1] = 0.25
    with pytest.raises(FactorizationError):
        SourceSpec(JointPMF(joint), HAMMING, HAMMING)


def test_cascade_budget_enforced():
    rng = np.random.default_rng(4)
    src = binary_markov_source(rng)
    aux = random_cascade_aux(rng, nu=8)  # budget for binary is |X||Y|+3 = 7
    with pytest.raises(ValueError):
        evaluate_point("cascade", src, aux)


def test_triangular_constant_and_copy_v():
    rng = np.random.default_rng(5)
    src = binary_markov_source(rng)
    base = random_cascade_aux(rng)
    nu = base.p_u.output_size
    # constant V: r3 = 0 and (r1, r2) match the cascade evaluator exactly
    aux_const = AuxiliarySystem(
        p_u=base.p_u,
        p_xhat1=base.p_xhat1,
        p_v=CondPMF(np.ones((2, 2, nu, 1))),
        g2=DeterministicMap(base.g2.table[:, None, :], 2),
    )
    tri = evaluate_point("triangular", src, aux_const)
    cas = evaluate_point("cascade", src, base)
    assert tri.r3 == 0.0
    assert (tri.r1, tri.r2, tri.d1, tri.d2) == (cas.r1, cas.r2, cas.d1, cas.d2)
    # V = copy of U: conditionally deterministic given U, so r3 = 0
    copy_table = np.zeros((2, 2, nu, nu))
    for u in range(nu):
        copy_table[:, :, u, u] = 1.0
    aux_copy = AuxiliarySystem(
        p_u=base.p_u,
        p_xhat1=base.p_xhat1,
        p_v=CondPMF(copy_table),
        g2=DeterministicMap(np.repeat(base.g2.table[:, None, :], nu, axis=1), 2),
    )
    assert evaluate_point("triangular", src, aux_copy).r3 == pytest.approx(0.0, abs=1e-12)


def test_two_way_cascade_constant_u2():
    rng = np.random.default_rng(6)
    src = binary_markov_source(rng, d3=True)
    base = random_cascade_aux(rng)
    nu = base.p_u.output_size
    aux = AuxiliarySystem(
        p_u=base.p_u,
        p_xhat1=base.p_xhat1,
        p_u2=CondPMF(np.ones((2, nu, 1))),
        g2=base.g2,
        g3=DeterministicMap(rng.integers(0, 2, size=(nu, 1, 2, 2)), 2),
    )
    pt = evaluate_point("two-way-cascade", src, aux)
    assert pt.r3 == 0.0
    assert pt.d3 is not None and pt.d3 >= 0.0


def test_two_way_cascade_y_equals_x_wyner_ziv_structure():
    # with Y = X the backward bound collapses to I(U2; Z | U1, X)
    rng = np.random.default_rng(7)
    pxyz = np.zeros((2, 2, 2))
    pzx = rand_cond(rng, (2,), 2)
    for x in range(2):
        pxyz[x, x, :] = 0.5 * pzx.table[x]
    src = SourceSpec(JointPMF(pxyz), HAMMING, HAMMING, d3=HAMMING)
    nu = 2
    aux = AuxiliarySystem(
        p_u=rand_cond(rng, (2, 2), nu),
        p_xhat1=rand_cond(rng, (2, 2, nu), 2),
        p_u2=rand_cond(rng, (2, nu), 2),
        g2=DeterministicMap(rng.integers(0, 2, size=(nu, 2)), 2),
        g3=DeterministicMap(rng.integers(0, 2, size=(nu, 2, 2, 2)), 2),
    )
    pt = evaluate_point("two-way-cascade", src, aux)
    joint = (
        src.pmf.probs[:, :, :, None, None]
        * aux.p_u.table[:, :, None, :, None]
        * aux.p_u2.table[None, None, :, :, :]
    )
    assert pt.r3 == pytest.approx(slow_cmi(joint, (4,), (2,), (3, 0)), abs=1e-10)


def test_reduction_lattice_exact():
    rng = np.random.default_rng(8)
    for _ in range(20):
        src = binary_markov_source(rng, d3=True)
        nu = int(rng.integers(2, 4))
        p_u = rand_cond(rng, (2, 2), nu)
        p_xhat1 = rand_cond(rng, (2, 2, nu), 2)
        p_v = rand_cond(rng, (2, 2, nu), 2)
        nv = 2
        p_u2 = rand_cond(rng, (2, nu), 2)
        g2_cas = DeterministicMap(rng.integers(0, 2, size=(nu, 2)), 2)
        g2_tri = DeterministicMap(rng.integers(0, 2, size=(nu, nv, 2)), 2)
        g3_cas = DeterministicMap(rng.integers(0, 2, size=(nu, 2, 2, 2)), 2)

        # two-way triangular evaluator with constant V equals the two-way cascade one
        twc_pt = evaluate_point(
            "two-way-cascade", src,
            AuxiliarySystem(p_u=p_u, p_xhat1=p_xhat1, p_u2=p_u2,
                            g2=g2_cas, g3=g3_cas),
        )
        twt_const_v = evaluate_point(
            "two-way-triangular", src,
            AuxiliarySystem(
                p_u=p_u,
                p_xhat1=p_xhat1,
                p_v=CondPMF(np.ones((2, 2, nu, 1))),
                p_u2=CondPMF(p_u2.table[:, :, None, :]),
                g2=DeterministicMap(g2_cas.table[:, None, :], 2),
                g3=DeterministicMap(g3_cas.table[:, :, None, :, :], 2),
            ),
        )
        assert (twt_const_v.r1, twt_const_v.r2, twt_const_v.r4) == (
            twc_pt.r1, twc_pt.r2, twc_pt.r3,
        )
        assert twt_const_v.r3 == 0.0
        assert (twt_const_v.d1, twt_const_v.d2, twt_const_v.d3) == (
            twc_pt.d1, twc_pt.d2, twc_pt.d3,
        )

        # two-way triangular evaluator with constant U2 equals the plain triangular one
        tri_pt = evaluate_point(
            "triangular", src, AuxiliarySystem(p_u=p_u, p_xhat1=p_xhat1, p_v=p_v, g2=g2_tri)
        )
        twt_const_u2 = evaluate_point(
            "two-way-triangular", src,
            AuxiliarySystem(
                p_u=p_u,
                p_xhat1=p_xhat1,
                p_v=p_v,
                p_u2=CondPMF(np.ones((2, nu, nv, 1))),
                g2=g2_tri,
                g3=DeterministicMap(np.zeros((nu, 1, nv, 2, 2), dtype=int), 2),
            ),
        )
        assert (twt_const_u2.r1, twt_const_u2.r2, twt_const_u2.r3) == (
            tri_pt.r1, tri_pt.r2, tri_pt.r3,
        )
        assert twt_const_u2.r4 == 0.0
        assert (twt_const_u2.d1, twt_const_u2.d2) == (tri_pt.d1, tri_pt.d2)

        # triangular with constant V equals plain cascade
        cas_pt = evaluate_point(
            "cascade", src, AuxiliarySystem(p_u=p_u, p_xhat1=p_xhat1, g2=g2_cas)
        )
        tri_const_v = evaluate_point(
            "triangular", src,
            AuxiliarySystem(
                p_u=p_u,
                p_xhat1=p_xhat1,
                p_v=CondPMF(np.ones((2, 2, nu, 1))),
                g2=DeterministicMap(g2_cas.table[:, None, :], 2),
            ),
        )
        assert (tri_const_v.r1, tri_const_v.r2) == (cas_pt.r1, cas_pt.r2)
        assert tri_const_v.r3 == 0.0


def test_helper_constant_uh_reduces_to_triangular():
    rng = np.random.default_rng(9)
    src = binary_markov_source(rng)
    nu, nv = 2, 2
    p_u = rand_cond(rng, (2, 2), nu)
    p_xhat1 = rand_cond(rng, (2, 2, nu), 2)
    p_v = rand_cond(rng, (2, 2, nu), nv)
    g2 = DeterministicMap(rng.integers(0, 2, size=(nu, nv, 2)), 2)
    tri = evaluate_point(
        "triangular", src, AuxiliarySystem(p_u=p_u, p_xhat1=p_xhat1, p_v=p_v, g2=g2)
    )
    helper = evaluate_point(
        "helper", src,
        AuxiliarySystem(
            p_uh=CondPMF(np.ones((2, 1))),
            p_u=CondPMF(p_u.table[:, :, None, :]),
            p_xhat1=CondPMF(p_xhat1.table[:, :, None, :, :]),
            p_v=CondPMF(p_v.table[:, :, None, :, :]),
            g2=DeterministicMap(g2.table[:, :, None, :], 2),
        ),
    )
    assert (helper.r1, helper.r2, helper.r3) == (tri.r1, tri.r2, tri.r3)
    assert helper.rh == 0.0
    assert (helper.d1, helper.d2) == (tri.d1, tri.d2)


def test_helper_identity_uh_rate_is_source_entropy():
    # U_h = Y with Z constant: R_h = H(Y)
    rng = np.random.default_rng(10)
    px = np.array([0.35, 0.65])
    pyx = rand_cond(rng, (2,), 2)
    pzy = CondPMF(np.ones((2, 1)))
    src = SourceSpec(compose_markov_chain(px, pyx, pzy), HAMMING, HAMMING)
    nu = 2
    ident = np.zeros((2, 2))
    ident[0, 0] = ident[1, 1] = 1.0
    aux = AuxiliarySystem(
        p_uh=CondPMF(ident),
        p_u=rand_cond(rng, (2, 2, 2), nu),
        p_xhat1=rand_cond(rng, (2, 2, 2, nu), 2),
        p_v=rand_cond(rng, (2, 2, 2, nu), 2),
        g2=DeterministicMap(rng.integers(0, 2, size=(nu, 2, 2, 1)), 2),
    )
    pt = evaluate_point("helper", src, aux)
    py = src.pmf.marginal([1])
    h_y = float(-(py[py > 0] * np.log2(py[py > 0])).sum())
    assert pt.rh == pytest.approx(h_y, abs=1e-12)


# --------------------------------------------------------------------- search


def test_search_trivial_when_distortions_slack():
    rng = np.random.default_rng(11)
    src = binary_markov_source(rng)
    res = min_r1_cascade_search(src, d1_target=1.0, d2_target=1.0,
                                r2_budget=0.0, u_size=2, restarts=2)
    assert res.r1 == pytest.approx(0.0, abs=1e-9)


def test_search_self_consistency():
    rng = np.random.default_rng(12)
    src = binary_markov_source(rng)
    res = min_r1_cascade_search(src, d1_target=0.2, d2_target=0.35,
                                r2_budget=0.5, u_size=2, restarts=3)
    pt = evaluate_point("cascade", src, res.aux)
    assert pt.r1 == pytest.approx(res.point.r1, abs=1e-9)
    assert pt.r2 == pytest.approx(res.point.r2, abs=1e-9)
    assert pt.d1 == pytest.approx(res.point.d1, abs=1e-9)
    assert pt.d2 == pytest.approx(res.point.d2, abs=1e-9)
    assert pt.r2 <= 0.5 + 1e-9
    assert pt.d1 <= 0.2 + 1e-9
    assert pt.d2 <= 0.35 + 1e-9


def test_search_monotone_in_budgets():
    src = ident_source()
    r1s = [
        min_r1_cascade_search(src, 0.0, d2, 0.6, u_size=2, restarts=3).r1
        for d2 in (0.15, 0.3, 0.45)
    ]
    assert all(a >= b - 1e-6 for a, b in zip(r1s, r1s[1:]))
    rng = np.random.default_rng(21)
    src_b = binary_markov_source(rng)
    by_r2 = [
        min_r1_cascade_search(src_b, 0.15, 0.35, r2, u_size=2, restarts=3).r1
        for r2 in (0.3, 0.6)
    ]
    # multi-start noise allowance on top of the monotone trend
    assert by_r2[0] >= by_r2[1] - 0.02


def test_search_infeasible_distortion():
    # distortion table with a strictly positive floor of 0.2
    pxyz = np.zeros((2, 2, 1))
    pxyz[0, 0, 0] = 0.5
    pxyz[1, 1, 0] = 0.5
    lifted = np.array([[0.2, 1.0], [1.0, 0.2]])
    src = SourceSpec(JointPMF(pxyz), lifted, lifted)
    with pytest.raises(InfeasibleError):
        min_r1_cascade_search(src, d1_target=0.1, d2_target=0.25,
                              r2_budget=1.0, u_size=2)


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


# (d1, d2, r2, restarts) on acceptance 7's instance B. The first six bind d2
# or couple the relay and the terminal, the last two have few restarts; the
# restarts alone answer none of them.
FLOOR_QUERIES = [(0.2, 0.15, 1.0, 8), (0.15, 0.15, 1.0, 8), (0.2, 0.15, 0.7, 8),
                 (0.1, 0.12, 1.0, 8), (0.1, 0.25, 0.5, 8), (0.12, 0.3, 0.15, 8),
                 (0.05, 0.3, 0.4, 1), (0.05, 0.3, 0.3, 2)]


@pytest.mark.parametrize("d1, d2, r2, restarts", FLOOR_QUERIES)
def test_search_answers_on_the_relay_floor(d1, d2, r2, restarts):
    pmf = compose_markov_chain(np.array([0.5, 0.5]),
                               CondPMF(np.array([[0.8, 0.2], [0.2, 0.8]])),
                               CondPMF(np.array([[0.7, 0.3], [0.3, 0.7]])))
    src = SourceSpec(pmf, HAMMING, HAMMING)
    res = min_r1_cascade_search(src, d1, d2, r2, u_size=2, restarts=restarts, seed=0)
    # the conditional rate-distortion floor of the doubly symmetric source
    assert res.r1 == pytest.approx(h2(0.2) - h2(min(d1, d2)), abs=1e-6)
    assert res.path == "relay-floor"
    pt = evaluate_point("cascade", src, res.aux)
    assert pt.r1 == pytest.approx(res.r1, abs=1e-12)
    assert pt.d1 <= d1 + 1e-9 and pt.d2 <= d2 + 1e-9 and pt.r2 <= r2 + 1e-9


@pytest.mark.parametrize("name", ["d1_target", "d2_target", "r2_budget"])
def test_search_and_oracle_refuse_a_nan_target_by_name_before_any_solve(monkeypatch, name):
    # a NaN passed every range check: the search ran its restarts and called
    # the query infeasible, and the oracle answered None
    calls = []
    monkeypatch.setattr(discrete, "_xhat1_rd_solve", lambda *args: calls.append(args))
    monkeypatch.setattr(discrete, "_enumerate_oracle_points", lambda *args: calls.append(args))
    query = {"d1_target": 0.1, "d2_target": 0.3, "r2_budget": 0.4}
    query[name] = float("nan")
    with pytest.raises(ValueError, match=f"{name} must be a number, got nan"):
        min_r1_cascade_search(dsbs_source(), u_size=2, restarts=2, **query)
    with pytest.raises(ValueError, match=f"{name} must be a number, got nan"):
        oracle_min_r1(dsbs_source(), 2, 5, **query)
    assert calls == [] and discrete._anchor.cache_info().currsize == 0
    assert discrete._oracle_table.cache_info().currsize == 0


def test_search_takes_infinite_targets():
    src = dsbs_source()
    res = min_r1_cascade_search(src, np.inf, 0.3, 0.4, u_size=2, restarts=2)
    assert (res.r1, res.path) == (0.0, "relay-floor")
    res = min_r1_cascade_search(src, 0.1, np.inf, np.inf, u_size=2, restarts=2)
    assert res.r1 == pytest.approx(h2(0.2) - h2(0.1), abs=1e-12)


# --------------------------------------------------------------------- oracle


def test_oracle_resolution_one_single_uninformative_point():
    front = brute_force_region_oracle(ident_source(), u_size=2, resolution=1)
    assert len(front) == 1
    p = front[0]
    assert (p.r1, p.r2) == (0.0, 0.0)
    assert p.d1 == pytest.approx(0.5)
    assert p.d2 == pytest.approx(0.5)


def test_oracle_contains_identity_point():
    front = brute_force_region_oracle(ident_source(), u_size=2, resolution=2)
    assert any(
        abs(p.r1) < 1e-9 and abs(p.r2 - 1) < 1e-9 and abs(p.d1) < 1e-9
        and abs(p.d2) < 1e-9
        for p in front
    )


def test_oracle_resource_caps():
    src = ident_source()
    with pytest.raises(ResourceLimitError):
        brute_force_region_oracle(src, u_size=4, resolution=3)
    with pytest.raises(ResourceLimitError):
        brute_force_region_oracle(src, u_size=3, resolution=10)
    with pytest.raises(ResourceLimitError):
        brute_force_region_oracle(src, u_size=3, resolution=9)  # 9.1M channels


def test_search_not_dominated_by_oracle():
    rng = np.random.default_rng(13)
    src = binary_markov_source(rng)
    query = dict(d1_target=0.15, d2_target=0.35, r2_budget=0.5)
    res = min_r1_cascade_search(src, u_size=2, restarts=4, **query)
    ora = oracle_min_r1(src, u_size=2, resolution=5, **query)
    assert ora is None or res.r1 <= ora + 0.06  # documented slack at resolution 5


BAD_SIZES = [(2, 0, "resolution"), (0, 5, "u_size"), (0, 1, "u_size"), (2, -1, "resolution")]


@pytest.mark.parametrize("u_size, resolution, name", BAD_SIZES)
@pytest.mark.parametrize("entry", ["oracle_min_r1", "brute_force_region_oracle"])
def test_oracle_refuses_bad_sizes_by_name_and_keeps_no_table(entry, u_size, resolution, name):
    # resolution 0 gave None (oracle_min_r1) or NaN distortions (the frontier),
    # u_size 0 a ZeroDivisionError, resolution -1 itertools' own message
    args = (dsbs_source(), u_size, resolution)
    with pytest.raises(ValueError, match=name):
        if entry == "oracle_min_r1":
            oracle_min_r1(*args, 0.1, 0.3, 0.4)
        else:
            brute_force_region_oracle(*args)
    assert discrete._oracle_table.cache_info().currsize == 0


def test_oracle_table_cap_names_points_and_bytes_and_keeps_the_old_table():
    src = dsbs_source()
    kept = discrete._oracle_table(src, 2, 5)
    # 55 lattice rows per (x, y) cell, 55^4 channels, 5 points per channel
    with pytest.raises(ResourceLimitError, match=r"45753125 points \(1464100000 bytes\)"):
        oracle_min_r1(src, 3, 9, 0.1, 0.3, 0.4)
    assert discrete._oracle_table(src, 2, 5) is kept


@pytest.mark.parametrize("source, u_size, resolution", [
    (dsbs_source, 1, 3), (dsbs_source, 2, 1), (dsbs_source, 2, 3), (dsbs_source, 3, 2),
    (ternary_source, 2, 1), (ternary_source, 2, 3)])
def test_oracle_table_is_the_enumeration_in_order(source, u_size, resolution):
    src = source()
    want = np.concatenate(list(discrete._enumerate_oracle_points(src, u_size, resolution)))
    got = discrete._oracle_table(src, u_size, resolution)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_oracle_table_is_kept_read_only():
    table = discrete._oracle_table(dsbs_source(), 2, 5)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert discrete._oracle_table(dsbs_source(), 2, 5) is table


def test_oracle_sources_that_differ_only_in_d2_get_their_own_answers():
    query = (0.1, 0.2, 0.4)
    base = dsbs_source()
    other = SourceSpec(base.pmf, HAMMING, 0.5 * HAMMING)
    want_base = oracle_min_r1(base, 2, 5, *query)
    discrete._oracle_table.cache_clear()
    want_other = oracle_min_r1(other, 2, 5, *query)
    assert want_base != want_other
    for _ in range(2):
        assert oracle_min_r1(base, 2, 5, *query) == want_base
        assert oracle_min_r1(other, 2, 5, *query) == want_other


def test_value_types_own_read_only_copies_of_their_tables():
    # writing into the arrays passed in cannot undo the checks made on them
    probs, d1 = np.full((2, 2, 2), 0.125), HAMMING.copy()
    src = SourceSpec(JointPMF(probs), d1, HAMMING)
    p_u, g2 = np.full((2, 2, 2), 0.5), np.array([[0, 1], [1, 0]])
    aux = AuxiliarySystem(p_u=CondPMF(p_u), g2=DeterministicMap(g2, 2))
    probs[0, 0, 0], probs[1, 1, 1], d1[0, 1], p_u[0, 0, 0], g2[0, 0] = 5.0, -1.0, np.nan, 9.0, 7
    assert src.pmf.probs.sum() == 1.0 and (src.pmf.probs >= 0).all()
    assert np.array_equal(src.d1, HAMMING)
    assert (aux.p_u.table == 0.5).all() and aux.g2.table[0, 0] == 0
    for table in (src.pmf.probs, src.d1, src.d2, aux.p_u.table, aux.g2.table):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


def test_value_types_of_equal_content_compare_equal_and_hash_alike():
    # a dataclass == compared the arrays elementwise and raised ValueError
    src = dsbs_source()
    aux = AuxiliarySystem(p_u=CondPMF(np.full((2, 2, 2), 0.5)),
                          g2=DeterministicMap(np.array([[0, 1], [1, 0]]), 2))
    for value, twin in ((src, load_source_spec(save_source_spec(src))),
                        (src.pmf, JointPMF(src.pmf.probs.copy())),
                        (aux, load_aux(save_aux(aux))), (aux.p_u, CondPMF(aux.p_u.table)),
                        (aux.g2, DeterministicMap(aux.g2.table, 2))):
        assert value is not twin and value == twin and hash(value) == hash(twin)
    assert src != SourceSpec(src.pmf, src.d1, 0.5 * src.d2)
    assert aux.g2 != DeterministicMap(aux.g2.table, 3)
    table = np.full((1, 4), 0.25)  # a valid joint pmf and a valid channel
    assert JointPMF(table) != CondPMF(table)


def test_reloaded_source_reuses_the_oracle_table(monkeypatch):
    calls = []
    enumerate_points = discrete._enumerate_oracle_points

    def counted(*args):
        calls.append(args[1:])
        return enumerate_points(*args)

    monkeypatch.setattr(discrete, "_enumerate_oracle_points", counted)
    src = dsbs_source()
    oracle_min_r1(src, 2, 5, *sorted(DSBS)[0])
    reloaded = load_source_spec(save_source_spec(src))
    for query in sorted(DSBS):
        assert oracle_min_r1(reloaded, 2, 5, *query).hex() == DSBS[query][-1]
    assert calls == [(2, 5)]


def test_dsbs_oracle_pins_hold_from_a_cold_and_a_warm_table():
    src = dsbs_source()
    for query, pins in sorted(DSBS.items()):
        discrete._oracle_table.cache_clear()
        assert oracle_min_r1(src, 2, 5, *query).hex() == pins[-1]
    for query, pins in sorted(DSBS.items()):
        assert oracle_min_r1(src, 2, 5, *query).hex() == pins[-1]


# ---------------------------------------------------------------- kept state


def test_dsbs_search_pins_hold_cold_and_warm():
    src = dsbs_source()

    def answer(query):
        res = min_r1_cascade_search(src, *query, u_size=2, restarts=2, seed=0)
        return res.r1.hex(), digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table)

    for query, pins in sorted(DSBS.items()):
        discrete._anchor.cache_clear()
        assert answer(query) == pins[:3]
    for _ in range(2):  # the first pass keeps each anchor, the second reads it
        for query, pins in sorted(DSBS.items()):
            assert answer(query) == pins[:3]


def test_search_solves_again_for_a_source_of_other_content(monkeypatch):
    solve, calls = discrete._xhat1_rd_solve, []

    def counted(*args):
        calls.append(args[3])
        return solve(*args)

    monkeypatch.setattr(discrete, "_xhat1_rd_solve", counted)
    base = dsbs_source()
    # each has base's shapes; the anchor alone meets (0.05, 0.5, 0.4) on
    # each, so no restart solves anything; base's anchor is kept across the
    # other sources' queries
    sources = [
        (base, [0.05]),
        (base, []),
        (load_source_spec(save_source_spec(base)), []),
        (SourceSpec(JointPMF(0.5 * bsc(0.25)[:, :, None] * bsc(0.3)[None]), HAMMING, HAMMING),
         [0.05]),
        (base, []),
        (SourceSpec(base.pmf, 0.5 * HAMMING, HAMMING), [0.05]),
        (SourceSpec(base.pmf, HAMMING, 0.5 * HAMMING), [0.05]),
    ]
    for src, want in sources:
        calls.clear()
        min_r1_cascade_search(src, 0.05, 0.5, 0.4, u_size=2, restarts=0)
        assert calls == want
    oracle_min_r1(sources[-1][0], 2, 5, 0.05, 0.5, 0.4)  # the same source: nothing dropped
    min_r1_cascade_search(sources[-1][0], 0.05, 0.5, 0.4, u_size=2, restarts=0)
    assert calls == [0.05]


def test_kept_anchors_and_relay_channels_stay_within_their_cap():
    src, cap = dsbs_source(), 256
    # from the zero-rate distortion 0.2 up, each relay solve returns at once
    targets = [float(t) for t in np.linspace(0.2, 0.5, cap + 10)]
    for t in targets:
        min_r1_cascade_search(src, t, 0.6, 1.0, u_size=2, restarts=0)
    for t in targets:
        min_r1_cascade_search(src, 0.6, t, 1.0, u_size=2, restarts=0)  # d1 > d2
    # (2, t) and then (1, t) for each t, and (2, 0.6)
    info = discrete._anchor.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (2 * len(targets) + 1, cap, cap)


def test_kept_arrays_are_read_only():
    src = dsbs_source()
    arrays = [*discrete._anchor(src, 2, 0.1)[:2], *discrete._anchor(src, 1, 0.1)[:2],
              discrete._oracle_table(src, 2, 3)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


# --------------------------------------------------------------- serialization


def test_source_spec_round_trip():
    rng = np.random.default_rng(14)
    src = binary_markov_source(rng, d3=True)
    back = load_source_spec(save_source_spec(src))
    assert np.array_equal(back.pmf.probs, src.pmf.probs)
    assert np.array_equal(back.d1, src.d1)
    assert np.array_equal(back.d2, src.d2)
    assert np.array_equal(back.d3, src.d3)


def test_aux_round_trip():
    rng = np.random.default_rng(15)
    aux = random_cascade_aux(rng)
    back = load_aux(save_aux(aux))
    assert np.array_equal(back.p_u.table, aux.p_u.table)
    assert np.array_equal(back.p_xhat1.table, aux.p_xhat1.table)
    assert np.array_equal(back.g2.table, aux.g2.table)
    assert back.p_v is None and back.g3 is None


def test_saved_text_reads_back_to_the_same_bytes():
    rng = np.random.default_rng(16)
    src_text = save_source_spec(binary_markov_source(rng, d3=True))
    aux_text = save_aux(random_cascade_aux(rng))
    assert save_source_spec(load_source_spec(src_text)) == src_text
    assert save_aux(load_aux(aux_text)) == aux_text
    assert src_text.splitlines()[0] == "pmf jointpmf 3 2 2 2"
    assert aux_text.splitlines()[0] == "p_u condpmf 2 2 2 3"


def edit_rows(text, block, edit):
    """`text` with each row of the block named `block` replaced by edit(row)."""
    out, inside = [], False
    for ln in text.splitlines():
        if not ln[0].isdigit():
            inside = ln.startswith(block + " ")
        out += edit(ln) if inside and ln[0].isdigit() else [ln]
    return "\n".join(out) + "\n"


def test_faulty_blocks_are_refused_by_name():
    src = ident_source()  # its pmf has zero entries
    text = save_source_spec(src)
    first_row = text.splitlines()[1]
    faults = {
        # short: the last pmf row is missing, so the next header follows early
        "short": edit_rows(text, "pmf", lambda ln: [] if ln.startswith("1 1 0") else [ln]),
        # sparse: only the nonzero entries listed
        "sparse": edit_rows(text, "pmf", lambda ln: [ln] if float(ln.split()[-1]) else []),
        "duplicate": edit_rows(text, "pmf", lambda ln: [ln, ln] if ln == first_row else [ln]),
        "out of range": edit_rows(text, "pmf", lambda ln: ["2" + ln[1:]] if ln == first_row
                                  else [ln]),
    }
    for fault, bad in faults.items():
        with pytest.raises(ValueError, match="'pmf'") as err:
            load_source_spec(bad)
        message = str(err.value)
        if fault in ("duplicate", "out of range"):
            assert fault in message
        else:
            assert "entries listed" in message
    aux_text = save_aux(random_cascade_aux(np.random.default_rng(3)))
    short_aux = edit_rows(aux_text, "p_xhat1", lambda ln: [] if ln.startswith("0 0 0") else [ln])
    with pytest.raises(ValueError, match="'p_xhat1'"):
        load_aux(short_aux)
    with pytest.raises(ValueError, match="'d1'.*malformed header"):
        load_source_spec(text.replace("d1 dtable 2 2", "d1 dtable 2"))


def test_source_file_with_nan_probability_is_refused():
    text = save_source_spec(ident_source())
    first_row = text.splitlines()[1]
    nan_row = edit_rows(text, "pmf", lambda ln: [ln.rsplit(" ", 1)[0] + " nan"]
                        if ln == first_row else [ln])
    with pytest.raises(ValueError, match="finite"):
        load_source_spec(nan_row)


def test_repeated_block_is_refused_by_name():
    text = save_source_spec(ident_source())
    repeated_d1 = text + "d1 dtable 2 2\n0 0 5\n0 1 5\n1 0 5\n1 1 5\n"
    with pytest.raises(ValueError, match="'d1' appears more than once"):
        load_source_spec(repeated_d1)
    aux_text = save_aux(random_cascade_aux(np.random.default_rng(3)))
    g2_block = aux_text[aux_text.index("g2 "):]
    with pytest.raises(ValueError, match="'g2' appears more than once"):
        load_aux(aux_text + g2_block)



# ----------------------------------------------------------------- batching


def test_blend_to_rate_is_bit_identical_to_one_exact_rate_per_step():
    rng = np.random.default_rng(91)
    for trial in range(120):
        nx, ny, nz, nu = (int(s) for s in rng.integers(1, 5, size=4))
        pxyz = (rng.dirichlet(np.ones(nx))[:, None, None]
                * rng.dirichlet(np.ones(ny), size=nx)[:, :, None]
                * rng.dirichlet(np.ones(nz), size=ny)[None, :, :])
        if trial % 2:  # (x, y) cells of zero probability
            cells = rng.random((nx, ny)) < 0.4
            cells.flat[np.argmax(pxyz.sum(axis=2))] = False
            pxyz[cells] = 0.0
            pxyz /= pxyz.sum()
        p_u = rng.dirichlet(np.ones(nu) * rng.choice([0.2, 1.0, 5.0]), size=(nx, ny))
        if trial % 4 == 1:  # deterministic
            p_u = np.eye(nu)[rng.integers(0, nu, size=(nx, ny))]
        elif trial % 4 == 2:  # every row the marginal: r2 is 0 up to rounding
            p_u = np.broadcast_to(p_u[0, 0], p_u.shape).copy()
        r0 = cmi(joint(5, (pxyz, (0, 1, 2)), (p_u, (0, 1, 3))), (3,), (0, 1), (2,))
        for cap in (0.0, 0.5 * r0, r0, r0 + 1e-12, r0 - 1e-12, r0 - 1e-9):
            got, t = discrete._blend_to_rate(pxyz, p_u, cap)
            want, t_want = blend_to_rate_bisection(pxyz, p_u, cap)
            assert float(t).hex() == float(t_want).hex(), (trial, cap)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (trial, cap)


def test_floor_garbling_of_the_dsbs_queries_takes_few_exact_rates(monkeypatch):
    # the other 32 or more of its 41 decisions are read from the cheap form
    blend, exact, counts = discrete._blend_to_rate, discrete._cmi, []

    def counted_blend(*args):
        counts.append(0)
        try:
            return blend(*args)
        finally:
            counts.append(None)

    def counted_cmi(*args):
        if counts and counts[-1] is not None:
            counts[-1] += 1
        return exact(*args)

    monkeypatch.setattr(discrete, "_blend_to_rate", counted_blend)
    monkeypatch.setattr(discrete, "_cmi", counted_cmi)
    for query in sorted(DSBS):
        counts.clear()
        min_r1_cascade_search(dsbs_source(), *query, u_size=2, restarts=2, seed=0)
        assert len(counts) == 2 and counts[0] <= 8, (query, counts)


def _random_source_tables(rng):
    nx, ny, nz = (int(s) for s in rng.integers(1, 4, size=3))
    nx = max(nx, 2)
    pxyz = (rng.dirichlet(np.ones(nx))[:, None, None]
            * rng.dirichlet(np.ones(ny), size=nx)[:, :, None]
            * rng.dirichlet(np.ones(nz), size=ny)[None, :, :])
    if rng.random() < 0.3:
        zero = rng.random(pxyz.shape) < 0.3
        zero.flat[np.argmax(pxyz)] = False
        pxyz[zero] = 0.0
        pxyz /= pxyz.sum()
    d1 = rng.random((nx, int(rng.integers(2, 4))))
    d2 = rng.random((nx, int(rng.integers(2, 4))))
    return pxyz, d1, d2


def test_setting_evaluate_on_a_stack_is_bit_identical_per_row():
    rng = np.random.default_rng(81)
    for trial in range(100):
        name = list(_SETTINGS)[trial % len(_SETTINGS)]
        s = _SETTINGS[name]
        pxyz, d1, d2 = _random_source_tables(rng)
        d3 = rng.random((pxyz.shape[2], int(rng.integers(1, 4))))
        dists = {"d1": d1, "d2": d2, "d3": d3}
        n = dict(zip("XYZ", pxyz.shape), Xhat1=d1.shape[1])
        batch = 1 if trial % 10 == 0 else int(rng.integers(2, 12))
        tables = [pxyz]
        for i, axes in enumerate(s.factors.values()):
            n.setdefault(axes[-1], int(rng.integers(1, 4)))
            shape = tuple(n[a] for a in axes)
            t = rng.dirichlet(np.ones(shape[-1]), size=(batch,) + shape[:-1])
            t[rng.random(t.shape) < 0.2] = 0.0
            t[..., 0] += 1e-9
            t /= t.sum(axis=-1, keepdims=True)
            tables.append(t if i == 0 or rng.random() < 0.5 else t[0])
        maps = {g: rng.integers(0, dists["d2" if g == "g2" else "d3"].shape[1],
                                size=tuple(n[a] for a in axes))
                for g, axes in s.maps.items()}
        stacked = s.evaluate(tuple(tables), maps, dists)
        for r in range(batch):
            row = tuple(t[r] if t.ndim > len(axes) else t
                        for t, axes in zip(tables, s.factor_axes))
            one = s.evaluate(row, maps, dists)
            assert {k: float(v).hex() for k, v in one.items()} == \
                   {k: float(v[r]).hex() for k, v in stacked.items()}, name


def _sequential_rd_solve(pxyz, p_u, d1, n_hat, d1_target, ba_iters=80, bisect_iters=40):
    """The relay solve before it solved each slope to convergence.

    One Blahut-Arimoto run of at most `ba_iters` iterations per step of a
    bisected slope. Returns the channel and the exit taken: "zero",
    "floor", or the number of times the slope bracket grew.
    """
    pxy = pxyz.sum(axis=2)
    pxyu = pxy[:, :, None] * p_u
    d1t = d1[:, :n_hat]
    d_floor = float((pxy.sum(axis=1) * d1t.min(axis=1)).sum())
    zero = _xhat1_zero_rate(pxyu, d1)
    d_zero = float(np.einsum("xyu,xyuh,xh->", pxyu, zero, d1t))
    if d1_target >= d_zero - 1e-12:
        return zero, "zero"
    if d1_target <= d_floor + 1e-12:
        pick = np.argmin(d1t, axis=1)
        t = np.zeros((pxy.shape[0], pxy.shape[1], p_u.shape[-1], n_hat))
        for x, h in enumerate(pick):
            t[x, :, :, h] = 1.0
        return t, "floor"

    def renorm(t):
        s = t.sum(axis=-1, keepdims=True)
        return np.where(s > 1e-200, t / np.maximum(s, 1e-300), 1.0 / t.shape[-1])

    def ba(lam):
        phi = np.full(pxyu.shape + (n_hat,), 1.0 / n_hat)
        w = np.exp(-lam * np.log(2.0) * d1t)
        for _ in range(ba_iters):
            q = renorm(np.einsum("xyu,xyuh->yuh", pxyu, phi))
            new = renorm(q[None, :, :, :] * w[:, None, None, :])
            if np.abs(new - phi).max() < 1e-12:
                phi = new
                break
            phi = new
        return phi, float(np.einsum("xyu,xyuh,xh->", pxyu, phi, d1t))

    lam_lo, lam_hi = 0.0, 4.0 / max(d1t.max(), 1e-12)
    phi_hi, dist_hi = ba(lam_hi)
    grown = 0
    for _ in range(60):
        if dist_hi <= d1_target:
            break
        lam_hi *= 4.0
        grown += 1
        phi_hi, dist_hi = ba(lam_hi)
    best = phi_hi
    for _ in range(bisect_iters):
        lam = 0.5 * (lam_lo + lam_hi)
        phi, dist = ba(lam)
        if dist <= d1_target:
            lam_hi, best = lam, phi
        else:
            lam_lo = lam
    return best, grown


def _slow_rd_solve(pxyz, p_u, d1, d1_target):
    """Plain Blahut-Arimoto until a step moves q by < 1e-15, 50 bisection steps.

    Iterates on the output law q(xhat1|y,u) of the cells (y, u) of positive
    probability. Each slope starts from the previous slope's q mixed with
    1e-9 of the uniform law, so no symbol starts dead; the weights are taken
    relative to each row's best symbol, so none underflows. Assumes a target
    strictly between the floor and the zero-rate distortion.
    """
    nx, n_hat = d1.shape
    pcx = (pxyz.sum(axis=2)[:, :, None] * p_u).reshape(nx, -1).T
    live = pcx.sum(axis=1) > 0
    a = pcx[live] / pcx[live].sum(axis=1, keepdims=True)
    excess = d1 - d1.min(axis=1, keepdims=True)

    def ba(lam, q):
        w = np.exp2(-lam * excess)
        q = (1.0 - 1e-9) * q + 1e-9 / n_hat
        for _ in range(100_000):  # the step's change is checked every 16 steps
            for _ in range(16):
                last, q = q, q * ((a / (q @ w.T)) @ w)
            if np.abs(q - last).max() < 1e-15:
                break
        chan = np.full((len(pcx), nx, n_hat), 1.0 / n_hat)
        chan[live] = q[:, None, :] * w
        chan /= chan.sum(axis=-1, keepdims=True)
        table = chan.transpose(1, 0, 2).reshape(p_u.shape + (n_hat,))
        return q, table, _relay_rate_and_distortion(pxyz, p_u, d1, table)[1]

    lo, hi = 0.0, 4.0 / d1.max()
    q, best, dist = ba(hi, np.full((len(a), n_hat), 1.0 / n_hat))
    while dist > d1_target:
        lo, hi = hi, 4.0 * hi
        q, best, dist = ba(hi, q)
    for _ in range(50):
        lam = 0.5 * (lo + hi)
        q, table, dist = ba(lam, q)
        if dist <= d1_target:
            hi, best = lam, table
        else:
            lo = lam
    return best


def _relay_rate_and_distortion(pxyz, p_u, d1, channel):
    """(I(X; Xhat1 | U, Y), E d1) of a relay channel p(xhat1|x,y,u)."""
    joint = (pxyz.sum(axis=2)[:, :, None] * p_u)[..., None] * channel
    return cmi(joint, (0,), (3,), (1, 2)), float(np.einsum("xyuh,xh->", joint, d1))


def test_relay_solve_meets_the_target_below_the_bisection():
    # the inputs, bisection settings included, are those the speculative
    # bisection tree was once checked on
    rng = np.random.default_rng(82)
    exits, slow = [], 0
    for trial in range(240):
        pxyz, d1, _ = _random_source_tables(rng)
        nx, ny, _ = pxyz.shape
        n_hat = d1.shape[1]
        p_u = rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=(nx, ny))
        if trial % 6 == 0:
            d1 = d1 * 40.0  # a bracket that has to grow
        pxyu = pxyz.sum(axis=2)[:, :, None] * p_u
        d_floor = float((pxyu.sum(axis=(1, 2)) * d1.min(axis=1)).sum())
        d_zero = float(np.einsum("xyu,xyuh,xh->", pxyu,
                                 _xhat1_zero_rate(pxyu, d1), d1))
        kind = trial % 10
        target = (d_floor - 0.01 if kind == 0 else d_zero + 0.01 if kind == 1
                  else d_floor + rng.random() * (d_zero - d_floor))
        # full-length bisections are slow; most reference runs are short
        kw = {} if trial % 8 == 2 else {"bisect_iters": int(rng.integers(1, 14))}
        if trial % 7 == 3:
            kw["ba_iters"] = int(rng.integers(1, 8))  # runs that never converge
        want, how = _sequential_rd_solve(pxyz, p_u, d1, n_hat, target, **kw)
        got = _xhat1_rd_solve(pxyz, p_u, d1, target)
        exits.append(how)
        if isinstance(how, str):  # the zero-rate and floor exits are unchanged
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            continue
        r1, dist = _relay_rate_and_distortion(pxyz, p_u, d1, got)
        assert dist <= target + 1e-12 * d1.max(), trial
        r1_want, dist_want = _relay_rate_and_distortion(pxyz, p_u, d1, want)
        if dist_want <= target:
            assert r1 <= r1_want + 1e-9, trial
        if trial % 5 == 4 and slow < 24:
            r1_slow, _ = _relay_rate_and_distortion(
                pxyz, p_u, d1, _slow_rd_solve(pxyz, p_u, d1, target))
            assert r1 == pytest.approx(r1_slow, abs=1e-9), trial
            slow += 1
    assert exits.count("zero") >= 10 and exits.count("floor") >= 10
    assert sum(1 for e in exits if not isinstance(e, str) and e > 0) >= 10
    assert slow == 24


def test_relay_solve_meets_a_target_that_needs_a_steep_slope():
    # d1 rows of very different size: at the slope this target needs,
    # 2^(-lam d1) underflows on the second row, which once fell back to the
    # uniform channel and returned E d1 = 50.25 above the target
    pxyz = np.full((2, 1, 1), 0.5)
    p_u = np.ones((2, 1, 1))
    d1 = np.array([[0.0, 1.0], [101.0, 100.0]])
    for shortfall in (1e-3, 1e-4, 1e-6):
        got = _xhat1_rd_solve(pxyz, p_u, d1, 50.0 + shortfall)
        r1, dist = _relay_rate_and_distortion(pxyz, p_u, d1, got)
        assert dist <= 50.0 + shortfall + 1e-12 * d1.max()  # an ulp of 50, not 0.25
        # binary-uniform rate-distortion on the excess over each row's floor
        assert r1 == pytest.approx(1.0 - h2(shortfall), abs=1e-11)


def test_relay_solve_time_shares_across_a_linear_piece():
    # with the middle symbol, D(lam) jumps from about 0.305 to 0.245 at one
    # slope, so R(D) is a line between them: a single slope's channel lands
    # on an end of it (a converged bisection returns r1 = 0.1675 at
    # E d1 = 0.245 for every target here), while time-sharing the two ends
    # follows the line
    pxyz = np.array([0.6, 0.4])[:, None, None] * np.ones((1, 1, 1))
    p_u = np.ones((2, 1, 1))
    d1 = np.array([[0.0, 0.5, 1.0], [1.0, 0.25, 0.0]])
    r1s = []
    for target in (0.26, 0.27, 0.28, 0.29):
        r1, dist = _relay_rate_and_distortion(pxyz, p_u, d1,
                                              _xhat1_rd_solve(pxyz, p_u, d1, target))
        assert dist <= target + 1e-12 * d1.max()
        r1s.append(r1)
    assert r1s[0] < 0.1675 - 0.02
    assert np.abs(np.diff(r1s, 2)).max() <= 1e-9  # on one line


@pytest.mark.parametrize("d", [0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.19])
def test_relay_solve_matches_the_dsbs_closed_form(d):
    y_given_x = np.array([[0.8, 0.2], [0.2, 0.8]])
    z_given_y = np.array([[0.7, 0.3], [0.3, 0.7]])
    pxyz = 0.5 * y_given_x[:, :, None] * z_given_y[None, :, :]
    p_u = np.ones((2, 2, 1))  # U constant: r1 is I(X; Xhat1 | Y)
    r1, dist = _relay_rate_and_distortion(pxyz, p_u, HAMMING,
                                          _xhat1_rd_solve(pxyz, p_u, HAMMING, d))
    assert dist <= d
    assert r1 == pytest.approx(h2(0.2) - h2(d), abs=1e-11)


def test_zero_rate_map_matches_the_loop_that_built_it():
    rng = np.random.default_rng(84)
    for _ in range(200):
        pxyz, d1, _ = _random_source_tables(rng)
        nx, ny, _ = pxyz.shape
        p_u = rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=(nx, ny))
        pxyu = pxyz.sum(axis=2)[:, :, None] * p_u
        pick = np.argmin(np.einsum("xyu,xh->yuh", pxyu, d1), axis=-1)
        want = np.zeros(pxyu.shape + (d1.shape[1],))
        for y in range(ny):
            for u in range(p_u.shape[-1]):
                want[:, y, u, pick[y, u]] = 1.0
        got = _xhat1_zero_rate(pxyu, d1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _pareto_min_by_loop(points):
    """One pass in row order: the loop the vectorised test replaces."""
    keep = []
    for p in points:
        if not any(np.all(q <= p + 1e-12) and np.any(q < p - 1e-12) for q in keep):
            keep = [q for q in keep
                    if not (np.all(p <= q + 1e-12) and np.any(p < q - 1e-12))]
            keep.append(p)
    return [RegionPoint(r1=float(p[0]), r2=float(p[1]), d1=float(p[2]), d2=float(p[3]))
            for p in keep]


def test_pareto_min_matches_the_loop_with_near_ties():
    rng = np.random.default_rng(83)
    replays = 0
    for trial in range(120):
        # past 256 rows the pass tests whole blocks against the kept points
        n, levels = int(rng.integers(0, 900)), int(rng.integers(1, 6))
        pts = rng.integers(0, levels, size=(n, 4)) / levels
        nudge = rng.choice([-2e-12, -1e-12, -6e-13, 0.0, 6e-13, 1e-12, 2e-12], size=(n, 4))
        pts = pts + nudge * (rng.random((n, 4)) < 0.4)
        pts = np.array(sorted(set(map(tuple, pts.tolist())))).reshape(-1, 4)
        assert _pareto_min(pts) == _pareto_min_by_loop(pts)
        front = {(p.r1, p.r2, p.d1, p.d2) for p in _pareto_min(pts)}
        q, p = pts[:, None, :], pts[None, :, :]
        dominated = ((q <= p + 1e-12).all(axis=-1) & (q < p - 1e-12).any(axis=-1)).any(axis=0)
        replays += front != set(map(tuple, pts[~dominated].tolist()))
    assert replays >= 5  # sets where dominance is not transitive were met


def test_pareto_min_lets_a_later_block_drop_a_kept_point():
    # f ends the first block of 256 rows; r drops f (it is within 1e-12 of f
    # and lower in d1), and then s, which f dominates but r does not, is kept
    filler = [(-1.0 - i, 10.0 + i, 10.0, 10.0) for i in range(255)][::-1]
    f, r, s = (0.0, 0.5, 1.0, 0.0), (3e-13, 0.5 + 5e-13, 0.0, 0.0), (6e-13, 0.5 - 8e-13, 2.0, 0.0)
    pts = np.array(filler + [f, r, s])
    front = [(p.r1, p.r2, p.d1, p.d2) for p in _pareto_min(pts)]
    assert front == filler + [r, s]
    assert _pareto_min(pts) == _pareto_min_by_loop(pts)
