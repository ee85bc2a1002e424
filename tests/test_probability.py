import numpy as np
import pytest

from cascade_rd.probability import (
    CondPMF,
    DeterministicMap,
    JointPMF,
    TableSizeError,
    check_markov_chain,
    cmi,
    compose_markov_chain,
    conditional_mutual_information,
    entropy,
    joint,
    kaspi_lemma_check,
    marginal,
    table_entropy,
)


def random_joint_pmf(rng, sizes):
    p = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return JointPMF(p)


def random_cond_pmf(rng, in_sizes, out_size):
    shape = tuple(in_sizes) + (out_size,)
    t = rng.dirichlet(np.ones(out_size), size=int(np.prod(in_sizes))).reshape(shape)
    return CondPMF(t)


# ---------------------------------------------------------------- construction


def test_pmf_rejects_bad_normalization():
    with pytest.raises(ValueError):
        JointPMF(np.array([0.5, 0.4]))


def test_pmf_rejects_negative_entries():
    with pytest.raises(ValueError):
        JointPMF(np.array([1.1, -0.1]))


def test_pmf_and_conditional_reject_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        JointPMF(np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        JointPMF(np.array([[np.nan, 0.5], [0.25, 0.25]]))
    with pytest.raises(ValueError, match="finite"):
        CondPMF(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_pmf_rejects_oversized_table():
    with pytest.raises(TableSizeError):
        JointPMF(np.zeros((101, 100, 100, 100)))


def test_cond_pmf_row_normalization():
    with pytest.raises(ValueError):
        CondPMF(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_det_map_range_check():
    with pytest.raises(ValueError):
        DeterministicMap(np.array([0, 2]), output_size=2)


# ------------------------------------------------------------------- entropy


def test_entropy_uniform_four_symbols():
    pmf = JointPMF(np.full((4,), 0.25))
    assert entropy(pmf, [0]) == pytest.approx(2.0, abs=1e-12)


def test_entropy_point_mass_is_zero():
    pmf = JointPMF(np.array([1.0, 0.0, 0.0]))
    assert entropy(pmf, [0]) == 0.0


def test_entropy_bernoulli_tenth():
    # closed form: -p log p - (1-p) log(1-p) at p=0.1
    pmf = JointPMF(np.array([0.9, 0.1]))
    assert entropy(pmf, [0]) == pytest.approx(0.468996, abs=1e-6)


def test_entropy_marginal_of_joint():
    pmf = JointPMF(np.array([[0.2, 0.3], [0.1, 0.4]]))
    px = np.array([0.5, 0.5])
    assert entropy(pmf, [0]) == pytest.approx(1.0, abs=1e-12)
    assert pmf.marginal([0]) == pytest.approx(px)


def test_entropy_invalid_index():
    pmf = JointPMF(np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        entropy(pmf, [2])
    with pytest.raises(ValueError):
        entropy(pmf, [])


# ------------------------------------------------------- mutual information


def test_mi_independent_binary():
    pmf = JointPMF(np.full((2, 2), 0.25))
    assert conditional_mutual_information(pmf, [0], [1]) == 0.0


def test_mi_identity_coupling():
    pmf = JointPMF(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert conditional_mutual_information(pmf, [0], [1]) == pytest.approx(1.0, abs=1e-12)


def test_mi_doubly_symmetric_binary_source():
    # crossover 0.1: I(X;Y) = 1 - h2(0.1)
    pmf = JointPMF(np.array([[0.45, 0.05], [0.05, 0.45]]))
    assert conditional_mutual_information(pmf, [0], [1]) == pytest.approx(
        0.531004, abs=1e-6
    )


def test_mi_rejects_overlapping_sets():
    pmf = JointPMF(np.full((2, 2, 2), 0.125))
    with pytest.raises(ValueError):
        conditional_mutual_information(pmf, [0], [0])
    with pytest.raises(ValueError):
        conditional_mutual_information(pmf, [0], [1], [1])


def test_mi_symmetry_and_nonnegativity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pmf = random_joint_pmf(rng, (2, 3, 2))
        ab = conditional_mutual_information(pmf, [0], [1], [2])
        ba = conditional_mutual_information(pmf, [1], [0], [2])
        assert ab >= 0.0
        assert ab == pytest.approx(ba, abs=1e-12)


def test_mi_chain_rule():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pmf = random_joint_pmf(rng, (2, 2, 3))
        lhs = conditional_mutual_information(pmf, [0], [1, 2])
        rhs = conditional_mutual_information(
            pmf, [0], [2]
        ) + conditional_mutual_information(pmf, [0], [1], [2])
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ------------------------------------------------------------- markov chains


def test_markov_chain_by_composition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        px = rng.dirichlet(np.ones(2))
        pyx = random_cond_pmf(rng, (2,), 3)
        pzy = random_cond_pmf(rng, (3,), 2)
        pmf = compose_markov_chain(px, pyx, pzy)
        assert check_markov_chain(pmf, ([0], [1], [2])) <= 1e-12


def test_markov_chain_maximally_broken():
    # X = Z uniform binary, Y independent: I(X;Z|Y) = 1 bit
    joint = np.zeros((2, 2, 2))
    joint[0, :, 0] = 0.25
    joint[1, :, 1] = 0.25
    pmf = JointPMF(joint)
    assert check_markov_chain(pmf, ([0], [1], [2])) == pytest.approx(1.0, abs=1e-12)


def test_markov_chain_is_conditional_mi():
    rng = np.random.default_rng(5)
    pmf = random_joint_pmf(rng, (2, 2, 2))
    assert check_markov_chain(pmf, ([0], [1], [2])) == conditional_mutual_information(
        pmf, [0], [2], [1]
    )


# --------------------------------------------------------------- round trips


def test_jointpmf_text_round_trip_exact():
    rng = np.random.default_rng(13)
    pmf = random_joint_pmf(rng, (2, 3, 2))
    again = JointPMF.from_text(pmf.to_text())
    assert np.array_equal(again.probs, pmf.probs)


def test_condpmf_and_detmap_round_trip():
    rng = np.random.default_rng(17)
    cond = random_cond_pmf(rng, (2, 3), 4)
    assert np.array_equal(CondPMF.from_text(cond.to_text()).table, cond.table)
    dm = DeterministicMap(rng.integers(0, 3, size=(2, 4)), output_size=3)
    back = DeterministicMap.from_text(dm.to_text())
    assert np.array_equal(back.table, dm.table)
    assert back.output_size == dm.output_size


# ------------------------------------------------------------- kaspi checker


def random_kaspi_instance(rng, max_size=3):
    na1, na2, nb1, nb2 = rng.integers(2, max_size + 1, size=4)
    p_a1b1 = random_joint_pmf(rng, (na1, nb1))
    p_a2b2 = random_joint_pmf(rng, (na2, nb2))
    nm1 = int(rng.integers(2, 4))
    nm2 = int(rng.integers(2, 4))
    m1 = DeterministicMap(rng.integers(0, nm1, size=(na1, na2)), nm1)
    m2 = DeterministicMap(rng.integers(0, nm2, size=(nb1, nb2, nm1)), nm2)
    return p_a1b1, p_a2b2, m1, m2


def test_kaspi_lemma_zero_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p1, p2, m1, m2 = random_kaspi_instance(rng)
        vals = kaspi_lemma_check(p1, p2, m1, m2)
        assert max(vals) <= 1e-10


def test_kaspi_lemma_constant_maps():
    rng = np.random.default_rng(29)
    p1 = random_joint_pmf(rng, (2, 2))
    p2 = random_joint_pmf(rng, (3, 2))
    m1 = DeterministicMap(np.zeros((2, 3), dtype=int), 2)
    m2 = DeterministicMap(np.zeros((2, 2, 2), dtype=int), 2)
    vals = kaspi_lemma_check(p1, p2, m1, m2)
    assert max(vals) <= 1e-12


def kaspi_violation_values(rng):
    """Identity values for a control where M2 secretly depends on A2.

    A2 is ternary so a binary M1 cannot reveal it, which keeps the injected
    dependence genuine; built directly on the six-variable joint.
    """
    from cascade_rd.probability import conditional_mutual_information as cmi

    p1 = random_joint_pmf(rng, (2, 2))
    p2 = random_joint_pmf(rng, (3, 2))
    m1 = DeterministicMap(rng.integers(0, 2, size=(2, 3)), 2)
    joint = np.zeros((2, 3, 2, 2, 2, 3))
    base = p1.probs[:, None, :, None] * p2.probs[None, :, None, :]
    for a1 in range(2):
        for a2 in range(3):
            k1 = m1.table[a1, a2]
            for b1 in range(2):
                for b2 in range(2):
                    k2 = (b1 + k1 + a2) % 3  # depends on A2: premise broken
                    joint[a1, a2, b1, b2, k1, k2] += base[a1, a2, b1, b2]
    pmf = JointPMF(joint)
    v1 = cmi(pmf, [1], [2], [4, 5, 0, 3])
    v2 = cmi(pmf, [2], [4], [0, 3])
    v3 = cmi(pmf, [1], [5], [4, 0, 3])
    return v1, v2, v3


def test_kaspi_lemma_detects_premise_violation():
    rng = np.random.default_rng(31)
    trials = 40
    hits = sum(max(kaspi_violation_values(rng)) > 1e-3 for _ in range(trials))
    assert hits >= 0.9 * trials


def test_kaspi_domain_mismatch():
    rng = np.random.default_rng(37)
    p1 = random_joint_pmf(rng, (2, 2))
    p2 = random_joint_pmf(rng, (2, 2))
    m1 = DeterministicMap(np.zeros((3, 2), dtype=int), 2)
    m2 = DeterministicMap(np.zeros((2, 2, 2), dtype=int), 2)
    with pytest.raises(ValueError):
        kaspi_lemma_check(p1, p2, m1, m2)


# --------------------------------------------------------------- batch axis


def random_stack(rng, batch, shape):
    """Normalised random tables with about a random share of exact zeros."""
    t = rng.random((batch,) + shape)
    t[rng.random(t.shape) < rng.random()] = 0.0
    totals = t.reshape(batch, -1).sum(axis=1)
    return t / np.where(totals > 0, totals, 1.0).reshape((batch,) + (1,) * len(shape))


def test_batched_core_is_bit_identical_per_row():
    rng = np.random.default_rng(71)
    long_rows = 0
    for trial in range(300):
        nd = int(rng.integers(1, 5))
        shape = tuple(int(s) for s in rng.integers(1, 5, size=nd))
        batch = 1 if trial % 10 == 0 else int(rng.integers(2, 30))
        t = random_stack(rng, batch, shape)
        long_rows += int(((t.reshape(batch, -1) > 0).sum(axis=1) >= 8).sum())
        h = table_entropy(t, batched=True)
        axes = [int(i) for i in rng.permutation(nd)]
        keep = axes[: int(rng.integers(0, nd + 1))]
        m = marginal(t, keep, batched=True)
        split = sorted(rng.choice(np.arange(1, nd), size=2)) if nd > 1 else None
        if split is not None:
            a, b, c = axes[: split[0]], axes[split[0]:], ()
            if split[1] > split[0]:
                b, c = axes[split[0]: split[1]], axes[split[1]:]
            i_abc = cmi(t, a, b, c, batched=True)
        for r in range(batch):
            assert h[r].hex() == table_entropy(t[r]).hex()
            assert m[r].tobytes() == marginal(t[r], keep).tobytes()
            if split is not None:
                assert i_abc[r].hex() == float(cmi(t[r], a, b, c)).hex()
    assert long_rows > 500  # numpy's pairwise sum regroups from 8 terms up


def test_batched_joint_stacks_only_the_tables_that_carry_a_batch_axis():
    rng = np.random.default_rng(72)
    p_xy = random_stack(rng, 1, (3, 2))[0]
    p_u = rng.dirichlet(np.ones(4), size=(5, 3, 2))  # a stack of 5 channels
    p_v = rng.dirichlet(np.ones(2), size=(2, 4))
    j = joint(4, (p_xy, (0, 1)), (p_u, (0, 1, 2)), (p_v, (1, 2, 3)))
    assert j.shape == (5, 3, 2, 4, 2)
    for r in range(5):
        one = joint(4, (p_xy, (0, 1)), (p_u[r], (0, 1, 2)), (p_v, (1, 2, 3)))
        assert j[r].tobytes() == one.tobytes()
