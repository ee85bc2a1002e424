import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cascade_rd._kernels import is_typical, typical_mask
from cascade_rd.discrete import AuxiliarySystem, evaluate_point
from cascade_rd.errors import ResourceLimitError
from cascade_rd.probability import CondPMF, DeterministicMap
from cascade_rd.simulate import (
    TypicalityParams,
    _draw_symbols,
    build_cascade_code,
    decode_node2,
    encode_node0,
    relay_node1,
    run_simulation,
)
from fixtures import bsc_aux, const_aux, ident_source
from test_golden_search import dsbs_source
from test_golden_simulation import erasure_aux


def y_blind_aux():
    """A cascade auxiliary whose p_u and p_xhat1 are conditioned on (X, 1),
    not (X, Y), for a binary Y: its tables broadcast over Y in a joint."""
    pu = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])
    pxh = np.broadcast_to(np.eye(2), (2, 1, 2, 2))
    return AuxiliarySystem(p_u=CondPMF(pu), p_xhat1=CondPMF(pxh),
                           g2=DeterministicMap(np.array([[0, 0], [1, 1]]), 2))


# ------------------------------------------------------------------- kernels


def brute_mask(rows, n_row_symbols, cond, n_cond, lo, hi):
    """Reference: count every (row symbol, cond symbol) pair of each row."""
    cells = [(u, c) for u in range(n_row_symbols) for c in range(n_cond)]
    out = []
    for row in rows:
        counts = Counter(zip(row.tolist(), cond.tolist()))
        out.append(all(lo[u * n_cond + c] <= counts[u, c] <= hi[u * n_cond + c]
                       for u, c in cells))
    return np.array(out, dtype=bool)


def test_kernel_matches_brute_count():
    rng = np.random.default_rng(3)
    outcomes = set()
    for trial in range(300):
        n = 300 if trial % 50 == 0 else int(rng.integers(1, 30))
        m = (0, 1)[trial % 2] if trial % 7 == 0 else int(rng.integers(2, 60))
        nu, nc = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        p = rng.dirichlet(np.ones(nu * nc))
        p[rng.random(p.size) < 0.2] = 0.0  # zero-probability cells: lo = hi = 0
        eps = rng.uniform(0.05, 1.5)
        lo, hi = n * p * (1.0 - eps), n * p * (1.0 + eps)
        # symbols absent from cond stay absent in a fifth of the trials
        used = rng.permutation(nc)[:int(rng.integers(1, nc + 1))] if trial % 5 == 0 \
            else np.arange(nc)
        cond = rng.choice(used, size=n)
        # rows drawn from p(u | c) at each position pass some of the time
        p_uc = p.reshape(nu, nc)[:, cond] + 1e-3
        cdf = np.cumsum(p_uc / p_uc.sum(axis=0), axis=0)
        rows = (rng.random((m, 1, n)) > cdf[None, :-1, :]).sum(axis=1)
        expected = brute_mask(rows, nu, cond, nc, lo, hi)
        for layout in (rows, np.asfortranarray(rows.astype(np.uint8))):
            got = typical_mask(layout, nu, cond, nc, lo, hi)
            assert got.dtype == bool and got.shape == (m,)
            assert np.array_equal(got, expected), trial
        outcomes.update(expected.tolist())
    assert outcomes == {True, False}
    # one symbol at all 300 positions: its count does not fit in 8 bits
    rows = np.zeros((2, 300), dtype=np.uint8)
    rows[1, 0] = 1
    bounds = np.array([300.0, 0.0])
    mask = typical_mask(rows, 2, np.zeros(300, dtype=np.int64), 1, bounds, bounds)
    assert list(mask) == [True, False]


def test_kernel_zero_probability_symbol_forces_zero_count():
    rows = np.array([[0, 0, 1], [0, 0, 0]], dtype=np.int64)
    cond = np.zeros(3, dtype=np.int64)
    lo = np.array([0.0, 0.0])
    hi = np.array([3.0, 0.0])  # symbol 1 has probability zero
    mask = typical_mask(rows, 2, cond, 1, lo, hi)
    assert list(mask) == [False, True]


def test_single_sequence_check_matches_the_kernel_row():
    rng = np.random.default_rng(11)
    outcomes = set()
    for trial in range(400):
        n = int(rng.integers(1, 40))
        nu, nc = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        p = rng.dirichlet(np.ones(nu * nc))
        p[rng.random(p.size) < 0.2] = 0.0  # zero-probability cells: lo = hi = 0
        eps = rng.uniform(0.05, 1.5)
        lo, hi = n * p * (1.0 - eps), n * p * (1.0 + eps)
        # bands with no integer inside, which ceil and floor leave empty
        thin = rng.random(p.size) < 0.1
        lo[thin] = np.floor(lo[thin]) + 0.3
        hi[thin] = lo[thin] + 0.4
        # symbols absent from cond stay absent in a fifth of the trials
        used = rng.permutation(nc)[:int(rng.integers(1, nc + 1))] if trial % 5 == 0 \
            else np.arange(nc)
        cond = rng.choice(used, size=n)
        p_uc = p.reshape(nu, nc)[:, cond] + 1e-3
        cdf = np.cumsum(p_uc / p_uc.sum(axis=0), axis=0)
        row = (rng.random((1, n)) > cdf[:-1]).sum(axis=0)
        expected = bool(brute_mask(row[None, :], nu, cond, nc, lo, hi)[0])
        got = is_typical(row * nc + cond, lo, hi)
        assert type(got) is bool and got == expected, trial
        assert typical_mask(row[None, :], nu, cond, nc, lo, hi)[0] == expected, trial
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_codebook_draw_equals_generator_choice():
    cases = [
        (np.array([1.0]), (5, 3)),
        (np.array([0.3, 0.7]), (64, 20)),
        (np.array([0.65 / 2, 0.65 / 2, 0.35]), (1000, 7)),
        (np.array([0.0, 0.5, 0.0, 0.5]), (300, 11)),
        (np.array([0.25, 0.25, 0.5, 0.0]), (1, 40)),
        (np.array([0.1, 0.2, 0.3, 0.4]), (0, 9)),
    ]
    rng = np.random.default_rng(0)
    cases += [(rng.dirichlet(np.ones(k)), (257, 13)) for k in (3, 5, 300)]
    # shapes around the blocks of rows a codebook draw is made in
    ternary = np.array([0.65 / 2, 0.65 / 2, 0.35])
    cases += [(ternary, (70001, 20)), (ternary, (3, 70000)), (ternary, (0, 20)),
              (ternary, (2**16, 1)), (ternary, (20,)),
              (rng.dirichlet(np.ones(300)), (5000, 20))]
    for seed, (p, shape) in enumerate(cases):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        got = _draw_symbols(ours, p, shape)
        want = ref.choice(p.size, size=shape, p=p)
        assert np.array_equal(got, want), p
        assert got.dtype == np.min_scalar_type(p.size - 1) and got.flags.f_contiguous
        assert ours.bit_generator.state == ref.bit_generator.state
    for bad in (np.array([0.5, 0.6]), np.array([1.2, -0.2]), np.array([np.nan, 1.0])):
        with pytest.raises(ValueError):
            _draw_symbols(np.random.default_rng(0), bad, (2, 2))


# ------------------------------------------------------------------ building


def test_typicality_params_validation():
    with pytest.raises(ValueError):
        TypicalityParams(epsilon=0.0, n=8)
    with pytest.raises(ValueError):
        TypicalityParams(epsilon=0.4, n=0)


@pytest.mark.parametrize("n", [8.5, 8.0, "8"])
def test_typicality_params_refuse_a_blocklength_that_is_no_integer_by_name(n):
    # 8.5 was accepted, and the codebook draw raised a TypeError
    with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
        TypicalityParams(epsilon=0.65, n=n)
    assert TypicalityParams(epsilon=0.65, n=np.int64(8)).n == 8


@pytest.mark.parametrize("delta", [np.nan, np.inf, -0.1])
def test_build_refuses_a_delta_that_is_not_finite_and_nonnegative_by_name(delta):
    # NaN gave "cannot convert float NaN to integer", inf an OverflowError
    src, aux = ident_source(), bsc_aux(0.25)
    tp = TypicalityParams(epsilon=0.4, n=8)
    with pytest.raises(ValueError, match=f"delta must be finite and nonnegative, got {delta}"):
        build_cascade_code(src, aux, tp, delta=delta, seed=0)
    with pytest.raises(ValueError, match="delta"):
        run_simulation(src, aux, tp, delta=delta, trials=2, seed=0)


def test_build_deterministic_given_seed():
    src, aux = ident_source(), bsc_aux(0.25)
    tp = TypicalityParams(epsilon=0.4, n=12)
    a = build_cascade_code(src, aux, tp, delta=0.15, seed=5)
    b = build_cascade_code(src, aux, tp, delta=0.15, seed=5)
    assert np.array_equal(a.codebook, b.codebook)
    assert np.array_equal(a.bins1, b.bins1)
    assert np.array_equal(a.bins2, b.bins2)
    c = build_cascade_code(src, aux, tp, delta=0.15, seed=6)
    assert not np.array_equal(a.codebook, c.codebook)


@pytest.mark.parametrize("seed", [2**63, 2**64 + 5, -1])
def test_build_refuses_a_seed_outside_63_bits_by_name(seed):
    src, aux = ident_source(), bsc_aux(0.25)
    tp = TypicalityParams(epsilon=0.4, n=8)
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\^63\), got {seed}"):
        build_cascade_code(src, aux, tp, delta=0.15, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        run_simulation(src, aux, tp, delta=0.15, trials=2, seed=seed)
    res = run_simulation(src, aux, tp, delta=0.15, trials=2, seed=2**63 - 1)
    assert res.seed == 2**63 - 1


@pytest.mark.parametrize("name, value", [("trials", 2.5), ("seed", 1.5)])
def test_run_refuses_a_count_that_is_no_integer_by_name(name, value):
    # each raised a bare TypeError, after the code was built
    counts = dict({"trials": 2, "seed": 0}, **{name: value})
    with pytest.raises(ValueError) as exc:
        run_simulation(ident_source(), bsc_aux(0.25), TypicalityParams(epsilon=0.4, n=8),
                       delta=0.15, **counts)
    assert str(exc.value) == f"{name} must be an integer, got {value}"


def test_build_zero_slack_constant_aux_single_codeword():
    code = build_cascade_code(ident_source(), const_aux(),
                              TypicalityParams(epsilon=0.4, n=10),
                              delta=0.0, seed=0)
    assert code.n_codewords == 1
    assert code.n_bins1 == 1


def test_build_respects_codeword_cap():
    src, aux = ident_source(), bsc_aux(0.25)
    with pytest.raises(ResourceLimitError):
        build_cascade_code(src, aux, TypicalityParams(epsilon=0.4, n=100),
                           delta=0.15, seed=0)


def test_codeword_types_concentrate():
    # most codewords carry an empirical type close to p(u)
    src, aux = ident_source(), bsc_aux(0.25)
    ok = []
    for seed in range(5):
        code = build_cascade_code(src, aux, TypicalityParams(epsilon=0.5, n=12),
                                  delta=0.15, seed=seed)
        counts = (code.codebook == 1).sum(axis=1)
        lo, hi = 12 * 0.5 * 0.5, 12 * 0.5 * 1.5
        ok.append(((counts >= lo) & (counts <= hi)).mean())
    assert np.mean(ok) >= 0.93


def test_lazy_reconstruction_books_are_stable():
    src, aux = ident_source(), bsc_aux(0.25)
    code = build_cascade_code(src, aux, TypicalityParams(epsilon=0.4, n=10),
                              delta=0.15, seed=0)
    y = np.array([0, 1] * 5)
    book1 = code.xhat1_book(3, y)
    book2 = code.xhat1_book(3, y)
    assert np.array_equal(book1, book2)
    assert book2 is book1 and not book1.flags.writeable  # the last book is kept
    assert not np.array_equal(book1, code.xhat1_book(2, y))
    assert np.array_equal(book1, code.xhat1_book(3, y))


# ---------------------------------------------------------------- node stages


def test_encode_single_constant_codeword_typical_input():
    src = ident_source()
    code = build_cascade_code(src, const_aux(), TypicalityParams(epsilon=0.4, n=8),
                              delta=0.0, seed=0)
    x = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    rng = np.random.default_rng(0)
    enc = encode_node0(code, x, x.copy(), rng)
    assert (enc.m10, enc.m11) == (0, 0)
    assert not enc.e1 and not enc.e3


def test_encode_atypical_input_sets_flag():
    src, aux = ident_source(), bsc_aux(0.25)
    code = build_cascade_code(src, aux, TypicalityParams(epsilon=0.4, n=12),
                              delta=0.15, seed=0)
    x = np.zeros(12, dtype=np.int64)  # all-zero sequence is atypical
    rng = np.random.default_rng(0)
    enc = encode_node0(code, x, x.copy(), rng)
    assert enc.e1


def test_relay_unique_and_ambiguous_bins():
    src, aux = ident_source(), bsc_aux(0.25)
    code = build_cascade_code(src, aux, TypicalityParams(epsilon=0.5, n=12),
                              delta=0.15, seed=0)
    y = np.array([0, 1] * 6)
    rng = np.random.default_rng(1)
    enc = encode_node0(code, np.array([0, 1] * 6), y, rng)
    assert not enc.e1
    # force a bin holding exactly the transmitted codeword
    code.bins1 = np.full_like(code.bins1, 1)
    code.bins1[enc.l_true] = 0
    rel = relay_node1(code, 0, enc.m11, y)
    assert rel.l_hat == enc.l_true and not rel.e4
    # force a duplicate typical codeword into the same bin
    code.codebook[(enc.l_true + 1) % code.n_codewords] = code.codebook[enc.l_true]
    code.bins1[(enc.l_true + 1) % code.n_codewords] = 0
    rel2 = relay_node1(code, 0, enc.m11, y)
    assert rel2.e4 and rel2.l_hat == 0  # falls back to the first codeword


def test_decode_node2_reconstruction_applies_g2():
    src, aux = ident_source(), bsc_aux(0.25)
    code = build_cascade_code(src, aux, TypicalityParams(epsilon=0.5, n=12),
                              delta=0.15, seed=0)
    z = np.zeros(12, dtype=np.int64)
    # isolate codeword 4 in its terminal bin
    code.bins2 = np.full_like(code.bins2, 1)
    code.bins2[4] = 0
    dec = decode_node2(code, 0, z, aux.g2)
    if not dec.e5:
        assert np.array_equal(dec.xhat2_seq, aux.g2.table[code.codebook[4], z])


# ------------------------------------------------------------------ full runs


def test_run_simulation_deterministic():
    src, aux = ident_source(), bsc_aux(0.25)
    tp = TypicalityParams(epsilon=0.4, n=10)
    a = run_simulation(src, aux, tp, delta=0.15, trials=60, seed=3)
    b = run_simulation(src, aux, tp, delta=0.15, trials=60, seed=3)
    assert a == b


def test_run_simulation_uninformative_aux():
    src = ident_source()
    res = run_simulation(src, const_aux(), TypicalityParams(epsilon=0.4, n=12),
                         delta=0.1, trials=400, seed=0)
    # constant-guess distortion 0.5 within the confidence band
    assert res.d2_mean == pytest.approx(0.5, abs=3 * max(res.d2_ci, 1e-3))


def test_run_simulation_refuses_an_auxiliary_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"p_u conditioning has shape \(2, 1\), "
                                         r"expected \(2, 2\)"):
        run_simulation(dsbs_source(), y_blind_aux(), TypicalityParams(epsilon=0.4, n=8),
                       delta=0.1, trials=2, seed=0)


def test_run_at_n20_allocates_little_beyond_its_codebook():
    # the benchmark's sim-n20 unit: 65536 codewords of 20 ternary symbols
    # (1.25 MiB) and two int64 bin tables (0.5 MiB each) are what a run keeps
    tp = TypicalityParams(epsilon=0.65, n=20)
    tracemalloc.start()
    try:
        run_simulation(ident_source(), erasure_aux(), tp, delta=0.15, trials=10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_clean_trial_distortion_obeys_typical_average_bound():
    src, aux = ident_source(), bsc_aux(0.25)
    point = evaluate_point("cascade", src, aux)
    eps = 0.5
    res = run_simulation(src, aux, TypicalityParams(epsilon=eps, n=16),
                         delta=0.15, trials=600, seed=0)
    assert res.clean_trials > 50
    assert res.d1_mean_clean <= point.d1 + eps * 1.0 + res.d1_ci_clean
    assert res.d2_mean_clean <= point.d2 + eps * 1.0 + res.d2_ci_clean


def test_near_boundary_aux_mostly_clean_at_n20():
    # BSC(0.11) description at delta = 0.15 over its own bounds: at n = 20
    # most trials finish unflagged and the clean-trial distortion stays
    # within 0.05 of the 0.11 target
    src, aux = ident_source(), bsc_aux(0.11)
    res = run_simulation(src, aux, TypicalityParams(epsilon=0.3, n=20),
                         delta=0.15, trials=2000, seed=0)
    flagged = 1.0 - res.clean_trials / res.trials
    assert flagged < 0.5
    assert res.d2_mean_clean <= 0.11 + 0.05


def test_bin_partitions_independent():
    scipy_stats = pytest.importorskip("scipy.stats")
    src, aux = ident_source(), bsc_aux(0.25)
    passes = 0
    for seed in range(20):
        code = build_cascade_code(src, aux, TypicalityParams(epsilon=0.4, n=16),
                                  delta=0.15, seed=seed)
        table = np.zeros((code.n_bins1, code.n_bins2))
        np.add.at(table, (code.bins1, code.bins2), 1)
        keep_r = table.sum(axis=1) > 0
        keep_c = table.sum(axis=0) > 0
        stat = scipy_stats.chi2_contingency(table[np.ix_(keep_r, keep_c)])
        if stat.pvalue > 0.01:
            passes += 1
    assert passes >= 19
