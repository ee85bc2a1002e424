"""Pinned answers of the cascade search and the enumeration oracle.

Values are `float.hex` (r1) and the first 16 hex digits of the sha256 of the
returned tables' bytes. The oracle pins were captured from the one-at-a-time
oracle before its loop was batched. The search pins were captured once the
relay solve solved each slope to Blahut's bound: every DSBS r1 is within
3e-14 bits of the closed form h(0.2) - h(d1) and below the value the capped
bisection gave, and the ternary r1 moved by -6.7e-13 bits. Any change to the
arithmetic of the information core, the relay solve, the finite-difference
pass, the floor construction or the enumeration shows here as a changed
bit.
"""

import hashlib
import math

import numpy as np
import pytest

from cascade_rd.discrete import SourceSpec, min_r1_cascade_search, oracle_min_r1
from cascade_rd.probability import CondPMF, JointPMF, compose_markov_chain

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def bsc(q):
    return np.array([[1.0 - q, q], [q, 1.0 - q]])


def dsbs_source():
    """The benchmark's search source: X uniform, X -> Y and Y -> Z BSC(0.2), BSC(0.3)."""
    return SourceSpec(JointPMF(0.5 * bsc(0.2)[:, :, None] * bsc(0.3)[None, :, :]),
                      HAMMING, HAMMING)


def ternary_source():
    """|X| = 3, so the stacked sums run over more than binary alphabets."""
    pmf = compose_markov_chain(np.array([0.5, 0.3, 0.2]),
                               CondPMF(np.array([[0.85, 0.15], [0.2, 0.8], [0.5, 0.5]])),
                               CondPMF(bsc(0.25)))
    return SourceSpec(pmf, 1.0 - np.eye(3), 1.0 - np.eye(3))


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def digest(table):
    return hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()[:16]


G2_IDENTITY = "b64c0d4ec2af5aba"

# (d1, d2, r2) -> r1, p_u, p_xhat1, g2 of min_r1_cascade_search(u_size=2,
# restarts=2, seed=0), and the least r1 of oracle_min_r1(u_size=2, resolution=5)
DSBS = {
    (0.05, 0.33, 0.4): ("0x1.bdfbdfe478b10p-2", "7417597f38b90279", "995a613ccbe071cb",
                        "0x1.71a08f2b35a90p-1"),
    (0.08, 0.36, 0.4): ("0x1.476c41c2379f0p-2", "957e8cbe7e5a0585", "329fb761f56481ab",
                        "0x1.5737000964f24p-2"),
    (0.10, 0.33, 0.5): ("0x1.0300bcd4aed50p-2", "021e9a25e59d414f", "d4f2781193ad07c0",
                        "0x1.2cf81ebbbace4p-2"),
    (0.12, 0.36, 0.3): ("0x1.8a60b00b4ead0p-3", "c1fc6ebe9b9d17e6", "d0672c273cbd0bd8",
                        "0x1.a9f62c99a9318p-3"),
    (0.15, 0.33, 0.4): ("0x1.cb1c91110b0a0p-4", "e5ee72c7a7e0e4b2", "8b5b3970a7f5818a",
                        "0x1.5737000964f10p-3"),
    (0.15, 0.36, 0.5): ("0x1.cb1c91110b080p-4", "064ebf236faa447e", "cc20d636d32da02e",
                        "0x1.393cb4ff7ccc0p-3"),
    (0.10, 0.36, 0.4): ("0x1.0300bcd4aed60p-2", "fef90c8db8d12cdb", "16fe344b435582fd",
                        "0x1.16190b2b1cc54p-2"),
}


@pytest.mark.parametrize("query", sorted(DSBS))
def test_dsbs_search_and_oracle_are_pinned(query):
    r1, p_u, p_xhat1, oracle = DSBS[query]
    src = dsbs_source()
    res = min_r1_cascade_search(src, *query, u_size=2, restarts=2, seed=0)
    assert res.path == "relay-floor"
    assert res.r1.hex() == r1
    assert (digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table),
            digest(res.aux.g2.table)) == (p_u, p_xhat1, G2_IDENTITY)
    assert oracle_min_r1(src, 2, 5, *query).hex() == oracle


def test_search_fallback_is_pinned():
    # neither the constant-U anchor (d2 = 0.38) nor the relay-floor candidate
    # (garbled to r2 = 0.05, it misses d2) meets the query, so the restarts
    # answer it; they find r1 = h(0.2) - h(0.18), the floor itself
    res = min_r1_cascade_search(dsbs_source(), 0.18, 0.37, 0.05, u_size=2, restarts=2,
                                seed=0)
    assert res.path == "search"
    assert res.r1.hex() == "0x1.56d802ee21800p-5"
    assert (digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table),
            digest(res.aux.g2.table)) == ("b53cc91599f09c98", "c69e9c0a0d7998ad",
                                          "013f21dd7052786e")


def test_search_skips_the_restarts_when_the_anchor_is_on_the_floor():
    # the constant-U anchor meets the query at r1 = R(0.05), which the
    # relay-floor candidate equals to rounding, so no restart runs: the
    # answer is the one the search gives with no restarts at all
    src = dsbs_source()
    res = min_r1_cascade_search(src, 0.05, 0.4, 0.05, u_size=2, restarts=2, seed=0)
    bare = min_r1_cascade_search(src, 0.05, 0.4, 0.05, u_size=2, restarts=0, seed=0)
    assert res.path == bare.path == "relay-floor"
    assert res.r1 == pytest.approx(h2(0.2) - h2(0.05), abs=1e-11)
    assert res.r1.hex() == bare.r1.hex()
    assert digest(res.aux.p_u.table) == digest(bare.aux.p_u.table)


def test_ternary_search_is_pinned():
    res = min_r1_cascade_search(ternary_source(), 0.15, 0.45, 0.6, u_size=2,
                                restarts=2, seed=0)
    assert res.path == "search"  # |Xhat1| = 3 exceeds u_size
    assert res.r1.hex() == "0x1.df50ea8fd87d4p-2"
    assert (digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table),
            digest(res.aux.g2.table)) == ("5f6d167526b640bf", "9cc39d2e954ea76f",
                                          "49293309d25cafc9")


def test_acceptance_7_oracle_queries_are_pinned():
    pxyz = np.zeros((2, 2, 1))
    pxyz[0, 0, 0] = pxyz[1, 1, 0] = 0.5
    ident = SourceSpec(JointPMF(pxyz), HAMMING, HAMMING)
    for q_num in (2, 3):
        q = q_num / 9.0
        env = 1.0 - (-q * math.log2(q) - (1 - q) * math.log2(1 - q))  # 1 - h2(q)
        assert oracle_min_r1(ident, 2, 9, 1e-9, q + 0.01, env + 0.01).hex() == "0x0.0p+0"
        assert oracle_min_r1(ident, 2, 9, 1e-9, q + 0.01, env - 0.03) is None
    chain = SourceSpec(compose_markov_chain(np.array([0.5, 0.5]), CondPMF(bsc(0.2)),
                                            CondPMF(bsc(0.3))), HAMMING, HAMMING)
    assert oracle_min_r1(chain, 2, 9, 0.1, 0.3, 0.4).hex() == "0x1.71a08f2b35a90p-2"
    assert oracle_min_r1(chain, 3, 4, 0.1, 0.3, 0.4).hex() == "0x1.1cbd829f26560p-2"
