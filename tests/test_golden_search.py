"""Pinned answers of the cascade search and the enumeration oracle.

Every value was captured from the one-at-a-time search and oracle before
their loops were batched, as `float.hex` (r1) and as the first 16 hex digits
of the sha256 of the returned tables' bytes. Any change to the arithmetic of
the information core, the Blahut-Arimoto solve, the finite-difference pass
or the enumeration shows here as a changed bit.
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


def digest(table):
    return hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()[:16]


G2_IDENTITY = "b64c0d4ec2af5aba"

# (d1, d2, r2) -> r1, p_u, p_xhat1, g2 of min_r1_cascade_search(u_size=2,
# restarts=2, seed=0), and the least r1 of oracle_min_r1(u_size=2, resolution=5)
DSBS = {
    (0.05, 0.33, 0.4): ("0x1.bdfbdfe47f5d0p-2", "47a0fb8bc8673659", "a1c28b31b1b4357f",
                        "0x1.71a08f2b35a90p-1"),
    (0.08, 0.36, 0.4): ("0x1.476c41c23a218p-2", "12295e90b230bbf9", "35a3cda49fb11336",
                        "0x1.5737000964f24p-2"),
    (0.10, 0.33, 0.5): ("0x1.0300bcd4b1120p-2", "bb6327b50ad567fb", "05dcaa49b7732b4f",
                        "0x1.2cf81ebbbace4p-2"),
    (0.12, 0.36, 0.3): ("0x1.8a60b00b53970p-3", "a71f93e6aea5e532", "4aba048b0cd7cd41",
                        "0x1.a9f62c99a9318p-3"),
    (0.15, 0.33, 0.4): ("0x1.cb1c91110d7a0p-4", "a068b97aae66be9a", "d28fe61d55b4341e",
                        "0x1.5737000964f10p-3"),
    (0.15, 0.36, 0.5): ("0x1.cb1c911112f00p-4", "298e4cef58b4e585", "f637ec349203de48",
                        "0x1.393cb4ff7ccc0p-3"),
    (0.10, 0.36, 0.4): ("0x1.0300bcd4af8e8p-2", "7050769d9ea5b09a", "e5bf9b9c66c04f85",
                        "0x1.16190b2b1cc54p-2"),
}


@pytest.mark.parametrize("query", sorted(DSBS))
def test_dsbs_search_and_oracle_are_pinned(query):
    r1, p_u, p_xhat1, oracle = DSBS[query]
    src = dsbs_source()
    res = min_r1_cascade_search(src, *query, u_size=2, restarts=2, seed=0)
    assert res.r1.hex() == r1
    assert (digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table),
            digest(res.aux.g2.table)) == (p_u, p_xhat1, G2_IDENTITY)
    assert oracle_min_r1(src, 2, 5, *query).hex() == oracle


def test_ternary_search_is_pinned():
    res = min_r1_cascade_search(ternary_source(), 0.15, 0.45, 0.6, u_size=2,
                                restarts=2, seed=0)
    assert res.r1.hex() == "0x1.df50ea8fdb694p-2"
    assert (digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table),
            digest(res.aux.g2.table)) == ("3b53a9597b7410c8", "d32aec5a11628c88",
                                          G2_IDENTITY)


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
