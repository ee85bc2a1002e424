"""Pinned answers of the cascade search and the enumeration oracle.

Values are `float.hex` (r1) and the first 16 hex digits of the sha256 of the
returned tables' bytes. The oracle pins, the ternary search pin and the
fallback pin were captured from the one-at-a-time search and oracle before
their loops were batched. The seven DSBS search pins were captured once the
search returned the relay-floor auxiliary; each r1 is within 4e-13 bits of
the restarts' answer that it replaced, and only the tables differ. Any
change to the arithmetic of the information core, the Blahut-Arimoto solve,
the finite-difference pass, the floor construction or the enumeration shows
here as a changed bit.
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
    (0.05, 0.33, 0.4): ("0x1.bdfbdfe47f5b8p-2", "6aea36fe5b3a1d13", "27304f5a90071f3d",
                        "0x1.71a08f2b35a90p-1"),
    (0.08, 0.36, 0.4): ("0x1.476c41c23a210p-2", "d5ac4e4b00d52367", "4bf6dd2233e37708",
                        "0x1.5737000964f24p-2"),
    (0.10, 0.33, 0.5): ("0x1.0300bcd4b1118p-2", "b4f931d130874999", "219c695e07af770e",
                        "0x1.2cf81ebbbace4p-2"),
    (0.12, 0.36, 0.3): ("0x1.8a60b00b4f560p-3", "5c59e5baff9474b4", "791c8b7b2ac0414a",
                        "0x1.a9f62c99a9318p-3"),
    (0.15, 0.33, 0.4): ("0x1.cb1c91110d0a0p-4", "4e45482387b2f29a", "59b0ab4e9c24e9f8",
                        "0x1.5737000964f10p-3"),
    (0.15, 0.36, 0.5): ("0x1.cb1c91110d0a0p-4", "2a7fb64e6c0e90f3", "2c4fb80edb573458",
                        "0x1.393cb4ff7ccc0p-3"),
    (0.10, 0.36, 0.4): ("0x1.0300bcd4b1118p-2", "3d4160d8e5c4bb64", "74027e737256fadd",
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
    # the relay-floor candidate is feasible here, but not below the constant-U
    # anchor, so the restarts run as they did before the candidate existed
    res = min_r1_cascade_search(dsbs_source(), 0.05, 0.4, 0.05, u_size=2, restarts=2,
                                seed=0)
    assert res.path == "search"
    assert res.r1.hex() == "0x1.bdfbdfe47f258p-2"
    assert (digest(res.aux.p_u.table), digest(res.aux.p_xhat1.table),
            digest(res.aux.g2.table)) == ("fbc55c5787edc3a0", "bd3a2e89525a6c94",
                                          "01c84f606ffe38ee")


def test_ternary_search_is_pinned():
    res = min_r1_cascade_search(ternary_source(), 0.15, 0.45, 0.6, u_size=2,
                                restarts=2, seed=0)
    assert res.path == "search"  # |Xhat1| = 3 exceeds u_size
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
