"""Sources, auxiliaries and helpers that several test modules share, each stated once."""

import math

import numpy as np

from cascade_rd.discrete import AuxiliarySystem, SourceSpec
from cascade_rd.probability import CondPMF, DeterministicMap, JointPMF, compose_markov_chain

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def h2(p):
    """Binary entropy in bits."""
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def rand_cond(rng, ins, out):
    return CondPMF(rng.dirichlet(np.ones(out), size=ins))


def binary_markov_source(rng, d3=False):
    pmf = compose_markov_chain(
        rng.dirichlet(np.ones(2)), rand_cond(rng, (2,), 2), rand_cond(rng, (2,), 2)
    )
    return SourceSpec(pmf, HAMMING, HAMMING, d3=HAMMING if d3 else None)


def ident_source():
    """Y = X uniform binary, Z constant, Hamming distortions."""
    pxyz = np.zeros((2, 2, 1))
    pxyz[0, 0, 0] = 0.5
    pxyz[1, 1, 0] = 0.5
    return SourceSpec(JointPMF(pxyz), HAMMING, HAMMING)


def bsc_aux(q):
    """U = X through a BSC(q), Xhat1 = U, g2 = U."""
    p_u = np.zeros((2, 2, 2))
    p_u[0] = [1 - q, q]
    p_u[1] = [q, 1 - q]
    p_xhat1 = np.zeros((2, 2, 2, 2))
    p_xhat1[:, :, 0, 0] = p_xhat1[:, :, 1, 1] = 1.0
    return AuxiliarySystem(p_u=CondPMF(p_u), p_xhat1=CondPMF(p_xhat1),
                           g2=DeterministicMap(np.array([[0], [1]]), 2))


def const_aux():
    """Constant U, Xhat1 and g2, all symbol 0."""
    p_xhat1 = np.zeros((2, 2, 1, 2))
    p_xhat1[..., 0] = 1.0
    return AuxiliarySystem(p_u=CondPMF(np.ones((2, 2, 1))), p_xhat1=CondPMF(p_xhat1),
                           g2=DeterministicMap(np.zeros((1, 1), dtype=int), 2))
