"""run_simulation against pinned results, bit for bit.

The cases cover the scans' corner cases: zero-probability (u, c) cells (the
erasure auxiliary and the random sparse ones), conditioning symbols absent
from the sequence (Y = X makes half the (x, y) symbols impossible, Z is
constant), a one-codeword code (constant U), the 65536-codeword code at
n = 20, and random |U| = 3 and 4 auxiliaries on 2- and 3-letter sources.
Every float field is stored as a float.hex string, so any change to which
codewords pass a scan, to the codebook draw or to the RNG stream shows here.
"""

import numpy as np

from cascade_rd.discrete import AuxiliarySystem, SourceSpec
from cascade_rd.probability import CondPMF, DeterministicMap, compose_markov_chain
from cascade_rd.simulate import TypicalityParams, run_simulation
from fixtures import bsc_aux, const_aux, ident_source
FLOAT_FIELDS = ("epsilon", "delta", "d1_mean", "d2_mean", "d1_ci", "d2_ci",
                "d1_mean_clean", "d2_mean_clean", "d1_ci_clean", "d2_ci_clean")


def erasure_aux():
    p_u = np.zeros((2, 2, 3))
    p_u[0, :, 0] = p_u[1, :, 1] = 0.65
    p_u[:, :, 2] = 0.35
    p_xhat1 = np.zeros((2, 2, 3, 2))
    p_xhat1[:, :, 0, 0] = p_xhat1[:, :, 1, 1] = p_xhat1[:, :, 2, 0] = 1.0
    return AuxiliarySystem(p_u=CondPMF(p_u), p_xhat1=CondPMF(p_xhat1),
                           g2=DeterministicMap(np.array([[0], [1], [0]]), 2))


def random_case(k, nx, ny, nz, nu):
    """A Markov source and an auxiliary with some zero p(u|x,y) cells, fixed by k."""
    rng = np.random.default_rng([7, k])
    pmf = compose_markov_chain(rng.dirichlet(8 * np.ones(nx)),
                               CondPMF(rng.dirichlet(8 * np.ones(ny), size=nx)),
                               CondPMF(rng.dirichlet(8 * np.ones(nz), size=ny)))
    p_u = rng.dirichlet(4 * np.ones(nu), size=(nx, ny))
    p_u[rng.random(p_u.shape) < 0.25] = 0.0
    p_u[..., 0] += p_u.sum(axis=-1) == 0
    p_u /= p_u.sum(axis=-1, keepdims=True)
    p_xhat1 = rng.dirichlet(np.ones(2), size=(nx, ny, nu))
    src = SourceSpec(pmf, rng.uniform(0, 1, (nx, 2)), rng.uniform(0, 1, (nx, 2)))
    aux = AuxiliarySystem(p_u=CondPMF(p_u), p_xhat1=CondPMF(p_xhat1),
                          g2=DeterministicMap(rng.integers(0, 2, size=(nu, nz)), 2))
    return src, aux


# name -> (source, auxiliary, epsilon, n, delta, trials, seed)
CASES = {
    "erasure-n12": lambda: (ident_source(), erasure_aux(), 0.65, 12, 0.15, 200, 0),
    "erasure-n20": lambda: (ident_source(), erasure_aux(), 0.65, 20, 0.15, 20, 3),
    "bsc-0.25": lambda: (ident_source(), bsc_aux(0.25), 0.4, 12, 0.15, 150, 7),
    "bsc-0.11": lambda: (ident_source(), bsc_aux(0.11), 0.3, 16, 0.15, 150, 1),
    "constant-u": lambda: (ident_source(), const_aux(), 0.4, 10, 0.1, 50, 2),
    "random-u3": lambda: (*random_case(0, 2, 2, 2, 3), 0.9, 16, 0.1, 100, 0),
    "random-u3-y3": lambda: (*random_case(3, 2, 3, 2, 3), 0.8, 12, 0.1, 100, 3),
    "random-u4-x3": lambda: (*random_case(2, 3, 2, 2, 4), 0.9, 16, 0.1, 100, 2),
}


def pinned(res):
    """(event counts, clean trials, float.hex of every float field and rate)."""
    return (res.event_counts, res.clean_trials,
            tuple(float.hex(getattr(res, f)) for f in FLOAT_FIELDS),
            tuple(float.hex(r) for r in res.rates))


def run_case(name):
    src, aux, eps, n, delta, trials, seed = CASES[name]()
    return run_simulation(src, aux, TypicalityParams(epsilon=eps, n=n),
                          delta=delta, trials=trials, seed=seed)


GOLDEN = {
    "erasure-n12": (
        (8, 38, 38, 38, 11, 79), 121,
        ("0x1.4cccccccccccdp-1",
         "0x1.3333333333333p-3", "0x1.ee147ae147ae1p-3", "0x1.3c962fc962fcap-2",
         "0x1.41090bcc6130cp-6", "0x1.aa2022333bab0p-6", "0x1.810ecf56be69cp-3",
         "0x1.810ecf56be69cp-3", "0x1.664114486202ep-7", "0x1.664114486202ep-7"),
        ("0x1.9999999999999p-1", "0x1.3333333333333p-2",
         "0x1.3333333333333p-3", "0x1.e666666666666p-1")),
    "erasure-n20": (
        (0, 2, 2, 2, 1, 5), 15,
        ("0x1.4cccccccccccdp-1",
         "0x1.3333333333333p-3", "0x1.947ae147ae149p-3", "0x1.147ae147ae148p-2",
         "0x1.20235558f9db7p-5", "0x1.253e4d71e4231p-4", "0x1.7777777777777p-3",
         "0x1.7777777777777p-3", "0x1.e72e2980ce20fp-6", "0x1.e72e2980ce20fp-6"),
        ("0x1.9999999999999p-1", "0x1.3333333333333p-2",
         "0x1.3333333333333p-3", "0x1.e666666666666p-1")),
    "bsc-0.25": (
        (20, 36, 36, 36, 9, 74), 75,
        ("0x1.999999999999ap-2",
         "0x1.3333333333333p-3", "0x1.7530eca8641fdp-2", "0x1.9f49f49f49f49p-2",
         "0x1.989d4efad27e2p-6", "0x1.ab1c0d0c3fac3p-6", "0x1.1a2b3c4d5e6f8p-2",
         "0x1.1a2b3c4d5e6f8p-2", "0x1.6df29e4aa7d1cp-7", "0x1.6df29e4aa7d1cp-7"),
        ("0x1.5ad9e8478d1d2p-2", "0x1.3333333333333p-2",
         "0x1.3333333333333p-3", "0x1.f47381e126b6bp-2")),
    "bsc-0.11": (
        (26, 42, 42, 42, 6, 24), 78,
        ("0x1.3333333333333p-2",
         "0x1.3333333333333p-3", "0x1.dd0369d0369d0p-3", "0x1.2aaaaaaaaaaabp-2",
         "0x1.d72de5a0f58f2p-6", "0x1.09684cc51f471p-5", "0x1.0000000000000p-3",
         "0x1.0000000000000p-3", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.4cd7d0c6ab713p-1", "0x1.3333333333333p-2",
         "0x1.3333333333333p-3", "0x1.99a49d93783e0p-1")),
    "constant-u": (
        (6, 6, 6, 6, 44, 27), 0,
        ("0x1.999999999999ap-2",
         "0x1.999999999999ap-4", "0x1.0a3d70a3d70a3p-1", "0x1.0a3d70a3d70a3p-1",
         "0x1.6938c06a45e5cp-5", "0x1.6938c06a45e5cp-5", "nan",
         "nan", "nan", "nan"),
        ("0x1.999999999999ap-4", "0x1.999999999999ap-3",
         "0x1.999999999999ap-4", "0x1.999999999999ap-3")),
    "random-u3": (
        (14, 87, 100, 100, 20, 34), 0,
        ("0x1.ccccccccccccdp-1",
         "0x1.999999999999ap-4", "0x1.55ac8b600178cp-1", "0x1.5b9df86cb3525p-2",
         "0x1.1e37e41c0450fp-7", "0x1.99b3fbd22b14ap-7", "nan",
         "nan", "nan", "nan"),
        ("0x1.983a9e3fb47aep-2", "0x1.f362ed9a6e137p-2",
         "0x1.ff9118d7b5dbap-4", "0x1.fe9bbfa051223p-2")),
    "random-u3-y3": (
        (95, 100, 100, 100, 0, 76), 0,
        ("0x1.999999999999ap-1",
         "0x1.999999999999ap-4", "0x1.1aa2494884224p-2", "0x1.c2eb8940356c0p-4",
         "0x1.0f0c115e04bdcp-6", "0x1.164986ce43008p-11", "nan",
         "nan", "nan", "nan"),
        ("0x1.99e268f018f17p-1", "0x1.01cc5847171a6p-1",
         "0x1.7dcc6f614d1edp-3", "0x1.c2aaf0141a5d0p-1")),
    "random-u4-x3": (
        (69, 100, 100, 100, 0, 25), 0,
        ("0x1.ccccccccccccdp-1",
         "0x1.999999999999ap-4", "0x1.28d3501e77838p-1", "0x1.0c5a8a89be1c9p-1",
         "0x1.1cfa730e3a968p-6", "0x1.5d23ad856b342p-6", "nan",
         "nan", "nan", "nan"),
        ("0x1.e6f675d8b39b6p-2", "0x1.005897ae2f002p-1",
         "0x1.fe585c906a70dp-3", "0x1.26139355c2582p-1")),
}


def test_simulation_reproduces_pinned_results_exactly():
    assert set(GOLDEN) == set(CASES)
    for name, expected in GOLDEN.items():
        assert pinned(run_case(name)) == expected, name
