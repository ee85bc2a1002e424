"""The five discrete evaluators against pinned values, bit for bit.

Each setting is evaluated on three fixed-seed instances with mixed alphabet
sizes (constant auxiliaries included). The expected values are stored as
float.hex strings, so any change to the order of the arithmetic in the joint
construction, the rate terms or the distortion terms shows up here.
"""

import numpy as np

from cascade_rd.discrete import (
    AuxiliarySystem,
    SourceSpec,
    eval_cascade_point,
    eval_helper_triangular_point,
    eval_triangular_point,
    eval_two_way_cascade_point,
    eval_two_way_triangular_point,
)
from cascade_rd.probability import CondPMF, DeterministicMap, compose_markov_chain

FIELDS = ("r1", "r2", "r3", "r4", "rh", "d1", "d2", "d3")

EVALUATORS = {
    "cascade": eval_cascade_point,
    "triangular": eval_triangular_point,
    "two-way-cascade": eval_two_way_cascade_point,
    "two-way-triangular": eval_two_way_triangular_point,
    "helper": eval_helper_triangular_point,
}


def instance(setting, k):
    """Source and auxiliary number k of a setting, a fixed function of (setting, k)."""
    rng = np.random.default_rng([sorted(EVALUATORS).index(setting), k])
    nx, ny, nz = (int(s) for s in rng.integers(2, 4, size=3))
    pmf = compose_markov_chain(
        rng.dirichlet(np.ones(nx)),
        CondPMF(rng.dirichlet(np.ones(ny), size=nx)),
        CondPMF(rng.dirichlet(np.ones(nz), size=ny)),
    )
    d1 = rng.uniform(0.0, 2.0, size=(nx, int(rng.integers(2, 4))))
    d2 = rng.uniform(0.0, 2.0, size=(nx, int(rng.integers(2, 4))))
    d3 = rng.uniform(0.0, 2.0, size=(nz, int(rng.integers(2, 4))))
    src = SourceSpec(pmf, d1, d2, d3=d3)

    def size():
        return int(rng.integers(1, 4))

    def cond(*ins):
        out = size()
        return CondPMF(rng.dirichlet(np.ones(out), size=ins)), out

    def gmap(ins, table):
        return DeterministicMap(rng.integers(0, table.shape[1], size=ins), table.shape[1])

    nh = d1.shape[1]
    aux = {}
    if setting == "helper":
        aux["p_uh"], nuh = cond(ny)
        aux["p_u"], nu = cond(nx, ny, nuh)
        aux["p_v"], nu2 = cond(nx, ny, nuh, nu)
        aux["p_xhat1"] = CondPMF(rng.dirichlet(np.ones(nh), size=(nx, ny, nuh, nu)))
        aux["g2"] = gmap((nu, nu2, nuh, nz), d2)
        return src, AuxiliarySystem(**aux)
    aux["p_u"], nu = cond(nx, ny)
    aux["p_xhat1"] = CondPMF(rng.dirichlet(np.ones(nh), size=(nx, ny, nu)))
    triangular = setting in ("triangular", "two-way-triangular")
    v = ()
    if triangular:
        aux["p_v"], nv = cond(nx, ny, nu)
        v = (nv,)
    aux["g2"] = gmap((nu,) + v + (nz,), d2)
    if setting.startswith("two-way"):
        aux["p_u2"], nu2 = cond(nz, nu, *v)
        aux["g3"] = gmap((nu, nu2) + v + (nx, ny), d3)
    return src, AuxiliarySystem(**aux)


def hex_point(pt):
    return tuple(None if getattr(pt, f) is None else float(getattr(pt, f)).hex()
                 for f in FIELDS)


# captured from the per-setting evaluators before they were folded into one
GOLDEN = {
    "cascade": [
        ("0x1.a097683727e00p-7", "0x0.0p+0", None, None, None,
         "0x1.7a18bbe1ee2cdp+0", "0x1.a1397240eaf04p+0", None),
        ("0x1.08839f03d7194p-2", "0x1.380b043152e70p-2", None, None, None,
         "0x1.ee6f0e633a3ffp-1", "0x1.5d5e0b716e3d2p-1", None),
        ("0x1.975ae7a5febd8p-4", "0x1.b3b01a09697a0p-6", None, None, None,
         "0x1.93197741a2b44p+0", "0x1.27a8834d735b6p-1", None),
    ],
    "triangular": [
        ("0x1.62bfe40a57e60p-2", "0x1.3cece58f46920p-3", "0x1.b6eedeca22230p-3", None, None,
         "0x1.0093de2dc4d08p+0", "0x1.7011150e6e5cep-1", None),
        ("0x1.8f33afff7bc80p-6", "0x0.0p+0", "0x1.d040b89333408p-3", None, None,
         "0x1.e2bfcf0ca612bp-1", "0x1.f7d40f69abbd8p-1", None),
        ("0x1.46c716c19ae0cp-2", "0x1.1b8b6fb027420p-4", "0x1.4bbec996cf000p-2", None, None,
         "0x1.762250dd6d918p-1", "0x1.497786ada8904p-1", None),
    ],
    "two-way-cascade": [
        ("0x1.0512482ae6e3cp-2", "0x1.7f57308241de8p-3", "0x1.fe4567878bc40p-4", None, None,
         "0x1.2fe60ad458a27p+0", "0x1.12dff24560792p+0", "0x1.d63f21594a1d4p-1"),
        ("0x1.35509003ad7f0p-4", "0x0.0p+0", "0x1.29d4de095f760p-4", None, None,
         "0x1.ac5f6c550a682p-1", "0x1.45f35b99962c7p-1", "0x1.e81895d0c2fc3p-1"),
        ("0x1.56d942f5819f0p-4", "0x0.0p+0", "0x0.0p+0", None, None,
         "0x1.fd155907c4fc5p-2", "0x1.8bf4182295382p+0", "0x1.1f0924bd2a4d8p+0"),
    ],
    "two-way-triangular": [
        ("0x1.8cf2a92c73ed8p-3", "0x0.0p+0", "0x1.baa9ad2406bf0p-3", "0x1.67aeb31704880p-4", None,
         "0x1.10c1969c46b87p+0", "0x1.8c5e1a355bda0p-1", "0x1.c317f4fb4799ep-1"),
        ("0x1.e3dfd07cfb560p-4", "0x1.7afb48de51ee0p-5", "0x1.17e73751cb2a0p-3", "0x1.5dcd7079f32c0p-4", None,
         "0x1.47f810eb51951p+0", "0x1.0bd282feea91ap-2", "0x1.052cd157db40fp+0"),
        ("0x1.47c3184487198p-1", "0x1.4617d0995fbccp-1", "0x0.0p+0", "0x1.c1f9354979060p-4", None,
         "0x1.be6c8f4a79d9fp-1", "0x1.3d5369a6d2a01p+0", "0x1.26d945ac2cf33p+0"),
    ],
    "helper": [
        ("0x1.7490175ed0400p-7", "0x0.0p+0", "0x1.28da0298f9400p-4", None, "0x1.2de3484a9ead0p-4",
         "0x1.91065def15b12p+0", "0x1.6c9eaf1bdaab2p+0", None),
        ("0x1.21527e654847cp-2", "0x1.48b770db188f8p-3", "0x1.bec5471857a70p-3", None, "0x1.9543a9f02b500p-8",
         "0x1.c7c82ab71f54fp-1", "0x1.1f12a83547bcap+0", None),
        ("0x1.44ee9f69bd880p-2", "0x0.0p+0", "0x1.ea00f84bf9658p-3", None, "0x1.9c4ee87db7800p-10",
         "0x1.58a5ce453e8e4p+0", "0x1.805f929b407dcp-1", None),
    ],
}


def test_evaluators_reproduce_pinned_values_exactly():
    for setting, rows in GOLDEN.items():
        for k, expected in enumerate(rows):
            src, aux = instance(setting, k)
            assert hex_point(EVALUATORS[setting](src, aux)) == expected, (setting, k)
