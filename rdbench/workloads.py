"""The benchmark's workloads: sim-n20, search-dsbs and gauss-sweep.

A workload is a fixed list of units per round; a unit is one call into the
public entry point of the layer under test. `units(seed, rnd)` is a pure
function of the benchmark seed and the round index, so the same seed gives
the same inputs, and no two units of a run repeat an input unless the
workload has a fixed, vetted query set (search-dsbs, see README.md).

Each workload object is built from `api`, a namespace holding the program's
modules, and does its set-up in `setup(seed, workdir)`: it generates its
inputs, writes the source and auxiliary files through the program's own
serialisers and reads them back, as a user of the CLI would.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

import checks

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one unit, a pure function of (seed, path)."""
    ss = np.random.SeedSequence([seed % 2**63, *path])
    return int(ss.generate_state(1, np.uint32)[0])


# ----------------------------------------------------------------- simulator

SIM_EPSILON = 0.65
SIM_DELTA = 0.15


def erasure_tables():
    """Acceptance-8 instance: Y = X uniform binary, Z constant, Hamming.

    U is an erasure description of X (U = X w.p. 0.65, erased otherwise),
    Xhat1 copies U with the erasure read as 0, and g2(u, z) does the same.
    """
    pxyz = np.zeros((2, 2, 1))
    pxyz[0, 0, 0] = 0.5
    pxyz[1, 1, 0] = 0.5
    p_u = np.zeros((2, 2, 3))
    p_u[0, :, 0] = 0.65
    p_u[0, :, 2] = 0.35
    p_u[1, :, 1] = 0.65
    p_u[1, :, 2] = 0.35
    p_xhat1 = np.zeros((2, 2, 3, 2))
    p_xhat1[:, :, 0, 0] = 1.0
    p_xhat1[:, :, 1, 1] = 1.0
    p_xhat1[:, :, 2, 0] = 1.0
    g2 = np.array([[0], [1], [0]])
    return SimpleNamespace(pxyz=pxyz, d1=HAMMING, d2=HAMMING,
                           p_u=p_u, p_xhat1=p_xhat1, g2=g2)


class SimWorkload:
    """`simulate.run_simulation` at n = 20; one unit = a fixed number of trials."""

    item_label = "trials"
    trace_rounds = 1
    n = 20
    trials = 10
    units_per_round = 4

    def __init__(self, api):
        self.api = api

    def setup(self, seed, workdir):
        api = self.api
        self.tables = t = erasure_tables()
        src = api.discrete.SourceSpec(api.probability.JointPMF(t.pxyz), t.d1, t.d2)
        aux = api.discrete.AuxiliarySystem(
            p_u=api.probability.CondPMF(t.p_u),
            p_xhat1=api.probability.CondPMF(t.p_xhat1),
            g2=api.probability.DeterministicMap(t.g2, 2),
        )
        src_path = os.path.join(workdir, "sim-source.txt")
        aux_path = os.path.join(workdir, "sim-aux.txt")
        with open(src_path, "w") as fh:
            fh.write(api.discrete.save_source_spec(src))
        with open(aux_path, "w") as fh:
            fh.write(api.discrete.save_aux(aux))
        with open(src_path) as fh:
            self.src = api.discrete.load_source_spec(fh.read())
        with open(aux_path) as fh:
            self.aux = api.discrete.load_aux(fh.read())
        self.tp = api.simulate.TypicalityParams(epsilon=SIM_EPSILON, n=self.n)

    def units(self, seed, rnd):
        return [derived_seed(seed, 1, rnd, i) for i in range(self.units_per_round)]

    def warmup_unit(self, seed):
        return derived_seed(seed, 0)

    def run(self, unit):
        return self.api.simulate.run_simulation(
            self.src, self.aux, self.tp, delta=SIM_DELTA, trials=self.trials, seed=unit)

    def items(self, unit, out):
        return self.trials

    def check(self, unit, out):
        return checks.check_sim(out, self.tables, SIM_EPSILON, SIM_DELTA, self.trials)


# -------------------------------------------------------------------- search

SEARCH_CROSSOVERS = (0.2, 0.3)  # X -> Y, Y -> Z
SEARCH_U_SIZE = 2
SEARCH_RESTARTS = 2
SEARCH_SEED = 0
ORACLE_RESOLUTION = 5
# (d1, d2, r2): each answered by the search with the settings above, and of
# similar cost, so that the median unit is not a toss-up between two queries
# of different cost; README.md gives how they were vetted
SEARCH_QUERIES = (
    (0.05, 0.33, 0.4),
    (0.08, 0.36, 0.4),
    (0.10, 0.33, 0.5),
    (0.12, 0.36, 0.3),
    (0.15, 0.33, 0.4),
    (0.15, 0.36, 0.5),
)
SEARCH_WARMUP = (0.10, 0.36, 0.4)
# round r runs the queries r % SEARCH_PARTS, r % SEARCH_PARTS + SEARCH_PARTS, ...
SEARCH_PARTS = 3


def dsbs_tables():
    """Acceptance-7 source: X uniform, X -> Y and Y -> Z binary symmetric."""
    p_yx, p_zy = SEARCH_CROSSOVERS
    bsc = lambda q: np.array([[1.0 - q, q], [q, 1.0 - q]])  # noqa: E731
    pxyz = 0.5 * bsc(p_yx)[:, :, None] * bsc(p_zy)[None, :, :]
    return SimpleNamespace(pxyz=pxyz, d1=HAMMING, d2=HAMMING)


class SearchWorkload:
    """One certified query: `oracle_min_r1`, then `min_r1_cascade_search`."""

    item_label = "queries"
    trace_rounds = SEARCH_PARTS  # every query once

    def __init__(self, api):
        self.api = api

    def setup(self, seed, workdir):
        api = self.api
        self.tables = t = dsbs_tables()
        src = api.discrete.SourceSpec(api.probability.JointPMF(t.pxyz), t.d1, t.d2)
        path = os.path.join(workdir, "search-source.txt")
        with open(path, "w") as fh:
            fh.write(api.discrete.save_source_spec(src))
        with open(path) as fh:
            self.src = api.discrete.load_source_spec(fh.read())
        self.slack = api.discrete.ORACLE_SLACK_BITS[ORACLE_RESOLUTION]

    def units(self, seed, rnd):
        part = SEARCH_QUERIES[rnd % SEARCH_PARTS::SEARCH_PARTS]
        order = np.random.default_rng(derived_seed(seed, 2, rnd)).permutation(len(part))
        return [part[i] for i in order]

    def warmup_unit(self, seed):
        return SEARCH_WARMUP

    def run(self, unit):
        d1, d2, r2 = unit
        disc = self.api.discrete
        oracle = disc.oracle_min_r1(self.src, SEARCH_U_SIZE, ORACLE_RESOLUTION, d1, d2, r2)
        res = disc.min_r1_cascade_search(self.src, d1, d2, r2, u_size=SEARCH_U_SIZE,
                                         restarts=SEARCH_RESTARTS, seed=SEARCH_SEED)
        return oracle, res

    def items(self, unit, out):
        return 1

    def check(self, unit, out):
        oracle, res = out
        aux = (res.aux.p_u.table, res.aux.p_xhat1.table, res.aux.g2.table)
        return checks.check_search(unit, res.r1, aux, self.tables,
                                   SEARCH_CROSSOVERS[0], oracle, self.slack)


# ------------------------------------------------------------------ Gaussian

SWEEP_POINTS = 200
# (command, fixed flags, (swept flag, scale, lo, hi)); every point is feasible
GAUSS_SWEEPS = (
    ("gaussian-cascade", dict(var_a=1, var_b=1, var_z=1, d1=0.25, d2=0.5),
     ("r2", "log", 1.0, 4.0)),
    ("gaussian-cascade", dict(var_a=1, var_b=1, var_z=1, d1=0.25, r2=1.5),
     ("d2", "log", 0.3, 2.5)),
    ("gaussian-triangular", dict(var_a=1, var_b=1, var_z=1, d1=0.25, d2=0.5, r2=0.6),
     ("r3", "lin", 0.45, 1.5)),
    ("gaussian-two-way", dict(var_a=1, var_b=1, var_z=1, d1=0.25, d2=0.5, d3=0.3,
                              r3=0.2, r4=1.0),
     ("r2", "lin", 0.85, 2.0)),
    ("gaussian-extended", dict(var_a=1, var_b=1, var_z=1, dz1=0.1, dz2=0.3, r4=0.5),
     ("r3", "lin", 1.2, 3.0)),
)
# rates are invariant when every variance and distortion scales by one factor
SCALED = {"var_a", "var_b", "var_z", "d1", "d2", "d3", "dz1", "dz2"}


def branch_of(alpha: float, beta: float) -> str:
    """Solver branch of a forward answer, read from the returned (alpha, beta)."""
    if alpha > 0:
        return "boundary"
    return "beta_only" if beta != 0 else "const_u"


def _cell(text):
    return float(text) if text else None


class GaussWorkload:
    """In-process `cli.main` sweeps of the four Gaussian commands."""

    item_label = "points"
    trace_rounds = 1

    def __init__(self, api, oracle):
        self.api = api
        self.oracle = oracle
        self.branches = {"boundary": 0, "beta_only": 0, "const_u": 0}

    def setup(self, seed, workdir):
        self.out = os.path.join(workdir, "sweep.csv")

    @staticmethod
    def _sweeps(unit_seed):
        scale = float(2.0 ** np.random.default_rng(unit_seed).uniform(-1.0, 1.0))
        return [(cmd, scale, fixed, sweep) for cmd, fixed, sweep in GAUSS_SWEEPS]

    def units(self, seed, rnd):
        return self._sweeps(derived_seed(seed, 3, rnd))

    def warmup_unit(self, seed):
        return self._sweeps(derived_seed(seed, 0))[0]

    def argv(self, unit):
        cmd, scale, fixed, (name, kind, lo, hi) = unit
        argv = [cmd]
        for key, val in fixed.items():
            val = val * scale if key in SCALED else val
            argv += ["--" + key.replace("_", "-"), repr(float(val))]
        if name in SCALED:
            lo, hi = lo * scale, hi * scale
        argv += ["--sweep", f"{name}:{kind}:{lo!r}:{hi!r}:{SWEEP_POINTS}", "--out", self.out]
        return argv

    def run(self, unit):
        return self.api.cli.main(self.argv(unit))

    def read_rows(self):
        with open(self.out) as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    def items(self, unit, out):
        return SWEEP_POINTS

    def check(self, unit, out):
        cmd, _, _, (swept, _, _, _) = unit
        if out != 0:
            return [("exit", f"{cmd} exited with {out}")]
        rows = self.read_rows()
        fails = []
        if len(rows) != SWEEP_POINTS:
            fails.append(("rows", f"{cmd}: {len(rows)} rows, expected {SWEEP_POINTS}"))
        bad = [r["status"] for r in rows if r["status"] != "ok"]
        if bad:
            return fails + [("status", f"{cmd}: {len(bad)} rows not ok ({bad[0]})")]
        if cmd == "gaussian-extended":
            keys = ("dz1", "dz2", "dist_z1", "dist_z2", "slack_r3", "slack_r3_r5",
                    "slack_r4_r5")
            return fails + checks.check_extended_rows(
                [{k: _cell(r[k]) for k in keys} for r in rows])
        fwd = []
        for r in rows:
            d2_eff = _cell(r["d2"])
            if cmd != "gaussian-cascade":
                d2_eff *= 2.0 ** (2.0 * _cell(r["r3"]))
            alpha, beta = _cell(r["alpha"]), _cell(r["beta"])
            fwd.append(dict(va=_cell(r["var_a"]), vb=_cell(r["var_b"]), d1=_cell(r["d1"]),
                            d2_eff=d2_eff, r2=_cell(r["r2"]), r1=_cell(r["r1"]),
                            alpha=alpha, beta=beta))
            self.branches[branch_of(alpha, beta)] += 1
        return fails + checks.check_forward_rows(fwd, swept, oracle=self.oracle)


# -------------------------------------------------------------------- table

WORKLOADS = {
    "sim-n20": lambda api, oracle: SimWorkload(api),
    "search-dsbs": lambda api, oracle: SearchWorkload(api),
    "gauss-sweep": lambda api, oracle: GaussWorkload(api, oracle),
}
