"""Single-letter region evaluation and search on finite alphabets.

Evaluators compute the exact rate lower bounds and expected distortions of a
fixed auxiliary system for the cascade, triangular, two-way and helper
settings; the search optimizes the cascade bound over auxiliaries by
alternating exponentiated-gradient / Blahut-Arimoto / best-response rounds,
validated against a quantized-simplex enumeration oracle.

Before its restarts, the search tries the relay-floor auxiliary: U a
garbling of the conditional rate-distortion channel W at min(d1, d2). When
d1 and d2 are the same table and that auxiliary meets the query, its r1 is
the conditional rate-distortion floor R_{X|Y}(min(d1, d2)), which no
auxiliary can beat, so it is returned and no restart runs
(`min_r1_cascade_search` gives the proof).

Each setting is data (`_SETTINGS`): the axes of its joint pmf, the auxiliary
channels that multiply the source into that joint, its rate terms and its
distortion terms. One evaluator, `evaluate_point`, validates and evaluates
them all on top of the information core in `probability`; the search, the
simulator and the CLI read the same table.

The search and the oracle evaluate stacks of tables through the batch axis
of that core: the finite-difference gradient of one exponentiated-gradient
step is one stack, and the oracle enumerates channels in bounded chunks into
one table of points. That table depends only on the source's content, |U|
and the resolution, so the most recent one is kept and each query is a mask
and a min over it. Likewise the search keeps the 256 most recently used
constant-U anchors, keyed by the source's content, |U| and d1, and its floor
garbling reads r2 from a form evaluated at many blend weights at once,
deferring to `_cmi` near the bound. Every answer is bit-identical to
evaluating the tables one at a time, from scratch. The relay solve
(`_xhat1_rd_solve`) solves each slope to Blahut's bound by Newton steps and
finds the slope by a bracketed regula falsi.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, InfeasibleError, ResourceLimitError
from .probability import ByContent, CondPMF, DeterministicMap, JointPMF, check_markov_chain
from .probability import cmi as _cmi, joint as _joint, marginal as _marginal
from .probability import read_blocks, table_entropy, write_block


@dataclass(frozen=True, eq=False)
class SourceSpec(ByContent):
    """Markov source p(x,y,z) with its distortion tables.

    d1[x, xhat1] scores the relay reconstruction, d2[x, xhat2] the terminal
    one, d3[z, zhat] (optional) the backward reconstruction of Z. The
    tables are read-only copies of the arrays passed in.
    """

    pmf: JointPMF
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray | None = None

    def __post_init__(self):
        if self.pmf.arity != 3:
            raise ValueError("source pmf must have exactly the variables (X, Y, Z)")
        dev = check_markov_chain(self.pmf, ([0], [1], [2]))
        if dev > 1e-10:
            raise FactorizationError(
                f"source is not Markov X-Y-Z (deviation {dev:g} bits)"
            )
        nx, _, nz = self.pmf.sizes
        for name, rows in (("d1", nx), ("d2", nx), ("d3", nz)):
            if name == "d3" and self.d3 is None:  # the one optional table
                continue
            t = np.array(getattr(self, name), dtype=np.float64)
            if t.ndim != 2 or t.shape[0] != rows:
                raise ValueError(f"{name} must be a ({rows}, n_hat) table")
            if not np.isfinite(t).all() or (t < 0).any():
                raise ValueError(f"{name} entries must be finite and nonnegative")
            t.flags.writeable = False
            object.__setattr__(self, name, t)


@dataclass(frozen=True)
class AuxiliarySystem:
    """Container for the conditional channels and reconstruction maps.

    Which fields are read, and the conditioning each table must carry, depends
    on the setting; `_SETTINGS` states both for each one. Conditioning inputs
    are always ordered like the joint axes (X, Y, Z, then auxiliaries).
    """

    p_u: CondPMF | None = None
    p_xhat1: CondPMF | None = None
    p_v: CondPMF | None = None
    p_u2: CondPMF | None = None
    p_uh: CondPMF | None = None
    g2: DeterministicMap | None = None
    g3: DeterministicMap | None = None


@dataclass(frozen=True)
class RegionPoint:
    """Rate lower bounds (bits) and expected distortions of one auxiliary."""

    r1: float
    r2: float
    r3: float | None = None
    r4: float | None = None
    rh: float | None = None
    d1: float | None = None
    d2: float | None = None
    d3: float | None = None


# ------------------------------------------------------------------ settings
# Every setting is data over one joint pmf, the source times its channels:
#   axes     source (X, Y, Z), auxiliaries in generation order, relay
#            reconstruction last; one relative order for all settings keeps
#            the degenerate reductions exact down to the last bit
#   factors  channel -> its axes, output last; multiplied in this order
#   maps     reconstruction map -> its input axes, in the map table's order
#   rates    bound -> "A | B | C" for I(A; B | C)
#   dists    distortion -> "source reconstruction", the latter an axis or a map
#   budgets  auxiliary axis -> its cardinality bound, given the axis sizes
# Triangular adds the refinement V that only the terminal node decodes. The
# two-way settings add the backward description U2 of Z, whose rate bound is
# the last rate (r3, or r4 with V) and whose reconstruction zhat = g3 scores
# d3. Helper is triangular with a rate-limited observer of Y sending Uh (rate
# rh); its refinement for the terminal node rides in p_v, as p(u2|x,y,uh,u1).


class _Setting:
    """One setting's table, compiled to joint axis indices, which `axes` names.

    A distortion term reads the source axis, then the reconstruction axis or
    the map's inputs in the map table's order; `order` lines its table up with
    the marginal on those axes, `keep`, whose axes ascend.
    """

    def __init__(self, axes, factors, maps, rates, dists, budgets):
        self._index = {a: i for i, a in enumerate(axes.split())}
        self.ndim, self.budgets = len(self._index), budgets
        self.factors = {f: a.split() for f, a in factors.items()}
        self.maps = {g: a.split() for g, a in maps.items()}
        self.factor_axes = (self.axes("X Y Z"),) + tuple(map(self.axes, factors.values()))
        self.rates = {r: tuple(map(self.axes, spec.split("|"))) for r, spec in rates.items()}
        self.dists = {d: spec.split() for d, spec in dists.items()}
        self.terms = []  # (distortion, map name or reconstruction axis, keep, order)
        for d, (source, recon) in self.dists.items():
            read = self.axes(source) + self.axes(maps.get(recon, recon))
            order = tuple(sorted(range(len(read)), key=read.__getitem__))
            recon = recon if recon in maps else read[1]  # a map name, or the joint axis
            self.terms.append((d, recon, tuple(sorted(read)), order))

    def axes(self, names):
        """Joint axis indices of space-separated axis names, in the order named."""
        return tuple(self._index[a] for a in names.split())

    def joint(self, tables):
        """Joint pmf of the source pmf and the factor tables, in factor order."""
        return _joint(self.ndim, *zip(tables, self.factor_axes))

    def evaluate(self, tables, maps, dists):
        """Rates and distortions of raw tables by name, no validation.

        Factor tables may be stacks (a leading batch axis, see
        `probability.joint`); then every value is an array over the stack,
        bit-identical per row to evaluating that row alone. Maps are shared.
        """
        joint = self.joint(tables)
        batched = joint.ndim > self.ndim
        out = {r: _cmi(joint, *axes, batched) for r, axes in self.rates.items()}
        for d, recon, keep, order in self.terms:
            cols = maps[recon] if recon in maps else slice(joint.shape[recon + batched])
            terms = _marginal(joint, keep, batched) * dists[d][:, cols].transpose(order)
            out[d] = terms.reshape(len(terms), -1).sum(axis=1) if batched else float(terms.sum())
        return out


_SETTINGS = {
    "cascade": _Setting(
        axes="X Y Z U Xhat1",
        factors={"p_u": "X Y U", "p_xhat1": "X Y U Xhat1"},
        maps={"g2": "U Z"},
        rates={"r1": "X | Xhat1 U | Y", "r2": "U | X Y | Z"},
        dists={"d1": "X Xhat1", "d2": "X g2"},
        budgets={"U": lambda n: n["X"] * n["Y"] + 3}),
    "triangular": _Setting(
        axes="X Y Z U V Xhat1",
        factors={"p_u": "X Y U", "p_v": "X Y U V", "p_xhat1": "X Y U Xhat1"},
        maps={"g2": "U V Z"},
        rates={"r1": "X | Xhat1 U | Y", "r2": "U | X Y | Z", "r3": "V | X Y | U Z"},
        dists={"d1": "X Xhat1", "d2": "X g2"},
        budgets={"U": lambda n: n["X"] * n["Y"] + 4,
                 "V": lambda n: (n["X"] * n["Y"] + 4) * (n["X"] * n["Y"] + 1)}),
    "two-way-cascade": _Setting(
        axes="X Y Z U1 U2 Xhat1",
        factors={"p_u": "X Y U1", "p_u2": "Z U1 U2", "p_xhat1": "X Y U1 Xhat1"},
        maps={"g2": "U1 Z", "g3": "U1 U2 X Y"},
        rates={"r1": "X | Xhat1 U1 | Y", "r2": "U1 | X Y | Z", "r3": "U2 | Z | U1 X Y"},
        dists={"d1": "X Xhat1", "d2": "X g2", "d3": "Z g3"},
        budgets={"U1": lambda n: n["X"] * n["Y"] + 5,
                 "U2": lambda n: n["U1"] * (n["Z"] + 1)}),
    "two-way-triangular": _Setting(
        axes="X Y Z U1 V U2 Xhat1",
        factors={"p_u": "X Y U1", "p_v": "X Y U1 V", "p_u2": "Z U1 V U2",
                 "p_xhat1": "X Y U1 Xhat1"},
        maps={"g2": "U1 V Z", "g3": "U1 U2 V X Y"},
        rates={"r1": "X | Xhat1 U1 | Y", "r2": "U1 | X Y | Z", "r3": "V | X Y | Z U1",
               "r4": "U2 | Z | U1 V X Y"},
        dists={"d1": "X Xhat1", "d2": "X g2", "d3": "Z g3"},
        budgets={"U1": lambda n: n["X"] * n["Y"] + 6,
                 "V": lambda n: n["U1"] * (n["X"] * n["Y"] + 3),
                 "U2": lambda n: n["U1"] * n["V"] * (n["Z"] + 1)}),
    "helper": _Setting(
        axes="X Y Z Uh U1 U2 Xhat1",
        factors={"p_uh": "Y Uh", "p_u": "X Y Uh U1", "p_v": "X Y Uh U1 U2",
                 "p_xhat1": "X Y Uh U1 Xhat1"},
        maps={"g2": "U1 U2 Uh Z"},
        rates={"r1": "X | Xhat1 U1 | Y Uh", "r2": "U1 | X Y | Z Uh",
               "r3": "U2 | X Y | U1 Uh Z", "rh": "Uh | Y | Z"},
        dists={"d1": "X Xhat1", "d2": "X g2"},
        budgets={}),
}
_CASCADE = _SETTINGS["cascade"]


def _budget(limit: int, size: int, what: str) -> None:
    if size > limit:
        raise ValueError(f"|{what}| = {size} exceeds the cardinality budget {limit}")


def _refuse_nan(**targets):
    for name, value in targets.items():
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got {value}")


def _refuse_counts(least, **counts):
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def evaluate_point(setting: str, src: SourceSpec, aux: AuxiliarySystem) -> RegionPoint:
    """Check `aux` against a setting of `_SETTINGS`, then evaluate it exactly."""
    if setting not in _SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; choose from {sorted(_SETTINGS)}")
    s = _SETTINGS[setting]
    missing = [f for f in (*s.factors, *s.maps) if getattr(aux, f) is None]
    if missing:
        raise ValueError(f"auxiliary system is missing {missing} for this setting")
    if "d3" in s.dists and src.d3 is None:
        raise ValueError("two-way settings need the d3 distortion table")
    dists = {"d1": src.d1, "d2": src.d2, "d3": src.d3}
    n = dict(zip("XYZ", src.pmf.sizes))  # axis name -> alphabet size
    n.update((axes[-1], getattr(aux, f).output_size) for f, axes in s.factors.items())
    for axis, bound in s.budgets.items():
        _budget(bound(n), n[axis], axis)
    for f, axes in s.factors.items():
        got, want = getattr(aux, f).input_sizes, tuple(n[a] for a in axes[:-1])
        if got != want:
            raise ValueError(f"{f} conditioning has shape {got}, expected {want}")
    for d, (_, g) in s.dists.items():
        if g in s.maps:
            got = (getattr(aux, g).input_sizes, getattr(aux, g).output_size)
            want = (tuple(n[a] for a in s.maps[g]), dists[d].shape[1])
            if got != want:
                raise ValueError("%s must map %s onto %d symbols, got %s -> %d"
                                 % (g, *want, *got))
    tables = (src.pmf.probs,) + tuple(getattr(aux, f).table for f in s.factors)
    maps = {g: getattr(aux, g).table for g in s.maps}
    return RegionPoint(**s.evaluate(tables, maps, dists))


# ------------------------------------------------------------- cascade search


def _cascade_quantities(pxyz, p_u, p_xhat1, g2_table, d1, d2):
    """(r1, r2, d1, d2) of a raw cascade parameterization, no validation."""
    q = _CASCADE.evaluate((pxyz, p_u, p_xhat1), {"g2": g2_table}, {"d1": d1, "d2": d2})
    return q["r1"], q["r2"], q["d1"], q["d2"]


def _g2_best_response(pxyz, p_u, d2, m_xzu=None):
    """Distortion-minimizing terminal map; ties go to the lowest index.

    A stack of p_u tables gives a stack of maps. m_xzu is the (X, Z, U)
    marginal of their joint, when the caller has built it.
    """
    if m_xzu is None:
        m_xzu = _marginal(_CASCADE.joint((pxyz, p_u)), _CASCADE.axes("X Z U"), p_u.ndim > 3)
    cost = np.einsum("...xzu,xh->...uzh", m_xzu, d2)
    return np.argmin(cost, axis=-1)  # (U, Z)


def _xhat1_zero_rate(pxyu, d1):
    """Best reconstruction f(y,u): zero rate cost, deterministic rows."""
    pick = np.argmin(np.einsum("xyu,xh->yuh", pxyu, d1), axis=-1)  # (Y, U)
    return np.eye(d1.shape[1])[np.broadcast_to(pick, pxyu.shape)]


# the relay solve stops a slope's iterations once Blahut's bound puts the
# Lagrangian within _RD_TOL bits of its optimum, and stops the slope search
# once the channel's distortion shortfall can cost at most _RD_TOL bits
_RD_TOL = 1e-13
# caps on the iterations of one slope and on the slopes of one solve. The
# tests' random inputs need at most 34 and 23; a cell holding an x of
# probability near 1e-12 whose symbols weigh 2^-100 and less can reach the
# first, as Blahut's bound is loose there and Newton only doubles a starved
# symbol per step. The channel returned still meets the target.
_RD_ITERS = 200
_RD_SLOPES = 100
# share of the uniform law mixed into a warm start, and given to a symbol
# that the Blahut-Arimoto step must let back in, so no symbol stays dead
_REVIVE = 1e-6


def _xhat1_rd_solve(pxyz, p_u, d1, d1_target):
    """Conditional rate-distortion channel for the relay reconstruction.

    Minimizes I(X; Xhat1 | U, Y) subject to E d1 <= d1_target for fixed
    p_u, and returns the channel table p(xhat1|x,y,u).

    At a slope lam (bits per unit of d1) each cell c = (y, u) is the
    rate-distortion problem of p(x|c): over output laws q(h|c), minimize
    -sum_x p(x|c) log sum_h q(h|c) w(x,h), w = 2^{-lam (d1 - min_h d1)}
    (each row's best symbol weighs 1, so no weight underflows to a dead
    row), whose channel is q w / z with z = sum_h q w. Blahut-Arimoto
    multiplies q by c(h) = sum_x p(x|c) w(x,h) / z(x); the fixed point has
    c = 1 on the support of q and c <= 1 off it, and Blahut's bound puts the
    Lagrangian within sum_c p(c) log2 max_h c(h) bits of its optimum. Each
    iteration takes the Newton step of that problem on the support of q
    (plus the symbols with c > 1), cut at the simplex boundary, and falls
    back to the Blahut-Arimoto step in the cells where Newton does not
    descend; each slope warm-starts from the previous one's q.

    The slope is found by Illinois regula falsi on E d1 - d1_target, both
    measured above the floor, inside a bracket (bisecting when one end is
    kept three times running), and the channel returned is that of the
    bracket's feasible end, E d1 <= d1_target. Where D(lam) jumps over the
    target (a linear piece of the rate-distortion curve), the bracket
    shrinks to a point and the two ends' channels are time-shared to meet
    the target instead: mutual information is convex in the channel, so the
    rate is at most the chord's, which is the curve there.
    """
    pxy = pxyz.sum(axis=2)
    pxyu = pxy[:, :, None] * p_u  # (X, Y, U)
    nx, n_hat = d1.shape

    # full-information floor and zero-rate ceiling
    d_floor = float((pxy.sum(axis=1) * d1.min(axis=1)).sum())
    zero = _xhat1_zero_rate(pxyu, d1)
    d_zero = float(np.einsum("xyu,xyuh,xh->", pxyu, zero, d1))
    if d1_target >= d_zero - 1e-12:
        return zero
    floor = np.eye(n_hat)[np.argmin(d1, axis=1)]  # (X, H)
    floor_channel = np.broadcast_to(floor[:, None, None, :], pxyu.shape + (n_hat,))
    if d1_target <= d_floor + 1e-12:
        return floor_channel.copy()

    pcx = pxyu.reshape(nx, -1).T  # (C, X): p(c, x) per cell c = (y, u)
    live = pcx.sum(axis=1) > 0
    pcx = pcx[live]
    p_c = pcx.sum(axis=1)
    a = pcx / p_c[:, None]  # p(x|c)
    excess = d1 - d1.min(axis=1, keepdims=True)
    diag = (slice(None), np.arange(n_hat), np.arange(n_hat))

    def newton(c, hess, act):
        """Newton steps (C, H) on the simplex faces of the symbols in `act`."""
        kkt = np.zeros((len(c), n_hat + 1, n_hat + 1))
        kkt[:, :n_hat, :n_hat] = hess * (act[:, :, None] & act[:, None, :])
        ridge = 1e-12 * kkt[diag].max(axis=1)  # the Hessian is singular on ties
        kkt[diag] += np.where(act, ridge[:, None], 1.0)
        kkt[:, :n_hat, n_hat] = kkt[:, n_hat, :n_hat] = act
        rhs = np.zeros((len(c), n_hat + 1, 1))
        rhs[:, :n_hat, 0] = c * act
        try:
            return np.linalg.solve(kkt, rhs)[:, :n_hat, 0]
        except np.linalg.LinAlgError:  # no step; the Blahut-Arimoto one is taken
            return np.full(c.shape, np.nan)

    def solve(lam, q):
        """(q, channel (C, X, H), E d1 - d_floor) at one slope, warm-started at q."""
        w = np.exp2(-lam * excess)  # (X, H)
        q = (1.0 - _REVIVE) * q + _REVIVE / n_hat
        for _ in range(_RD_ITERS):
            z = np.maximum(q @ w.T, 1e-300)  # (C, X)
            ratio = a / z
            c = ratio @ w  # (C, H)
            if p_c @ np.log2(c.max(axis=1)) <= _RD_TOL:
                break
            with np.errstate(over="ignore"):  # an overflow gives no Newton step
                hess = np.einsum("cx,xh,xk->chk", ratio / z, w, w)
            act = (q > 0) | (c > 1.0)
            delta = newton(c, hess, act)
            dead = (q == 0) & (delta < 0)  # symbols let in that Newton would not keep
            if dead.any():
                delta = newton(c, hess, act & ~dead)
            shrink = (delta < 0) & (q > 0)  # a symbol at 0 with delta < 0 stays out
            block = np.where(shrink, q / np.where(shrink, -delta, 1.0), np.inf)
            step = np.minimum(block.min(axis=1), 1.0)[:, None]
            before = -(pcx * np.log(z)).sum(axis=1)
            # the Blahut-Arimoto step, kept where no Newton step descends; it
            # cannot grow a symbol from 0, so one that c asks for restarts at
            # the warm start's share
            new = np.where((q == 0) & (c > 1.0), _REVIVE / n_hat, q * c)
            todo = np.ones(len(q), dtype=bool)
            for _ in range(4):  # Newton, cut at the boundary, then shortened
                move = q + step * delta
                cand = np.where((block <= step) | (move < 0), 0.0, move)
                cand /= cand.sum(axis=1, keepdims=True)
                after = -(pcx * np.log(np.maximum(cand @ w.T, 1e-300))).sum(axis=1)
                ok = todo & (after <= before)
                new[ok] = cand[ok]
                todo &= ~ok
                if not todo.any():
                    break
                step = step / 4.0
            q = new / new.sum(axis=1, keepdims=True)
        joint = q[:, None, :] * w  # (C, X, H)
        s = joint.sum(axis=-1, keepdims=True)
        # an unseen x whose symbols all left the support keeps its best one
        chan = np.divide(joint, s, out=np.broadcast_to(floor, joint.shape).copy(),
                         where=s > 0)
        return q, chan, float(np.einsum("cx,cxh,xh->", pcx, chan, excess))

    # distortions are measured above the floor, where a steep slope still
    # resolves them: E d1 = d_floor + E excess, as each channel row sums to 1
    target = d1_target - d_floor
    # bracket: slope 0 gives the zero-rate point; grow the feasible end
    lo = (0.0, d_zero - d_floor, zero.reshape(nx, -1, n_hat)[:, live].transpose(1, 0, 2))
    q = np.full((len(p_c), n_hat), 1.0 / n_hat)
    lam = 4.0 / max(d1.max(), 1e-12)
    for _ in range(61):
        q, chan, dist = solve(lam, q)
        if dist <= target:
            break
        lo = (lam, dist, chan)
        lam *= 4.0
    else:  # no slope in range meets the target; the floor channel does
        return floor_channel.copy()
    hi = (lam, dist, chan)
    f_lo, f_hi, side, run = lo[1] - target, hi[1] - target, 0, 0
    for slope in range(_RD_SLOPES + 1):
        # R(D) is convex with slope -lam at the feasible end, so that end costs
        # at most lam (target - D) bits
        shortfall = hi[0] * (target - hi[1])
        if shortfall <= _RD_TOL or hi[0] - lo[0] <= 1e-15 * hi[0] or slope == _RD_SLOPES:
            break
        lam = hi[0] - f_hi * (hi[0] - lo[0]) / (f_hi - f_lo)
        if run >= 3 or not lo[0] < lam < hi[0]:  # regula falsi stalls on a jump
            lam = 0.5 * (lo[0] + hi[0])
        q, chan, dist = solve(lam, q)
        if dist <= target:
            hi, f_hi = (lam, dist, chan), dist - target
            if side > 0:  # Illinois: halve the value of an end kept twice
                f_lo *= 0.5
            side, run = 1, run + 1 if side > 0 else 1
        else:
            lo, f_lo = (lam, dist, chan), dist - target
            if side < 0:
                f_hi *= 0.5
            side, run = -1, run + 1 if side < 0 else 1
    chan = hi[2]
    if shortfall > _RD_TOL:  # D(lam) jumps over the target: time-share the ends
        t = (target - hi[1]) / (lo[1] - hi[1])
        chan = t * lo[2] + (1.0 - t) * hi[2]
    out = zero.reshape(nx, -1, n_hat).copy()
    out[:, live] = chan.transpose(1, 0, 2)
    return out.reshape(pxyu.shape + (n_hat,))


def _search_objective(pxyz, p_u_raw, p_xhat1, g2_table, d1, d2, r2_cap, d2_cap, weight):
    """Penalized r1 of one p_u table, or of each table of a stack."""
    p_u = p_u_raw / p_u_raw.sum(axis=-1, keepdims=True)
    r1, r2, _, d2v = _cascade_quantities(pxyz, p_u, p_xhat1, g2_table, d1, d2)
    d2scale = max(float(d2.max()), 1e-12)
    # squares by Python's float power, which can differ from numpy's square
    # in the last bit
    pen = np.array([max(0.0, a - r2_cap) ** 2 + (max(0.0, b - d2_cap) / d2scale) ** 2
                    for a, b in zip(np.atleast_1d(r2).tolist(), np.atleast_1d(d2v).tolist())])
    out = r1 + weight * pen
    return out if p_u_raw.ndim > 3 else float(out[0])


# the bisection steps that settle a blend weight, taken _BLEND_LEVEL at a
# time: one pass evaluates the 2^_BLEND_LEVEL - 1 midpoints they can visit
_BLEND_STEPS = 40
_BLEND_LEVEL = 8


def _blend_to_rate(pxyz, p_u, cap):
    """Garble U toward its marginal until the rate bound fits the cap.

    Returns the garbled table and the blend weight t: the garbled U keeps
    the old one with probability 1 - t and is otherwise a fresh draw from
    its marginal. t = 0 when r2(0) <= cap + 1e-9; otherwise t is the end of
    _BLEND_STEPS bisection steps on [0, 1] that keep r2(hi) <= cap + 1e-12,
    where r2(t) = I(U_t; X, Y | Z) is non-increasing, as U_t' is a garbling
    of U_t for t' > t.

    Each step decides exactly as `_cmi` on the blend's joint would: r2 is
    first read from a cheap form evaluated at many t in one pass, and a
    value within `guard` of its bound is decided by `_cmi` itself.
    """
    pxy = pxyz.sum(axis=2)
    marg = np.einsum("xy,xyu->u", pxy, p_u)

    def rate(t):
        mixed = (1.0 - t) * p_u + t * marg[None, None, :]
        return _cmi(_CASCADE.joint((pxyz, mixed)), *_CASCADE.rates["r2"])

    # U - (X, Y) - Z is Markov, so r2 = H(U_t|Z) - H(U_t|X,Y), and both
    # p(z, u_t) and p(u_t|x,y) are affine in t
    pz = pxyz.sum(axis=(0, 1))
    pzu_0, pzu_1 = np.einsum("xyz,xyu->zu", pxyz, p_u), pz[:, None] * marg

    def xlogx(p):
        return p * np.log2(np.where(p > 0.0, p, 1.0))

    h_z = -xlogx(pz).sum()

    def cheap(ts):
        s = ts[:, None, None]
        h_zu = -xlogx((1.0 - s) * pzu_0 + s * pzu_1).sum(axis=(1, 2))
        mixed = (1.0 - s[..., None]) * p_u + s[..., None] * marg
        h_u_xy = -(pxy[..., None] * xlogx(mixed)).sum(axis=(1, 2, 3))
        return np.maximum(h_zu - h_z - h_u_xy, 0.0)

    # Both forms round one value. Over N joint entries, each marginal cell
    # sums at most N nonnegative products, so it carries a relative error of
    # at most (N + 5) eps; each of the four entropies of either form, at most
    # log2 N bits, then errs by at most (2 log2 N + 1.5)(N + 5) eps bits, and
    # the two forms differ by at most eight such errors and the rounding of
    # their last additions. The guard is about four times that bound:
    # 1.5e-12 bits at N = 16 and 3.3e-11 at N = 256. Beyond it, the cheap
    # value lies on the same side of the bound as the exact one.
    n = pxyz.size * p_u.shape[-1]
    guard = 64.0 * (n + 5) * (math.log2(n) + 1.0) * np.finfo(float).eps

    def fits(t, r, bound):
        return rate(t) <= bound if abs(r - bound) <= guard else r <= bound

    lo, hi = 0.0, 1.0
    width = 1 << _BLEND_LEVEL
    for level in range(_BLEND_STEPS // _BLEND_LEVEL):
        # lo and hi are dyadics of denominator at most 2^40, so the grid is
        # exact: lo, then every midpoint the next steps can take
        grid = lo + (hi - lo) * np.arange(width) / width
        r = cheap(grid)
        if level == 0 and fits(0.0, r[0], cap + 1e-9):
            return p_u, 0.0
        a, b = 0, width
        for _ in range(_BLEND_LEVEL):
            t, m = 0.5 * (lo + hi), (a + b) // 2
            assert t == grid[m]
            if fits(t, r[m], cap + 1e-12):
                hi, b = t, m
            else:
                lo, a = t, m
    return (1.0 - hi) * p_u + hi * marg[None, None, :], hi


def _relay_floor(pxyz, w, u_size, cap):
    """(p_u, p_xhat1) built on a relay channel w = p(w|x,y).

    U is W zero-padded to u_size symbols and garbled toward its marginal
    until the rate bound fits the cap. The relay reconstruction is W read
    through its posterior p(w|x,y,u), so (Xhat1, U) has the joint law of
    (W, U) with the source and r1 = I(X; W | Y).
    """
    n_hat = w.shape[-1]
    padded = np.zeros(w.shape[:2] + (u_size,))
    padded[:, :, :n_hat] = w
    marg = np.einsum("xy,xyu->u", pxyz.sum(axis=2), padded)
    p_u, t = _blend_to_rate(pxyz, padded, cap)
    garble = (1.0 - t) * np.eye(n_hat, u_size) + t * marg  # p(u|w), (H, U)
    joint = w[:, :, None, :] * garble.T  # p(w, u | x, y) as (X, Y, U, H)
    s = joint.sum(axis=-1, keepdims=True)
    # zero-probability (x, y, u) cells get an arbitrary (uniform) row
    p_xhat1 = np.divide(joint, s, out=np.full(joint.shape, 1.0 / n_hat), where=s > 0)
    return p_u, p_xhat1


# the search's penalty rounds (weight 10**round) of up to _INNER_ITERS steps
_ROUNDS = 5
_INNER_ITERS = 12
# line-searched steps of one exponentiated-gradient pass, and its first step size
_EG_STEPS = 8
_EG_ETA = 0.5


@functools.lru_cache(maxsize=256)
def _anchor(src: SourceSpec, u_size: int, d1_target: float):
    """(p_u, p(xhat1|x,y,u), g2, quantities) of the constant-U auxiliary, arrays read-only."""
    pxyz = src.pmf.probs
    p_u = np.zeros(src.pmf.sizes[:2] + (u_size,))
    p_u[:, :, 0] = 1.0
    g2 = _g2_best_response(pxyz, p_u, src.d2)
    xhat1 = _xhat1_rd_solve(pxyz, p_u, src.d1, d1_target)
    p_u.flags.writeable = xhat1.flags.writeable = g2.flags.writeable = False
    return p_u, xhat1, g2, _cascade_quantities(pxyz, p_u, xhat1, g2, src.d1, src.d2)


@dataclass(frozen=True)
class SearchResult:
    r1: float
    aux: AuxiliarySystem
    point: RegionPoint
    path: str  # "relay-floor" or "search": which candidate was returned


def min_r1_cascade_search(src: SourceSpec, d1_target: float, d2_target: float,
                          r2_budget: float, u_size: int,
                          restarts: int = 16, seed: int = 0) -> SearchResult:
    """Smallest cascade forward rate found by alternating optimization.

    Alternates exponentiated-gradient steps on p(u|x,y) (finite-difference
    gradient of the penalized objective), the relay channel at the d1 target
    by `_xhat1_rd_solve`'s Newton / regula falsi solve, and a best-response
    terminal map, under a x10-per-round penalty schedule; multi-start with
    per-restart seeds, best feasible restart wins (lowest index on ties).

    Relay floor. When d1 and d2 are the same table and u_size >= |Xhat1|,
    one candidate is tried before the restarts. Let W be the relay solve's
    channel p(w|x,y) at D* = min(d1_target, d2_target) with U constant, so
    that I(X; W | Y) = R(D*), the conditional rate-distortion function
    R_{X|Y} of that table (to the solve's certified tolerance). U is W
    zero-padded to u_size symbols and garbled toward its marginal until r2
    fits; Xhat1 is W read through its posterior p(w|x,y,u); g2 is the best
    response. Its r1 is R(D*), so when the best candidate so far (this one,
    or the constant-U anchor when it is already on the floor) meets the
    query with an r1 at most 1e-12 bits above it, that candidate is returned
    and no restart runs (`path` "relay-floor"), because no auxiliary that
    meets the query does better:
      - each has r1 = I(X; Xhat1, U | Y) >= I(X; Xhat1 | Y) >= R(E d1)
        >= R(d1_target);
      - (X, U) - Y - Z is Markov, so I(X; Z | Y, U) = 0 and r1 >= I(X; U | Y)
        = I(X; U, Z | Y) >= I(X; g2(U, Z) | Y) >= R(d2_target);
      - the candidate's U is a garbling of W, so its r1 = I(X; W, U | Y)
        = I(X; W | Y) = R(D*) = max(R(d1_target), R(d2_target)).
    Otherwise the restarts run exactly as without the candidate (`path`
    "search").

    The anchor (its p_u, relay channel, g2 and quantities) depends on the
    source's content, u_size and d1_target alone; the relay floor uses its
    channel, or the |U| = 1 anchor's at d2_target when d1_target > d2_target.
    `_anchor` keeps the 256 most recently used, so a query that repeats one
    (a sweep over r2 or d2) skips its solve; every answer is bit-identical to
    a cold one. A NaN target, and a u_size, restarts or seed that is no
    integer or out of range, are refused by name; infinite targets are valid.
    """
    _refuse_counts(1, u_size=u_size)
    _refuse_counts(0, restarts=restarts, seed=seed)
    nx, ny, nz = src.pmf.sizes
    _budget(_CASCADE.budgets["U"]({"X": nx, "Y": ny}), u_size, "U")
    _refuse_nan(d1_target=d1_target, d2_target=d2_target, r2_budget=r2_budget)
    if d2_target <= 0 or d1_target < 0 or r2_budget < 0:
        raise ValueError("need d2 > 0, d1 >= 0, r2 >= 0")
    pxyz = src.pmf.probs
    px = pxyz.sum(axis=(1, 2))
    d1_floor = float((px * src.d1.min(axis=1)).sum())
    d2_floor = float((px * src.d2.min(axis=1)).sum())
    if d1_target < d1_floor - 1e-12 or d2_target < d2_floor - 1e-12:
        raise InfeasibleError(
            f"distortion below the full-information floor "
            f"(d1 >= {d1_floor:g}, d2 >= {d2_floor:g})"
        )
    n_hat1 = src.d1.shape[1]
    d2scale = max(float(src.d2.max()), 1e-12)

    best = None  # the first feasible candidate of least r1

    def consider(p_u, p_xhat1, g2_table, vals=None):
        """Keep a candidate that meets the query below every earlier one.

        Returns the candidate's r1, kept or not. `vals` are its quantities,
        when already known.
        """
        nonlocal best
        if vals is None:
            vals = _cascade_quantities(pxyz, p_u, p_xhat1, g2_table, src.d1, src.d2)
        r1, r2, d1v, d2v = vals
        ok = (
            r2 <= r2_budget + 1e-9
            and d2v <= d2_target + 1e-9 * d2scale
            and d1v <= d1_target + 1e-9 * max(float(src.d1.max()), 1e-12)
        )
        if ok and (best is None or r1 < best[-1][0]):
            best = (p_u, p_xhat1, g2_table, vals)
        return r1

    # constant-U anchor: exact for the d2-slack regime
    anchor = _anchor(src, u_size, d1_target)
    consider(*anchor)

    # relay floor: optimal whenever it meets the query (see above)
    path = "search"
    if n_hat1 <= u_size and np.array_equal(src.d1, src.d2):
        w = (anchor if d1_target <= d2_target else _anchor(src, 1, d2_target))[1]
        p_u, p_xhat1 = _relay_floor(pxyz, w[:, :, 0], u_size, r2_budget)
        floor_r1 = consider(p_u, p_xhat1, _g2_best_response(pxyz, p_u, src.d2))
        if best is not None and best[-1][0] <= floor_r1 + 1e-12:
            restarts, path = 0, "relay-floor"

    for restart in range(restarts):
        rng_r = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                             spawn_key=(restart,)))
        p_u = rng_r.dirichlet(np.ones(u_size), size=(nx, ny))
        p_xhat1 = rng_r.dirichlet(np.ones(n_hat1), size=(nx, ny, u_size))
        g2_table = _g2_best_response(pxyz, p_u, src.d2)
        prev_r1 = np.inf
        for rnd in range(_ROUNDS):
            weight = 10.0 ** rnd
            for _ in range(_INNER_ITERS):
                p_u = _eg_steps(
                    pxyz, p_u, p_xhat1, g2_table, src.d1, src.d2,
                    r2_budget, d2_target, weight,
                )
                p_xhat1 = _xhat1_rd_solve(pxyz, p_u, src.d1, d1_target)
                g2_table = _g2_best_response(pxyz, p_u, src.d2)
                r1 = _search_objective(
                    pxyz, p_u, p_xhat1, g2_table, src.d1, src.d2,
                    r2_budget, d2_target, weight,
                )
                if abs(prev_r1 - r1) < 1e-6:
                    prev_r1 = r1
                    break
                prev_r1 = r1
        # exact rate repair, then refresh the downstream responses
        p_u, _ = _blend_to_rate(pxyz, p_u, r2_budget)
        p_xhat1 = _xhat1_rd_solve(pxyz, p_u, src.d1, d1_target)
        g2_table = _g2_best_response(pxyz, p_u, src.d2)
        consider(p_u, p_xhat1, g2_table)

    if best is None:
        raise InfeasibleError(
            "search found no auxiliary satisfying (d1, d2, r2); the query may "
            "be infeasible at this u_size"
        )
    p_u, p_xhat1, g2_table, vals = best
    aux = AuxiliarySystem(
        p_u=CondPMF(p_u),
        p_xhat1=CondPMF(p_xhat1),
        g2=DeterministicMap(g2_table, src.d2.shape[1]),
    )
    point = RegionPoint(r1=vals[0], r2=vals[1], d1=vals[2], d2=vals[3])
    return SearchResult(r1=vals[0], aux=aux, point=point, path=path)


def _eg_steps(pxyz, p_u, p_xhat1, g2_table, d1, d2, r2_cap, d2_cap, weight):
    """Exponentiated-gradient pass on p(u|x,y) with finite-difference gradients.

    The 2|X||Y||U| perturbed tables of one gradient are evaluated as one
    stack; the line search stays sequential.
    """
    h = 1e-6

    def f(raw):
        return _search_objective(pxyz, raw, p_xhat1, g2_table, d1, d2,
                                 r2_cap, d2_cap, weight)

    cur = p_u.copy()
    f_cur = f(cur)
    step = _EG_ETA
    n = cur.size
    diag = (np.arange(n), np.arange(n))
    for _ in range(_EG_STEPS):
        up_val, dn_val = cur.ravel() + h, np.maximum(cur.ravel() - h, 1e-12)
        stack = np.tile(cur.ravel(), (2 * n, 1))  # row i (n + i) moves entry i up (down)
        stack[:n][diag], stack[n:][diag] = up_val, dn_val
        vals = f(stack.reshape((2 * n,) + cur.shape))
        grad = ((vals[:n] - vals[n:]) / (up_val - dn_val)).reshape(cur.shape)
        scale = max(np.abs(grad).max(), 1e-12)
        improved = False
        for _ in range(8):
            trial = cur * np.exp(-step * grad / scale)
            trial /= trial.sum(axis=-1, keepdims=True)
            f_trial = f(trial)
            if f_trial < f_cur - 1e-12:
                cur, f_cur = trial, f_trial
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        step = min(step * 1.5, 2.0)
    return cur / cur.sum(axis=-1, keepdims=True)


# ------------------------------------------------------------- region oracle

# engineering allowances (bits) for how far the search's answer may exceed
# the oracle's at each lattice resolution, set on binary desk-scale
# instances; they bound no distance to the continuous optimum, which can sit
# further below the lattice (0.062 bits at resolution 9 on the doubly
# symmetric source of acceptance 7 at (d1, d2, r2) = (0.2, 0.15, 0.7))
ORACLE_SLACK_BITS = {1: 1.0, 2: 0.25, 3: 0.12, 4: 0.08, 5: 0.06, 6: 0.05,
                     7: 0.04, 8: 0.035, 9: 0.03}

# rows (r1, r2, d1, d2) of float64 in the one oracle table kept: 32 MiB
_MAX_ORACLE_POINTS = 1 << 20


def _simplex_grid(m: int, resolution: int) -> np.ndarray:
    """All pmf vectors on m atoms with entries that are multiples of 1/resolution."""
    out = []
    for comp in itertools.combinations_with_replacement(range(m), resolution):
        v = np.zeros(m)
        for c in comp:
            v[c] += 1.0
        out.append(v / resolution)
    return np.array(out)


def brute_force_region_oracle(src: SourceSpec, u_size: int, resolution: int):
    """Pareto frontier of (r1, r2, d1, d2) over quantized cascade auxiliaries.

    Enumerates p(u|x,y) with rows on the 1/resolution simplex lattice;
    the relay reconstruction ranges over the zero-rate best response f(y,u)
    and all deterministic per-symbol maps f(x); the terminal map is always
    the best response. resolution=1 is the uninformative anchor (constant U,
    best-constant reconstructions) only. Deterministic enumeration order.
    """
    _refuse_counts(1, u_size=u_size, resolution=resolution)
    nx, ny, nz = src.pmf.sizes
    if nx > 2 or ny > 2 or nz > 2:
        raise ResourceLimitError("oracle is limited to binary source alphabets")
    if u_size > 3:
        raise ResourceLimitError("oracle is limited to |U| <= 3")
    if resolution > 9:
        raise ResourceLimitError("oracle is limited to 9 probability levels")
    pts = set(map(tuple, _oracle_table(src, u_size, resolution).tolist()))
    return _pareto_min(np.array(sorted(pts)))


def oracle_min_r1(src: SourceSpec, u_size: int, resolution: int,
                  d1_target: float, d2_target: float, r2_budget: float):
    """Least r1 among enumerated points meeting the query; None if none do.

    A NaN target, or a u_size or resolution that is no integer or below 1, is
    refused by name before any table is looked up. The points are the rows
    of one table, built on the first query and kept for the next ones:
    `_oracle_table` keeps the most recent one, keyed by the source's content,
    u_size and resolution, so a source read back from its file reuses it. It
    holds at most _MAX_ORACLE_POINTS rows of 32 bytes (32 MiB); the doubly
    symmetric source at |U| = 2, resolution 5 has 6480 (207 KB).
    """
    _refuse_nan(d1_target=d1_target, d2_target=d2_target, r2_budget=r2_budget)
    _refuse_counts(1, u_size=u_size, resolution=resolution)
    r1, r2, d1v, d2v = _oracle_table(src, u_size, resolution).T
    ok = (r2 <= r2_budget + 1e-9) & (d1v <= d1_target + 1e-9) & (d2v <= d2_target + 1e-9)
    return float(r1[ok].min()) if ok.any() else None


@functools.lru_cache(maxsize=1)
def _oracle_table(src: SourceSpec, u_size: int, resolution: int) -> np.ndarray:
    """Every point `_enumerate_oracle_points` yields, as one read-only (points, 4) array.

    The most recent table is kept (see `oracle_min_r1`); a refusal keeps nothing.
    """
    nx, ny, _ = src.pmf.sizes
    # lattice rows per (x, y) cell, to the power of the cells, times the maps
    n = 1 if resolution == 1 else (math.comb(u_size + resolution - 1, resolution) ** (nx * ny)
                                   * (1 + src.d1.shape[1] ** nx))
    if n > _MAX_ORACLE_POINTS:
        raise ResourceLimitError(
            f"the oracle table would hold {n} points ({32 * n} bytes), over its cap of "
            f"{_MAX_ORACLE_POINTS} points ({32 * _MAX_ORACLE_POINTS} bytes); "
            "reduce the resolution or u_size"
        )
    table = np.empty((n, 4))
    filled = 0
    for chunk in _enumerate_oracle_points(src, u_size, resolution):
        table[filled : filled + len(chunk)] = chunk
        filled += len(chunk)
    table.flags.writeable = False
    return table


# joint-table entries per chunk of enumerated channels, which bounds each of
# the chunk's arrays to 1 MiB of float64
_ORACLE_CHUNK_ENTRIES = 1 << 17


def _enumerate_oracle_points(src: SourceSpec, u_size: int, resolution: int):
    """Rows (r1, r2, d1, d2) of every enumerated point, in chunks of channels.

    Each chunk is an array of shape (points, 4): per channel, in the order
    of itertools.product over the lattice rows, the zero-rate relay
    reconstruction and then every per-symbol map f(x).
    """
    pxyz = src.pmf.probs
    nx, ny, nz = src.pmf.sizes
    px = pxyz.sum(axis=(1, 2))
    n_hat1 = src.d1.shape[1]

    if resolution == 1:
        p_u = np.zeros((nx, ny, u_size))
        p_u[:, :, 0] = 1.0
        g2 = _g2_best_response(pxyz, p_u, src.d2)
        xhat1 = np.zeros((nx, ny, u_size, n_hat1))
        best_const = int(np.argmin(px @ src.d1))
        xhat1[:, :, :, best_const] = 1.0
        yield np.array([_cascade_quantities(pxyz, p_u, xhat1, g2, src.d1, src.d2)])
        return

    rows = _simplex_grid(u_size, resolution)
    n_rows = nx * ny
    total = len(rows) ** n_rows
    # deterministic per-symbol reconstructions f: X -> Xhat1
    fmaps = np.array(list(itertools.product(range(n_hat1), repeat=nx))).reshape(-1, nx)
    pxy = pxyz.sum(axis=2)
    d1_fmaps = [float((px * src.d1[np.arange(nx), sel]).sum()) for sel in fmaps]
    chunk = max(1, _ORACLE_CHUNK_ENTRIES // (nx * ny * nz * u_size))

    for start in range(0, total, chunk):
        combos = np.unravel_index(np.arange(start, min(start + chunk, total)),
                                  (len(rows),) * n_rows)
        p_u = rows[np.stack(combos, axis=-1)].reshape(-1, nx, ny, u_size)
        # the cascade joint without its relay factor, whose axis then has size
        # 1: r1 is I(X; U | Y), the rate with the zero-rate reconstruction
        joint_u = _CASCADE.joint((pxyz, p_u))
        rates = {r: _cmi(joint_u, *axes, True) for r, axes in _CASCADE.rates.items()}
        r1_base, r2 = rates["r1"], rates["r2"]
        m_xzu = _marginal(joint_u, _CASCADE.axes("X Z U"), True)
        g2 = _g2_best_response(pxyz, p_u, src.d2, m_xzu)  # (B, U, Z)
        sel = src.d2[np.arange(nx)[:, None, None], g2.transpose(0, 2, 1)[:, None]]
        d2v = (m_xzu * sel).reshape(len(p_u), -1).sum(axis=1)
        # zero-rate relay reconstruction f(y, u)
        pxyu = pxy[:, :, None] * p_u
        cost = np.einsum("bxyu,xh->byuh", pxyu, src.d1)
        d1_zero = cost.min(axis=-1).reshape(len(p_u), -1).sum(axis=1)
        # per-symbol deterministic reconstructions f(x)
        extra = _cmi_fx(_marginal(joint_u, _CASCADE.axes("X Y U"), True), fmaps, n_hat1)
        points = np.empty((len(p_u), 1 + len(fmaps), 4))
        points[:, 0] = np.stack([r1_base, r2, d1_zero, d2v], axis=-1)
        points[:, 1:, 0] = r1_base[:, None] + extra
        points[:, 1:, 1] = r2[:, None]
        points[:, 1:, 2] = d1_fmaps
        points[:, 1:, 3] = d2v[:, None]
        yield points.reshape(-1, 4)


def _cmi_fx(m_xyu, fmaps, n_hat1):
    """I(X; f(X) | U, Y) of a stack of p(x, y, u) tables, one column per map f."""
    h_yu = table_entropy(m_xyu.sum(axis=1), True)
    out = np.empty((len(m_xyu), len(fmaps)))
    for i, sel in enumerate(fmaps):
        m_cyu = np.zeros((len(m_xyu), n_hat1) + m_xyu.shape[2:])
        for x in range(m_xyu.shape[1]):
            m_cyu[:, sel[x]] += m_xyu[:, x]
        h_c_uy = table_entropy(m_cyu, True) - h_yu
        out[:, i] = np.where(h_c_uy > 0.0, h_c_uy, 0.0)
    return out


def _pareto_min(points: np.ndarray):
    """Non-dominated subset under componentwise minimization.

    q dominates p when q <= p + 1e-12 everywhere and q < p - 1e-12 somewhere.
    The result is that of one pass in row order, which keeps each point that
    no kept point dominates and drops the kept points it dominates; it comes
    in row order. With the tolerance, dominance need not be transitive, so
    a point is kept when all that dominate it were dropped before its row.
    """

    def dominates(q, p):  # "q dominates p", per row of whichever is a stack of points
        return (q <= p + 1e-12).all(axis=-1) & (q < p - 1e-12).any(axis=-1)

    keep = np.zeros(0, dtype=np.intp)  # the kept rows, in row order
    for j, p in enumerate(points):
        kept = points[keep]
        if not dominates(kept, p).any():
            keep = np.append(keep[~dominates(p, kept)], j)
    return [RegionPoint(r1=float(p[0]), r2=float(p[1]), d1=float(p[2]), d2=float(p[3]))
            for p in points[keep]]


# --------------------------------------------------------------- serialization


def save_source_spec(src: SourceSpec) -> str:
    parts = [write_block("pmf", "jointpmf", src.pmf.probs),
             write_block("d1", "dtable", src.d1), write_block("d2", "dtable", src.d2)]
    if src.d3 is not None:
        parts.append(write_block("d3", "dtable", src.d3))
    return "".join(parts)


def load_source_spec(text: str) -> SourceSpec:
    fields = {}
    for name, kind, table, _ in read_blocks(text):
        if kind not in ("jointpmf", "dtable"):
            raise ValueError(f"unexpected block {name!r} of kind {kind!r} in source spec")
        if name in fields:
            raise ValueError(f"block {name!r} appears more than once in source spec")
        fields[name] = JointPMF(table) if kind == "jointpmf" else table
    if "pmf" not in fields or "d1" not in fields or "d2" not in fields:
        raise ValueError("source spec needs pmf, d1 and d2 blocks")
    return SourceSpec(pmf=fields["pmf"], d1=fields["d1"], d2=fields["d2"],
                      d3=fields.get("d3"))


_AUX_FIELDS = tuple(f.name for f in dataclasses.fields(AuxiliarySystem))


def save_aux(aux: AuxiliarySystem) -> str:
    return "".join(f"{name} " + getattr(aux, name).to_text()
                   for name in _AUX_FIELDS if getattr(aux, name) is not None)


def load_aux(text: str) -> AuxiliarySystem:
    fields = {}
    for name, kind, table, out_size in read_blocks(text):
        if name not in _AUX_FIELDS:
            raise ValueError(f"unknown auxiliary field {name!r}")
        if name in fields:
            raise ValueError(f"block {name!r} appears more than once in auxiliary system")
        if kind == "condpmf":
            fields[name] = CondPMF(table)
        elif kind == "detmap":
            fields[name] = DeterministicMap(table, out_size)
        else:
            raise ValueError(f"auxiliary field {name!r} has unsupported kind {kind!r}")
    return AuxiliarySystem(**fields)
