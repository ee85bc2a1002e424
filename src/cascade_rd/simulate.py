"""Monte Carlo simulation of the random-binning cascade coding scheme.

Builds the random codebook and the two independent bin partitions, then runs
the full encode / decode-and-rebin / terminal-decode pipeline on i.i.d.
source triples, tallying the six error events and the empirical distortions.
Typicality is the robust flavor: every joint-symbol count must stay within a
multiplicative epsilon band of its expectation. Everything is a deterministic
function of the seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .discrete import _CASCADE, AuxiliarySystem, SourceSpec, _refuse_counts, evaluate_point
from .errors import ResourceLimitError
from .probability import DeterministicMap
from .probability import cmi as _cmi, marginal as _marginal

CODEWORD_CAP = 2**20
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's sum tolerance
_DRAW_CHUNK = 2**16  # uniforms per block of a 2-D symbol draw


@dataclass(frozen=True)
class TypicalityParams:
    """Robust-typicality slack and blocklength."""

    epsilon: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")


def _ceil_pow2(n: int, rate: float) -> int:
    return 2 ** max(0, math.ceil(n * rate))


@dataclass
class CascadeCode:
    """Random codebook, bin partitions and typicality tables for one run."""

    n: int
    epsilon: float
    seed: int
    rate_l: float
    rate_10: float
    rate_11: float
    rate_2: float
    sizes: tuple[int, int, int, int, int]  # (|X|, |Y|, |Z|, |U|, |Xhat1|)
    codebook: np.ndarray  # (L, n) symbols of U, Fortran-ordered, smallest uint
    bins1: np.ndarray  # (L,) bin of each codeword in the relay partition
    bins2: np.ndarray  # (L,) bin in the terminal partition, independent
    n_bins1: int
    n_bins2: int
    n_xhat1: int  # codewords per lazy reconstruction book
    p_xhat1_given_uy: np.ndarray  # (|U|, |Y|, |Xhat1|)
    bounds: dict = field(repr=False)
    _last_book: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_codewords(self) -> int:
        return self.codebook.shape[0]

    def xhat1_book(self, l: int, y_seq: np.ndarray) -> np.ndarray:
        """Reconstruction codebook for codeword l and this y-sequence.

        Generated lazily from p(xhat1|u,y); the sub-seed is a stable hash of
        (seed, l, y), so every node regenerates the identical book. The last
        book is kept, read-only: a relay that decodes the encoder's codeword
        asks for the book the encoder just built.
        """
        y_seq = np.asarray(y_seq, dtype=np.int64)
        key = (int(l), y_seq.tobytes())
        if self._last_book is not None and self._last_book[0] == key:
            return self._last_book[1]
        digest = hashlib.sha256(
            b"xhat1" + self.seed.to_bytes(8, "little", signed=True)
            + key[0].to_bytes(8, "little") + key[1]
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        probs = self.p_xhat1_given_uy[self.codebook[l], y_seq]
        cum = probs.cumsum(axis=-1)
        draws = rng.random((self.n_xhat1, self.n))
        book = (draws[:, :, None] < cum[None, :, :]).argmax(axis=-1).astype(np.int64)
        book.flags.writeable = False
        self._last_book = (key, book)
        return book


def _draw_symbols(rng: np.random.Generator, p: np.ndarray,
                  shape: tuple[int, ...]) -> np.ndarray:
    """The symbols `Generator.choice(p.size, size=shape, p=p)` draws, in the smallest dtype.

    choice searches the normalised cdf for each uniform; counting the cdf
    thresholds at or below each uniform gives the same symbols and consumes
    the same stream. A 2-D draw is Fortran-ordered, so its transpose is the
    C-contiguous (n, rows) block that the typicality kernel reads. Its
    uniforms are drawn in blocks of rows of about _DRAW_CHUNK values, which
    take them from the stream in the order one draw of the whole shape would,
    and each block's symbols are written straight into that (n, rows) block.
    """
    if not (np.all(p >= 0) and abs(math.fsum(p) - 1.0) <= _P_ATOL):
        raise ValueError("symbol probabilities must be nonnegative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    dtype = np.min_scalar_type(p.size - 1)

    def symbols_of(uniforms):
        symbols = np.zeros(uniforms.shape, dtype=dtype)
        for threshold in cdf[:-1]:
            symbols += uniforms >= threshold
        return symbols

    if len(shape) == 1:
        return symbols_of(rng.random(shape))
    rows, n = shape
    out = np.empty((n, rows), dtype=dtype)
    step = max(1, _DRAW_CHUNK // n)
    for start in range(0, rows, step):
        block = symbols_of(rng.random((min(step, rows - start), n)))
        out[:, start:start + block.shape[0]] = block.T
    return out.T


def build_cascade_code(src: SourceSpec, aux: AuxiliarySystem,
                       tp: TypicalityParams, delta: float,
                       seed: int) -> CascadeCode:
    """Draw the codebook and both bin partitions for the fixed auxiliary.

    Rates come from the auxiliary's mutual informations plus the slack:
    R_l = I(U;X,Y)+delta, R_10 = I(U;X|Y)+2 delta, R_11 = I(Xhat1;X|U,Y)+delta,
    R_2 = I(U;X,Y|Z)+2 delta. Every 2^ceil(nR) is capped at 2^20. An
    auxiliary that `evaluate_point` refuses for the cascade is refused.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"rate slack delta must be finite and nonnegative, got {delta}")
    if not 0 <= seed < 2**63:  # xhat1_book hashes it as 8 signed bytes
        raise ValueError(f"seed must lie in [0, 2^63), got {seed}")
    point = evaluate_point("cascade", src, aux)
    joint = _CASCADE.joint((src.pmf.probs, aux.p_u.table, aux.p_xhat1.table))
    ax = _CASCADE.axes
    rate_l = _cmi(joint, ax("U"), ax("X Y")) + delta
    rate_10 = _cmi(joint, ax("U"), ax("X"), ax("Y")) + 2 * delta
    rate_11 = _cmi(joint, ax("Xhat1"), ax("X"), ax("U Y")) + delta
    rate_2 = point.r2 + 2 * delta

    n = tp.n
    rates = (rate_l, rate_10, rate_11, rate_2)
    for label, rate in zip(("R_l", "R_10", "R_11", "R_2"), rates):
        if _ceil_pow2(n, rate) > CODEWORD_CAP:
            raise ResourceLimitError(
                f"2^(n {label}) = 2^{math.ceil(n * rate)} exceeds the cap 2^20")
    n_codewords, n_bins1, n_xhat1, n_bins2 = (_ceil_pow2(n, rate) for rate in rates)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    codebook = _draw_symbols(rng, _marginal(joint, ax("U")), (n_codewords, n))
    bins1 = rng.integers(0, n_bins1, size=n_codewords, dtype=np.int64)
    bins2 = rng.integers(0, n_bins2, size=n_codewords, dtype=np.int64)

    # p(xhat1 | u, y) induced by the auxiliary: marginalize x out of the joint
    m_yuh = _marginal(joint, ax("Y U Xhat1"))
    denom = np.maximum(m_yuh.sum(axis=-1, keepdims=True), 1e-300)
    p_xhat1_given_uy = (m_yuh / denom).transpose(1, 0, 2)  # (U, Y, Xhat1)

    # per scan, the joint axes whose symbols it combines, most significant first
    scans = {"xy": "X Y", "uxy": "U X Y", "uxyz": "U X Y Z",
             "huxy": "Xhat1 U X Y", "uy": "U Y", "uz": "U Z"}
    eps = tp.epsilon
    bounds = {}
    for key, names in scans.items():
        axes = ax(names)
        order = tuple(sorted(axes).index(a) for a in axes)
        flat = _marginal(joint, axes).transpose(order).ravel()
        bounds[key] = (n * flat * (1.0 - eps), n * flat * (1.0 + eps))
    return CascadeCode(
        n=n, epsilon=eps, seed=seed,
        rate_l=rate_l, rate_10=rate_10, rate_11=rate_11, rate_2=rate_2,
        sizes=tuple(joint.shape[a] for a in ax("X Y Z U Xhat1")),
        codebook=codebook, bins1=bins1, bins2=bins2,
        n_bins1=n_bins1, n_bins2=n_bins2, n_xhat1=n_xhat1,
        p_xhat1_given_uy=p_xhat1_given_uy, bounds=bounds,
    )


@dataclass(frozen=True)
class EncodeOutput:
    m10: int
    m11: int
    l_true: int
    e1: bool
    e3: bool


def encode_node0(code: CascadeCode, x_seq: np.ndarray, y_seq: np.ndarray,
                 rng: np.random.Generator) -> EncodeOutput:
    """Source-node encoding: cover (x,y) with a codeword, then a reconstruction.

    Picks uniformly among jointly typical candidates; when none exists the
    index is drawn uniformly at random and the corresponding covering-failure
    flag (E1 for the codeword, E3 for the reconstruction) is set.
    """
    nx, ny, nz, nu, nh = code.sizes
    xy = x_seq * ny + y_seq
    cand = np.flatnonzero(
        _kernels.typical_mask(code.codebook, nu, xy, nx * ny, *code.bounds["uxy"]))
    if cand.size == 0:
        l = int(rng.integers(code.n_codewords))
        e1 = True
    else:
        l = int(cand[rng.integers(cand.size)])
        e1 = False
    book = code.xhat1_book(l, y_seq)
    uxy = code.codebook[l].astype(np.int64) * (nx * ny) + xy
    cand4 = np.flatnonzero(
        _kernels.typical_mask(book, nh, uxy, nu * nx * ny, *code.bounds["huxy"]))
    if cand4.size == 0:
        m11 = int(rng.integers(code.n_xhat1))
        e3 = True
    else:
        m11 = int(cand4[rng.integers(cand4.size)])
        e3 = False
    return EncodeOutput(m10=int(code.bins1[l]), m11=m11, l_true=l, e1=e1, e3=e3)


def _bin_decode(code: CascadeCode, bins: np.ndarray, index: int, side: np.ndarray,
                n_side: int, scan: str) -> tuple[np.ndarray, int]:
    """(hits, decoded codeword) of the scan of bin `index` against `side`.

    The hits are the bin's codewords jointly typical with the side sequence;
    the decoded codeword is the unique hit, else codeword 0.
    """
    members = np.flatnonzero(bins == index)
    hits = members[_kernels.typical_mask(code.codebook[members], code.sizes[3], side,
                                         n_side, *code.bounds[scan])]
    return hits, int(hits[0]) if hits.size == 1 else 0


@dataclass(frozen=True)
class RelayOutput:
    m2: int
    l_hat: int
    xhat1_seq: np.ndarray
    e4: bool  # unique decoding failed
    hits: np.ndarray  # codewords of bin m10 jointly typical with y


def relay_node1(code: CascadeCode, m10: int, m11: int,
                y_seq: np.ndarray) -> RelayOutput:
    """Decode-and-rebin at the relay.

    Looks for the unique codeword in bin m10 jointly typical with y; on
    ambiguity or absence falls back to the first codeword. Emits the terminal
    bin index of the decoded codeword, the relay reconstruction and every
    typical codeword the scan found.
    """
    hits, l_hat = _bin_decode(code, code.bins1, m10, y_seq, code.sizes[1], "uy")
    xhat1 = code.xhat1_book(l_hat, y_seq)[m11]
    return RelayOutput(m2=int(code.bins2[l_hat]), l_hat=l_hat,
                       xhat1_seq=xhat1, e4=hits.size != 1, hits=hits)


@dataclass(frozen=True)
class TerminalOutput:
    l_tilde: int
    xhat2_seq: np.ndarray
    e5: bool  # unique decoding failed
    hits: np.ndarray  # codewords of bin m2 jointly typical with z


def decode_node2(code: CascadeCode, m2: int, z_seq: np.ndarray,
                 g2: DeterministicMap) -> TerminalOutput:
    """Terminal decode against the degraded side information.

    Unique-typical decode within bin m2 of the terminal partition; fallback
    to the first codeword. Symbolwise reconstruction xhat2_i = g2(u_i, z_i);
    every typical codeword the scan found is returned too.
    """
    hits, l_tilde = _bin_decode(code, code.bins2, m2, z_seq, code.sizes[2], "uz")
    xhat2 = g2.table[code.codebook[l_tilde], z_seq]
    return TerminalOutput(l_tilde=l_tilde, xhat2_seq=xhat2, e5=hits.size != 1, hits=hits)


@dataclass(frozen=True)
class SimResult:
    """Per-event counts and empirical distortions of one simulation run."""

    trials: int
    n: int
    epsilon: float
    delta: float
    seed: int
    event_counts: tuple[int, int, int, int, int, int]  # E0..E5
    d1_mean: float
    d2_mean: float
    d1_ci: float
    d2_ci: float
    clean_trials: int  # trials with no event flagged
    d1_mean_clean: float
    d2_mean_clean: float
    d1_ci_clean: float
    d2_ci_clean: float
    rates: tuple[float, float, float, float]  # (R_l, R_10, R_11, R_2)

    def event_rates(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.event_counts)

    def summary(self) -> str:
        lines = [
            f"binning simulation: n={self.n} trials={self.trials} "
            f"epsilon={self.epsilon:g} delta={self.delta:g} seed={self.seed}",
            "rates (bits/sample): R_l=%.4f R_10=%.4f R_11=%.4f R_2=%.4f"
            % self.rates,
            "event rates: " + "  ".join(
                f"E{i}={c / self.trials:.4f}" for i, c in enumerate(self.event_counts)
            ),
            f"distortion d1: {self.d1_mean:.5f} +- {self.d1_ci:.5f}",
            f"distortion d2: {self.d2_mean:.5f} +- {self.d2_ci:.5f}",
            f"clean trials: {self.clean_trials} "
            f"(d1={self.d1_mean_clean:.5f} +- {self.d1_ci_clean:.5f}, "
            f"d2={self.d2_mean_clean:.5f} +- {self.d2_ci_clean:.5f})",
        ]
        return "\n".join(lines)


def _ci95(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan") if values.size == 0 else 0.0
    return 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)


def run_simulation(src: SourceSpec, aux: AuxiliarySystem, tp: TypicalityParams,
                   delta: float, trials: int, seed: int) -> SimResult:
    """Full pipeline over i.i.d. source triples; deterministic given seed."""
    _refuse_counts(1, trials=trials)
    _refuse_counts(0, seed=seed)
    code = build_cascade_code(src, aux, tp, delta, seed)
    nx, ny, nz = code.sizes[:3]
    n = code.n
    pxyz_flat = src.pmf.probs.ravel()
    counts = np.zeros(6, dtype=np.int64)
    d1_vals = np.zeros(trials)
    d2_vals = np.zeros(trials)
    clean = np.zeros(trials, dtype=bool)

    for t in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1, t))
        )
        flat = _draw_symbols(rng, pxyz_flat, (n,))
        x_seq, y_seq, z_seq = np.unravel_index(flat, src.pmf.probs.shape)
        x_seq = x_seq.astype(np.int64)
        y_seq = y_seq.astype(np.int64)
        z_seq = z_seq.astype(np.int64)

        xy = x_seq * ny + y_seq
        e0 = not _kernels.is_typical(xy, *code.bounds["xy"])
        enc = encode_node0(code, x_seq, y_seq, rng)
        l = enc.l_true
        uxyz = code.codebook[l].astype(np.int64) * (nx * ny * nz) + xy * nz + z_seq
        e2 = not _kernels.is_typical(uxyz, *code.bounds["uxyz"])
        rel = relay_node1(code, enc.m10, enc.m11, y_seq)
        dec = decode_node2(code, rel.m2, z_seq, aux.g2)
        # E4 and E5 per their event definitions: another typical codeword
        # shares the bin the node scanned
        e4 = bool(np.any(rel.hits != l))
        e5 = bool(np.any(dec.hits != l))

        flags = (e0, enc.e1, e2, enc.e3, e4, e5)
        counts += np.array(flags, dtype=np.int64)
        clean[t] = not any(flags)
        d1_vals[t] = float(src.d1[x_seq, rel.xhat1_seq].mean())
        d2_vals[t] = float(src.d2[x_seq, dec.xhat2_seq].mean())

    clean_d1 = d1_vals[clean]
    clean_d2 = d2_vals[clean]
    return SimResult(
        trials=trials, n=n, epsilon=tp.epsilon, delta=delta, seed=seed,
        event_counts=tuple(int(c) for c in counts),
        d1_mean=float(d1_vals.mean()), d2_mean=float(d2_vals.mean()),
        d1_ci=_ci95(d1_vals), d2_ci=_ci95(d2_vals),
        clean_trials=int(clean.sum()),
        d1_mean_clean=float(clean_d1.mean()) if clean_d1.size else float("nan"),
        d2_mean_clean=float(clean_d2.mean()) if clean_d2.size else float("nan"),
        d1_ci_clean=_ci95(clean_d1),
        d2_ci_clean=_ci95(clean_d2),
        rates=(code.rate_l, code.rate_10, code.rate_11, code.rate_2),
    )
