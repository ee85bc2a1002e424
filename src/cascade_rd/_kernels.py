"""The conditional-type counting kernel behind every typicality scan.

The simulator spends nearly all its time testing which rows of a codebook
are jointly typical with a fixed sequence: every joint count of (row symbol
u, conditioning symbol c) must lie in its band [lo, hi]. Grouping positions
by c turns that into a few vectorised compares along the rows, with no joint
id array.
"""

import numpy as np


def typical_mask(rows: np.ndarray, n_row_symbols: int, cond: np.ndarray,
                 n_cond: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows whose joint type with `cond` lies inside the bands [lo, hi].

    rows is (m, n) of symbols in [0, n_row_symbols); cond is the fixed (n,)
    sequence of symbols in [0, n_cond). lo and hi are flat inclusive bounds on
    the count of the pair (u, c), indexed u * n_cond + c.

    The count of u at the k positions carrying c is an integer in [0, k], so
    each band is first narrowed to the integers it allows there. A band with
    none (for a c absent from cond, k = 0: one that excludes 0) fails every
    row; a band holding all of [0, k] passes every row and is skipped. The
    remaining bands are checked tightest first, by the share (hi - lo) / k of
    the positions they leave free, each only on the rows that passed the
    bands before it.
    """
    m, n = rows.shape
    k = np.bincount(cond, minlength=n_cond)
    lo = np.maximum(np.ceil(lo.reshape(n_row_symbols, n_cond)), 0).astype(np.int64)
    hi = np.minimum(np.floor(hi.reshape(n_row_symbols, n_cond)), k).astype(np.int64)
    out = np.zeros(m, dtype=bool)
    if (lo > hi).any():
        return out
    us, cs = ((lo > 0) | (hi < k)).nonzero()  # binding bands; each has k > 0
    order = np.argsort((hi - lo)[us, cs] / k[cs], kind="stable")
    count_dtype = np.min_scalar_type(n)
    cols = rows.T
    # Python ints keep the compares in the rows' own narrow dtype
    lo, hi = lo.tolist(), hi.tolist()
    alive = None  # rows that passed every band so far; None while that is all
    for u, c in zip(us[order].tolist(), cs[order].tolist()):
        pos = (cond == c).nonzero()[0]
        block = cols[pos] if alive is None else cols[pos[:, None], alive]
        count = (block == u).sum(axis=0, dtype=count_dtype)
        ok = (count >= lo[u][c]) & (count <= hi[u][c])
        alive = ok.nonzero()[0] if alive is None else alive[ok]
        if alive.size == 0:
            return out
    if alive is None:
        return ~out
    out[alive] = True
    return out


def is_typical(ids: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether one sequence of joint ids has every count inside [lo, hi].

    ids are the flat pairs u * n_cond + c that `typical_mask` counts for one
    row, and lo, hi its flat bands; counts are integers, so comparing them
    with the raw bands is the same test as with the bands narrowed.
    """
    counts = np.bincount(ids, minlength=lo.size)
    return bool(((counts >= lo) & (counts <= hi)).all())
