"""Exact information measures over dense finite joint distributions.

Everything here works on explicit probability tables (numpy arrays), in bits
(base-2 logs). This is the package's single information core: the raw-array
primitives (`marginal`, `table_entropy`, `cmi` and the joint builder `joint`)
that the evaluators, the search and the simulator call on their hot paths;
the validating `JointPMF` wrappers around them; the Markov-deviation and
product-coupling checkers used by the two-way converses; and the one text
codec (`write_block`, `read_blocks`) for every table kind on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_TABLE_ENTRIES = 10**7
NORMALIZATION_TOL = 1e-12


class TableSizeError(ValueError):
    """Dense table would exceed the desk-scale entry cap."""


def _check_sizes(sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) == 0:
        raise ValueError("need at least one variable")
    if any(s < 1 for s in sizes):
        raise ValueError(f"alphabet sizes must be positive, got {sizes}")
    n = 1
    for s in sizes:
        n *= s
    if n > MAX_TABLE_ENTRIES:
        raise TableSizeError(
            f"dense table with {n} entries exceeds cap of {MAX_TABLE_ENTRIES}"
        )
    return sizes


class ByContent:
    """Equality and hash by type and attributes, each array by its shape and bytes.

    For frozen dataclasses, declared with eq=False, whose arrays are read-only
    copies: equal values can then stand for one another as cache keys.
    """

    def _content(self):
        return (type(self), *[(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                              for v in vars(self).values()])

    def __eq__(self, other):
        if not isinstance(other, ByContent):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self):
        return hash(self._content())


@dataclass(frozen=True, eq=False)
class JointPMF(ByContent):
    """Dense joint pmf over a tuple of finite-alphabet variables.

    probs[i1, ..., ik] = P(X1=i1, ..., Xk=ik). Entries must be finite,
    nonnegative and sum to 1 within 1e-12; arity and sizes are fixed at
    construction, and probs is a read-only copy of the array passed in.
    """

    probs: np.ndarray
    sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        sizes = _check_sizes(probs.shape)
        if not np.isfinite(probs).all():
            raise ValueError("pmf entries must be finite")
        if np.any(probs < 0):
            raise ValueError("pmf entries must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"pmf entries sum to {total!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "sizes", sizes)

    @property
    def arity(self) -> int:
        return len(self.sizes)

    def marginal(self, subset) -> np.ndarray:
        """Marginal table over `subset`, axes kept in ascending index order."""
        return marginal(self.probs, _validate_subset(subset, self.arity, "subset"))

    def to_text(self) -> str:
        return write_block(None, "jointpmf", self.probs)

    @classmethod
    def from_text(cls, text: str) -> "JointPMF":
        return cls(_read_single(text, "jointpmf")[0])


@dataclass(frozen=True, eq=False)
class CondPMF(ByContent):
    """Conditional pmf table: one output distribution per input tuple.

    table[i1, ..., ik, j] = P(out=j | in=(i1, ..., ik)); entries are finite and
    nonnegative, and every row sums to 1 within 1e-12. The table is a
    read-only copy of the array passed in.
    """

    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=np.float64)
        if table.ndim < 2:
            raise ValueError("conditional table needs input axes plus an output axis")
        _check_sizes(table.shape)
        if not np.isfinite(table).all():
            raise ValueError("conditional entries must be finite")
        if np.any(table < 0):
            raise ValueError("conditional entries must be nonnegative")
        rows = table.sum(axis=-1)
        if np.any(np.abs(rows - 1.0) > NORMALIZATION_TOL):
            worst = float(np.abs(rows - 1.0).max())
            raise ValueError(f"conditional rows must sum to 1 (max deviation {worst:g})")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.table.shape[:-1]

    @property
    def output_size(self) -> int:
        return self.table.shape[-1]

    def to_text(self) -> str:
        return write_block(None, "condpmf", self.table)

    @classmethod
    def from_text(cls, text: str) -> "CondPMF":
        return cls(_read_single(text, "condpmf")[0])


@dataclass(frozen=True, eq=False)
class DeterministicMap(ByContent):
    """Total function from an input grid to an output index (a read-only table)."""

    table: np.ndarray
    output_size: int

    def __post_init__(self):
        table = np.array(self.table, dtype=np.int64)
        _check_sizes(table.shape)
        if self.output_size < 1:
            raise ValueError("output size must be positive")
        if np.any(table < 0) or np.any(table >= self.output_size):
            raise ValueError("map values must lie in [0, output_size)")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.table.shape

    def to_text(self) -> str:
        return write_block(None, "detmap", self.table, self.output_size)

    @classmethod
    def from_text(cls, text: str) -> "DeterministicMap":
        return cls(*_read_single(text, "detmap"))


def _validate_subset(subset, arity: int, name: str) -> tuple[int, ...]:
    subset = tuple(int(i) for i in subset)
    if any(i < 0 or i >= arity for i in subset):
        raise ValueError(f"{name} contains indices outside [0, {arity})")
    if len(set(subset)) != len(subset):
        raise ValueError(f"{name} contains repeated indices")
    return tuple(sorted(subset))


# ------------------------------------------------------------ raw-array core
# No validation here: these run inside the search and simulator loops, on
# tables the callers have already checked. With `batched`, axis 0 of a table
# indexes a stack of tables, axis tuples count the axes of one table, and the
# results are per table; every row is bit-identical to the unbatched call on
# that table alone.


def marginal(joint: np.ndarray, keep, batched: bool = False) -> np.ndarray:
    """Marginal of a raw table over the axes `keep`, in ascending axis order."""
    lead = int(batched)
    keep = {k + lead for k in keep}
    drop = tuple(i for i in range(lead, joint.ndim) if i not in keep)
    return joint.sum(axis=drop) if drop else joint


def table_entropy(table: np.ndarray, batched: bool = False):
    """Entropy in bits of a raw probability table (any shape), or per table of a stack."""
    if not batched:
        p = table.ravel()
        # 0 log 0 := 0 by continuity
        nz = p > 0.0
        return float(-(p[nz] * np.log2(p[nz])).sum())
    # numpy's pairwise sum groups a row's terms by the row's length from 8
    # terms up, so each row sums exactly its nonzero terms, in table order:
    # a stable partition moves them to the front, and the rows with k of
    # them sum the contiguous slice [:, :k] together
    p = table.reshape(len(table), -1)
    nz = p > 0.0
    p = np.take_along_axis(p, np.argsort(~nz, axis=1, kind="stable"), axis=1)
    terms = p * np.log2(np.where(p > 0.0, p, 1.0))
    counts = nz.sum(axis=1)
    out = np.empty(len(p))
    for k in np.flatnonzero(np.bincount(counts)):  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == k)
        out[rows] = -terms[rows, :k].sum(axis=1)
    return out


def cmi(joint: np.ndarray, a, b, c=(), batched: bool = False):
    """I(A;B|C) in bits on a raw joint table, for axis tuples a, b and c.

    Computed as H(A,C) + H(B,C) - H(A,B,C) - H(C), with tiny negative
    rounding residue clipped to 0. A constant A or B (every axis of size 1)
    gives exactly 0, which keeps the degenerate reductions between settings
    exact to the last bit.
    """
    a, b, c = tuple(a), tuple(b), tuple(c)
    shape = joint.shape[int(batched):]
    if all(shape[i] == 1 for i in a) or all(shape[i] == 1 for i in b):
        return np.zeros(len(joint)) if batched else 0.0

    def h(axes):
        return table_entropy(marginal(joint, axes, batched), batched)

    v = h(a + c) + h(b + c) - h(a + b + c) - (h(c) if c else 0.0)
    return np.where(v > 0.0, v, 0.0) if batched else max(0.0, v)


def joint(ndim: int, *factors) -> np.ndarray:
    """Product of (table, axes) factors broadcast onto an ndim-axis joint.

    The axes of each table land, in order, on the ascending joint axes
    `axes`. A table with one axis more than `axes` is a stack of tables: its
    first axis lands on a leading batch axis of the result. Factors multiply
    left to right, so the result is bit-identical to the same product
    written out with None-indexing.
    """
    lead = max(table.ndim - len(axes) for table, axes in factors)
    out = None
    for table, axes in factors:
        shape = [1] * (lead + ndim)
        if table.ndim > len(axes):
            shape[0] = table.shape[0]
        for ax, size in zip(axes, table.shape[table.ndim - len(axes):]):
            shape[lead + ax] = size
        t = table.reshape(shape)
        out = t if out is None else out * t
    return out


# -------------------------------------------------------- validated measures


def entropy(pmf: JointPMF, subset) -> float:
    """Joint entropy H(subset) in bits."""
    subset = _validate_subset(subset, pmf.arity, "subset")
    if not subset:
        raise ValueError("subset must be nonempty")
    return table_entropy(marginal(pmf.probs, subset))


def conditional_mutual_information(pmf: JointPMF, set_a, set_b, set_c=()) -> float:
    """I(A;B|C) in bits; with empty C this is plain mutual information."""
    a = _validate_subset(set_a, pmf.arity, "set_a")
    b = _validate_subset(set_b, pmf.arity, "set_b")
    c = _validate_subset(set_c, pmf.arity, "set_c")
    if not a or not b:
        raise ValueError("set_a and set_b must be nonempty")
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError("set_a, set_b, set_c must be pairwise disjoint")
    return cmi(pmf.probs, a, b, c)


def check_markov_chain(pmf: JointPMF, order) -> float:
    """Deviation from the Markov chain A - B - C, i.e. I(A;C|B) in bits.

    Zero iff the chain holds; the caller picks the tolerance.
    """
    set_a, set_b, set_c = order
    return conditional_mutual_information(pmf, set_a, set_c, set_b)


def compose_markov_chain(p_x: np.ndarray, p_y_given_x: CondPMF,
                         p_z_given_y: CondPMF) -> JointPMF:
    """Build p(x,y,z) = p(x) p(y|x) p(z|y) as a JointPMF."""
    p_x = np.asarray(p_x, dtype=np.float64)
    if p_x.ndim != 1:
        raise ValueError("p_x must be one-dimensional")
    if abs(float(p_x.sum()) - 1.0) > NORMALIZATION_TOL or np.any(p_x < 0):
        raise ValueError("p_x must be a probability vector")
    if p_y_given_x.input_sizes != (p_x.shape[0],):
        raise ValueError("p_y_given_x input alphabet does not match p_x")
    if p_z_given_y.input_sizes != (p_y_given_x.output_size,):
        raise ValueError("p_z_given_y input alphabet does not match p_y_given_x")
    return JointPMF(joint(3, (p_x, (0,)), (p_y_given_x.table, (0, 1)),
                          (p_z_given_y.table, (1, 2))))


def kaspi_lemma_check(
    p_a1b1: JointPMF,
    p_a2b2: JointPMF,
    m1: DeterministicMap,
    m2: DeterministicMap,
) -> tuple[float, float, float]:
    """Evaluate the three product-coupling identities on a concrete instance.

    The four base variables follow p(a1,a2,b1,b2) = p(a1,b1) p(a2,b2); M1 is
    a function of (A1,A2) and M2 a function of (B1,B2,M1). Returns

        ( I(A2;B1|M1,M2,A1,B2), I(B1;M1|A1,B2), I(A2;M2|M1,A1,B2) )

    all of which are identically zero whenever the premises hold, so nonzero
    values flag a broken coupling or an M2 that peeks outside (B1,B2,M1).
    """
    if p_a1b1.arity != 2 or p_a2b2.arity != 2:
        raise ValueError("pair distributions must each have two variables")
    na1, nb1 = p_a1b1.sizes
    na2, nb2 = p_a2b2.sizes
    if m1.input_sizes != (na1, na2):
        raise ValueError(f"m1 domain {m1.input_sizes} != (A1,A2) sizes {(na1, na2)}")
    nm1 = m1.output_size
    if m2.input_sizes != (nb1, nb2, nm1):
        raise ValueError(
            f"m2 domain {m2.input_sizes} != (B1,B2,M1) sizes {(nb1, nb2, nm1)}"
        )
    nm2 = m2.output_size

    # axes (A1, A2, B1, B2, M1, M2); the maps enter as one-hot channels
    pmf = JointPMF(joint(6, (p_a1b1.probs, (0, 2)), (p_a2b2.probs, (1, 3)),
                         (np.eye(nm1)[m1.table], (0, 1, 4)),
                         (np.eye(nm2)[m2.table], (2, 3, 4, 5))))
    v1 = conditional_mutual_information(pmf, [1], [2], [4, 5, 0, 3])
    v2 = conditional_mutual_information(pmf, [2], [4], [0, 3])
    v3 = conditional_mutual_information(pmf, [1], [5], [4, 0, 3])
    return v1, v2, v3


# --------------------------------------------------------------- text codec
# A block is a header line "[name] kind dims..." and then one "index... value"
# row per table entry, every index exactly once. The dims by kind:
#   jointpmf k s1..sk       table (s1..sk) of probabilities
#   condpmf  k s1..sk out   table (s1..sk, out); its rows index the output too
#   detmap   k s1..sk out   table (s1..sk) of output indices in [0, out)
#   dtable   rows cols      table (rows, cols) of distortions
BLOCK_KINDS = ("jointpmf", "condpmf", "detmap", "dtable")


def write_block(name, kind: str, table: np.ndarray, out_size=None) -> str:
    """Text of one block; name None writes an unnamed header."""
    shape = table.shape
    dims = {"jointpmf": (len(shape),) + shape, "condpmf": (len(shape) - 1,) + shape,
            "detmap": (len(shape),) + shape + (out_size,), "dtable": shape}[kind]
    head = [name, kind] if name is not None else [kind]
    fmt = "%s %d" if kind == "detmap" else "%s %.17g"
    lines = [" ".join(head + ["%d" % d for d in dims])]
    lines += [fmt % (" ".join(map(str, i)), table[i]) for i in np.ndindex(*shape)]
    return "\n".join(lines) + "\n"


def read_blocks(text: str) -> list:
    """(name, kind, table, out_size) of every block in `text`.

    The text splits at header lines, whose first token is not an integer;
    '#' starts a comment. name is None for an unnamed header, out_size is
    None but for detmap. A malformed header, or a block that is short,
    sparse or has a duplicate or out-of-range index, raises ValueError
    naming the block and the fault.
    """
    blocks = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0].lstrip("+-").isdigit():
            if not blocks:
                raise ValueError(f"data row {raw.strip()!r} before any block header")
            blocks[-1][1].append(tokens)
        elif tokens:
            blocks.append((tokens, []))
    return [_parse_block(head, rows) for head, rows in blocks]


def _parse_block(head, rows):
    name = head.pop(0) if head[0] not in BLOCK_KINDS and len(head) > 1 else None
    kind = head[0]
    label = f"block {name or kind!r}"
    if kind not in BLOCK_KINDS:
        raise ValueError(f"{label}: unknown kind {kind!r}, not one of {BLOCK_KINDS}")
    try:
        dims = [int(d) for d in head[1:]]
        k = 2 if kind == "dtable" else dims[0]
        if len(dims) != {"jointpmf": 1 + k, "dtable": 2}.get(kind, 2 + k):
            raise ValueError("wrong number of sizes")
        shape = _check_sizes(dims if kind == "dtable"
                             else dims[1 : 1 + k + (kind == "condpmf")])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{label}: malformed header {' '.join(head)!r} ({exc})") from None
    convert = int if kind == "detmap" else float
    table, seen = np.zeros(shape, dtype=convert), np.zeros(shape, dtype=bool)
    for row in rows:
        try:
            if len(row) != len(shape) + 1:
                raise ValueError
            idx, value = tuple(int(t) for t in row[:-1]), convert(row[-1])
        except ValueError:
            raise ValueError(f"{label}: row {' '.join(row)!r} is not "
                             f"{len(shape)} indices and a value") from None
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ValueError(f"{label}: index {idx} out of range for shape {shape}")
        if seen[idx]:
            raise ValueError(f"{label}: duplicate index {idx}")
        seen[idx], table[idx] = True, value
    if len(rows) != table.size:
        raise ValueError(f"{label}: {len(rows)} of its {table.size} entries listed")
    return name, kind, table, dims[-1] if kind == "detmap" else None


def _read_single(text: str, kind: str):
    """(table, out_size) of a text holding exactly one block of `kind`."""
    blocks = read_blocks(text)
    if len(blocks) != 1 or blocks[0][1] != kind:
        raise ValueError(f"expected exactly one {kind!r} block")
    return blocks[0][2:]
