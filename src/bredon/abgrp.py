"""Exact integer linear algebra over Z.

Smith normal form with unimodular transforms, integer kernels and linear
solving, and canonical forms of finitely generated abelian groups.  All
arithmetic uses Python's arbitrary-precision integers, so nothing here can
overflow silently.

The canonical form of a finitely generated abelian group is a free rank
together with the ascending chain of invariant factors:

>>> print(FgAbelianGroup.from_cyclic_orders([0, 30, 4]))
Z (+) Z/2 (+) Z/60
>>> FgAbelianGroup.from_cyclic_orders([2, 3]) == FgAbelianGroup.from_cyclic_orders([6])
True

Matrices are maps Z^cols -> Z^rows acting on column vectors.  The Smith
normal form of A is a triple (U, D, V) of integer matrices with

    D = U @ A @ V,   U and V unimodular,   D diagonal with d1 | d2 | ...

>>> U, D, V = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
>>> D.to_rows()
[[2, 0], [0, 4]]
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from math import gcd
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence


class IntegerMatrix:
    """An immutable integer matrix with exact arithmetic.

    ``rows`` and ``cols`` are the shape.  The entries are stored sparse, one
    dict {column: value} of nonzero entries per row (``_rows``), which is
    the layout the reduction engine works in, so the large, sparse
    differentials of the cycle complexes stay cheap.  The one keyed
    constructor takes an integer shape and ``data`` keyed by (row, column)
    inside it, as ``items()`` reads entries back; the one row-dict constructor,
    ``from_row_dicts``, takes one dict per row, unchecked; the one block
    constructor, ``from_bands``, stacks bands of matrix blocks, checking
    that each block fits its band, and assembles every block matrix.
    Zero-row and zero-column matrices are first-class and represent maps
    to or from the zero group.

    Matrices may share row dicts (a row slice does); no row dict is mutated
    once it belongs to a matrix, and the reduction engine works on copies.
    A matrix holds nothing derived from its entries: every reduction of it
    starts afresh.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, data: dict):
        if type(rows) is not int or type(cols) is not int:
            rows, cols = _integer(rows, "a row count"), _integer(cols, "a column count")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        by_row = [{} for _ in range(rows)]
        for (i, j), v in data.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError("entry index out of range")
            v = _integer(v, "matrix entry at ({}, {})", i, j)
            if v:
                by_row[i][j] = v
        self.rows, self.cols, self._rows = rows, cols, by_row

    # -- constructors -------------------------------------------------
    @classmethod
    def from_row_dicts(cls, rows: list, cols: int) -> "IntegerMatrix":
        """The matrix whose row i is the dict {column: value} rows[i].

        The dicts are taken over as they are, neither copied nor checked:
        every column must lie in range(cols), every value must be nonzero,
        and the caller must not touch a dict again.
        """
        a = cls.__new__(cls)
        a.rows, a.cols, a._rows = len(rows), cols, rows
        return a

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntegerMatrix":
        c = len(rows[0]) if rows else (cols or 0)
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != c:
            raise ValueError(f"rows of length {c} disagree with cols={cols}")
        checked = [[_integer(v, "matrix entry at ({}, {})", i, j) for j, v in enumerate(r)]
                   for i, r in enumerate(rows)]
        return cls.from_row_dicts([{j: v for j, v in enumerate(r) if v} for r in checked], c)

    @classmethod
    def from_bands(cls, cols: int, bands: Iterable) -> "IntegerMatrix":
        """The matrix of cols columns stacked from bands of rows.

        Each band is (height, [(offset, block), ...]): height rows, with the
        matrix block at columns offset .. offset + block.cols - 1 and zero
        in the columns no block covers.  Each row lists its entries source
        by source in the order given, each in its block's order.  A block
        of another height, or one that starts before 0, ends past cols or
        overlaps another block of its band, raises a one-line ValueError.
        """
        # id(block) -> (block, its rows as (column, value) pairs), read once
        # per block; holding the block keeps its id from being reused
        pairs: dict = {}
        placed = []
        for b, (height, sources) in enumerate(bands):
            band, spans = [], []
            for off, block in sources:
                end = off + block.cols
                if block.rows != height or off < 0 or end > cols:
                    raise ValueError(f"band {b}: a block of height {block.rows} at columns "
                                     f"{off}..{end - 1} does not fit height {height} and "
                                     f"columns 0..{cols - 1}")
                held = pairs.get(id(block))
                if held is None:
                    held = pairs[id(block)] = block, [tuple(row.items()) for row in block._rows]
                band.append((off, held[1]))
                spans.append((off, end))
            spans.sort()
            for (_, end), (later, _) in zip(spans, spans[1:]):
                if later < end:
                    raise ValueError(f"band {b}: two blocks overlap at column {later}")
            placed.append((height, band))
        return cls.from_row_dicts([{off + j: v for off, rows in band for j, v in rows[i]}
                                   for height, band in placed for i in range(height)], cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.from_row_dicts([{i: 1} for i in range(n)], n)

    @classmethod
    def from_diagonal(cls, diag: Sequence[int], rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, {(i, i): v for i, v in enumerate(diag) if v})

    # -- access --------------------------------------------------------
    def to_rows(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.items():
            out[i][j] = v
        return out

    def items(self):
        """The nonzero entries as ((row, column), value) pairs, row by row."""
        return (((i, j), v) for i, row in enumerate(self._rows) for j, v in row.items())

    def is_zero(self) -> bool:
        return not any(self._rows)

    # -- algebra ---------------------------------------------------------
    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # _add_scaled inlined: each row lists its keys in the order that
        # adding the scaled rows of other one by one inserts them, and adding
        # a row to an empty sum is a copy or a scaled copy of it
        right = other._rows
        out = []
        for row in self._rows:
            acc: dict = {}
            for k, v in row.items():
                if not acc:
                    acc = dict(right[k]) if v == 1 else {j: v * w for j, w in right[k].items()}
                    continue
                get = acc.get
                for j, w in right[k].items():
                    s = get(j, 0) + v * w
                    if s:
                        acc[j] = s
                    else:
                        acc.pop(j, None)
            out.append(acc)
        return IntegerMatrix.from_row_dicts(out, other.cols)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        out = [dict(row) for row in self._rows]
        for acc, row in zip(out, other._rows):
            _add_scaled(acc, row, 1)
        return IntegerMatrix.from_row_dicts(out, self.cols)

    def __neg__(self) -> "IntegerMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntegerMatrix":
        if c == 0:
            return IntegerMatrix.zeros(self.rows, self.cols)
        return IntegerMatrix.from_row_dicts(
            [{j: c * v for j, v in row.items()} for row in self._rows], self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._rows == other._rows

    def transpose(self) -> "IntegerMatrix":
        """The transpose, each row listing its columns in ascending order."""
        out: list = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                out[j][i] = v
        return IntegerMatrix.from_row_dicts(out, self.rows)

    def __repr__(self) -> str:
        if self.rows * self.cols <= 64:
            return f"IntegerMatrix({self.to_rows()!r})"
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self._rows))})"


# ----------------------------------------------------------------------
# Sparse unimodular reduction engine
# ----------------------------------------------------------------------

def _integer(v, what: str, *at) -> int:
    """v as an int, through ``operator.index``, so that numpy and sympy
    integers pass; any other value raises a one-line ValueError naming what,
    formatted with at only then."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"{what.format(*at)} is {v!r}, not an integer") from None


def _add_scaled(target: dict, source: dict, c: int):
    """target += c * source, for sparse vectors stored as dicts of nonzeros."""
    for k, v in source.items():
        s = target.get(k, 0) + c * v
        if s:
            target[k] = s
        else:
            target.pop(k, None)


class _Reduction:
    """Bring a matrix to diagonal form by unimodular row/column operations.

    Maintains the invariant  A_current = U @ A_original @ V.  Every row and
    column operation is logged.  U, U^-1, V and V^-1 are built when asked
    for, on the rows or columns asked for only, by the one reverse replay of
    a log (``_replay``) that also reads the Morse maps f and g, so a
    reduction that only needs its diagonal builds no transform.  Rows of U
    and columns of V are ordered as in ``row_order`` and ``col_order``; a
    subset is asked for by original row or column index.  Only integer
    row/column combinations are ever applied (fraction-free).

    One pivot rule: every pivot is the entry with the smallest |v| left,
    with a Markowitz fill estimate as tiebreak (the choice of
    Havas-Majewski, which keeps intermediate entries small), then the
    smallest row index.  ``run`` first takes every free face, a +-1 alone
    in its row, before any heap exists: the smallest row index first, from
    a heap of the rows that hold one entry.  A free face has the smallest
    key, (1, 0), so this is the same rule with exact costs; taken in
    ascending row order the collapses keep the Morse maps sparse (a stack
    of lone rows gave the same groups with 4.4 times the entries of f on
    the fixed complex at shift 9).  Each clears its column by deleting one
    entry per row, logged as a row operation, and is made +1 by a logged
    negation.  The heap is built from what is left.  A pivot
    (i, j) with value d clears column j by row operations, then row i by
    column operations.  Each leaves v mod d behind, and a nonzero
    remainder, smaller than |d|, ends the pivot's turn: the heap offers the
    smallest entry left next.  A pivot with nothing left in its row and
    column is made positive; if it does not divide every live entry, the
    row of an offender is added to row i and the same pivot clears its row
    again.  A dead row holds no entry in a live column, so clearing a
    column never touches one.

    Pivot candidates live in a heap keyed by (|v|, (row nnz - 1) * (col
    nnz - 1)).  Every live entry is a candidate when the heap is built, and
    every nonzero entry a row or column combination writes is pushed again
    (a negation keeps |v|), so each live entry has a candidate with its
    current |v|.
    Candidates are checked only when they reach the top: one in a dead row,
    on a zeroed entry or with a stale |v| is dropped, and one whose cost has
    grown is pushed back with the new cost.  A cost that has shrunk since
    its push is not seen, so the tiebreak is approximate; the pivot always
    has the smallest |v| left.

    With ``units_only`` the run stops before its first pivot with |v| > 1,
    so it takes only the unit phase: the pivots taken while the smallest
    |v| left is 1.  Each of them cleared its row and column by exact
    Gaussian elimination, with no remainder step and no divisibility
    repair: every row operation subtracts a multiple of a pivot row, and
    every column operation a multiple of a pivot column.  The live rows
    are then what the unit pivots leave, with entries in the live columns
    only (see ``MorseRecord``).  The columns in ``drop`` are left out.
    """

    def __init__(self, a: IntegerMatrix, drop: frozenset = frozenset(), units_only: bool = False):
        self.m, self.n, self.units_only = a.rows, a.cols, units_only
        self.rows = [{j: v for j, v in row.items() if j not in drop} for row in a._rows] \
            if drop else [dict(row) for row in a._rows]
        self.colnz = [set() for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for j in row:
                self.colnz[j].add(i)
        self.row_ops: list = []  # (k, i, q): row_k -= q * row_i; (i, i, 0): row_i = -row_i
        self.col_ops: list = []  # (l, j, q): col_l -= q * col_j
        self.pivots: list = []  # (row, col, value)
        self.collapses = 0  # the leading pivots that were free faces
        self.live_rows = set(range(self.m))
        self.live_cols = set(range(self.n))
        self.heap: list = []  # pivot candidates (|v|, Markowitz cost, row, col), built by run

    # row_k -= q * row_i
    def _row_axpy(self, k: int, i: int, q: int):
        rk, ri = self.rows[k], self.rows[i]
        for j, v in ri.items():
            s = rk.get(j, 0) - q * v
            if s:
                rk[j] = s
                self.colnz[j].add(k)
                heappush(self.heap, (abs(s), (len(rk) - 1) * (len(self.colnz[j]) - 1), k, j))
            else:
                rk.pop(j, None)
                self.colnz[j].discard(k)
        self.row_ops.append((k, i, q))

    # col_l -= q * col_j
    def _col_axpy(self, l: int, j: int, q: int):
        for i in list(self.colnz[j]):
            ri = self.rows[i]
            s = ri.get(l, 0) - q * ri[j]
            if s:
                ri[l] = s
                self.colnz[l].add(i)
                heappush(self.heap, (abs(s), (len(ri) - 1) * (len(self.colnz[l]) - 1), i, l))
            else:
                ri.pop(l, None)
                self.colnz[l].discard(i)
        self.col_ops.append((l, j, q))

    def _negate_row(self, i: int):
        ri = self.rows[i]
        for j in ri:
            ri[j] = -ri[j]
        self.row_ops.append((i, i, 0))

    def _find_pivot(self):
        heap, rows = self.heap, self.rows
        while heap:
            a, cost, i, j = heap[0]
            v = rows[i].get(j, 0) if i in self.live_rows else 0
            if v != a and v != -a:
                heappop(heap)  # stale: dead row, zeroed entry or new |v|
                continue
            now = (len(rows[i]) - 1) * (len(self.colnz[j]) - 1)
            if now > cost:
                heapreplace(heap, (a, now, i, j))
                continue
            return i, j
        return None

    def _collapse(self):
        """Take every free face, a lone +-1 in its row, the smallest row index first.

        Rows only lose entries here: clearing column j under a lone entry
        (i, j) deletes one entry of each other row, so a row with one entry
        keeps it until it is cleared, and each row enters the heap of lone
        rows at most once.
        """
        rows, colnz = self.rows, self.colnz
        lone = [i for i, row in enumerate(rows) if len(row) == 1]  # ascending, so a heap
        while lone:
            i = heappop(lone)
            ri = rows[i]
            if len(ri) != 1:
                continue  # cleared since it was pushed
            (j, v), = ri.items()
            if v != 1 and v != -1:
                continue
            for k in colnz[j]:
                if k != i:
                    rk = rows[k]
                    self.row_ops.append((k, i, rk.pop(j) * v))  # row_k -= q * row_i
                    if len(rk) == 1:
                        heappush(lone, k)
            colnz[j] = {i}
            if v < 0:
                self._negate_row(i)
            self.pivots.append((i, j, 1))
            self.live_rows.discard(i)
            self.live_cols.discard(j)
        self.collapses = len(self.pivots)

    def _build_heap(self):
        """Every live entry as a pivot candidate, with its exact cost."""
        rows, colnz = self.rows, self.colnz
        self.heap = [(abs(v), (len(rows[i]) - 1) * (len(colnz[j]) - 1), i, j)
                     for i in self.live_rows for j, v in rows[i].items()]
        heapify(self.heap)

    def run(self):
        self._collapse()
        self._build_heap()
        while True:
            piv = self._find_pivot()
            if piv is None or self.units_only and self.rows[piv[0]][piv[1]] not in (1, -1):
                break
            i, j = piv
            ri = self.rows[i]
            while True:
                # clear column j, then row i; a remainder ends the turn
                d = ri[j]
                for k in list(self.colnz[j]):
                    if k != i:
                        q = self.rows[k][j] // d
                        if q:
                            self._row_axpy(k, i, q)
                if len(self.colnz[j]) > 1:
                    break
                for l, v in [(l, v) for l, v in ri.items() if l != j]:
                    q = v // d
                    if q:
                        self._col_axpy(l, j, q)
                if len(ri) > 1:
                    break
                if d < 0:
                    self._negate_row(i)
                    d = -d
                # enforce the divisibility chain: d must divide everything left
                offender = None if d == 1 else next(
                    (k for k in self.live_rows
                     if k != i and any(v % d for v in self.rows[k].values())), None)
                if offender is None:
                    self.pivots.append((i, j, d))
                    self.live_rows.discard(i)
                    self.live_cols.discard(j)
                    break
                self._row_axpy(i, offender, -1)  # row_i += row_offender, then the same pivot

    # -- extraction ----------------------------------------------------
    def row_order(self) -> list:
        order = [i for i, _, _ in self.pivots]
        order += sorted(self.live_rows)
        return order

    def col_order(self) -> list:
        order = [j for _, j, _ in self.pivots]
        order += sorted(self.live_cols)
        return order

    def matrix_u(self, rows: Optional[list] = None) -> IntegerMatrix:
        """U, or its rows at the given original row indices."""
        rows = self.row_order() if rows is None else rows
        return _replay(self.row_ops, rows, self.m, transpose=True)

    def matrix_u_inverse(self, cols: Optional[list] = None) -> IntegerMatrix:
        """U^-1, or its columns at the given original row indices."""
        cols = self.row_order() if cols is None else cols
        return _replay([(y, x, -q) for x, y, q in self.row_ops], cols, self.m)

    def matrix_v(self, cols: Optional[list] = None) -> IntegerMatrix:
        """V, or its columns at the given original column indices."""
        cols = self.col_order() if cols is None else cols
        return _replay(self.col_ops, cols, self.n)

    def matrix_v_inverse(self, cols: list) -> IntegerMatrix:
        """The rows of V^-1 that belong to the given original column indices."""
        return _replay([(y, x, -q) for x, y, q in self.col_ops], cols, self.n, transpose=True)

    def matrix_d(self) -> IntegerMatrix:
        return IntegerMatrix.from_diagonal([p for _, _, p in self.pivots], self.m, self.n)


def _reduce(a: IntegerMatrix) -> _Reduction:
    """A whole reduction of A, run unless A is zero."""
    red = _Reduction(a)
    if not a.is_zero():
        red.run()
    return red


class SmithNormalForm(NamedTuple):
    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix


def smith_normal_form(a: IntegerMatrix) -> SmithNormalForm:
    """Smith normal form (U, D, V) with D = U @ A @ V.

    U and V are unimodular, D is diagonal with nonnegative entries and an
    ascending divisibility chain d1 | d2 | ...

    >>> U, D, V = smith_normal_form(IntegerMatrix.from_rows([[2]]))
    >>> D.to_rows(), U.to_rows(), V.to_rows()
    ([[2]], [[1]], [[1]])
    """
    red = _reduce(a)
    return SmithNormalForm(red.matrix_u(), red.matrix_d(), red.matrix_v())


def snf_diagonal(a: IntegerMatrix) -> list:
    """The nonzero diagonal of the Smith normal form, from one reduction of A."""
    return [p for _, _, p in _reduce(a).pivots]


def rank(a: IntegerMatrix) -> int:
    return len(snf_diagonal(a))


class _Swept(NamedTuple):
    """The positions a ``MorseRecord`` has reduced, published as one value."""

    f: tuple            # f^t: M^t x C^t for each reduced position
    g: tuple            # g^t: C^t x M^t
    d: tuple            # d_M^t: M^(t+1) x M^t, one position behind until the top
    diag: tuple         # the Smith diagonal of each d_M^t, taken once when it is fixed
    units: tuple        # the number of unit pivots of each reduced d^t
    faces: tuple        # how many of them were free faces, taken by the collapse
    paired: frozenset   # the rows of the last reduced d^t's unit pivots
    pending: Optional[tuple]  # its row log, its live rows and M^t, until d^(t+1) is reduced


class MorseRecord:
    """The Morse complex M that the unit pivots of a bottom-up sweep leave, with f and g.

    ``differentials`` are d^t: C^t -> C^(t+1) at consecutive positions
    t = 0..n with d^(t+1) @ d^t = 0; a complex passes all of its degrees,
    the top one into the zero group.  ``sweep(t)`` runs the unit phase of
    each position up to t, each once and in order; a later call goes on
    from where the last one stopped.

    A unit pivot of d^t at (row b, column a), taken before its first pivot
    with |v| > 1, splits off a contractible summand Z --(+-1)--> Z on a and
    b by Gaussian elimination (Kaczynski-Mrozek-Slusarek; an algebraic
    Morse matching in Skoldberg's sense): the row operations that clear
    column a change only the basis vector b of the target, which becomes an
    image under d^t, so column b of d^(t+1) vanishes and the other columns
    stay as they are.  So d^(t+1) is reduced without the columns P^(t+1)
    that the unit pivots of d^t paired.  Most unit pivots are free faces,
    a +-1 alone in its row, and are taken first, by the collapse of
    ``_Reduction``: the coreductions of Mrozek-Batko (Coreduction homology
    algorithm, Discrete Comput. Geom. 2009), here on a cochain
    differential.  ``units`` counts the unit pivots of each d^t and
    ``faces`` the free faces among them.

    What the unit pivots leave is a deformation retract M of C, so every
    group of C, over Z and over Z/m, is that of M.  M^t is C^t without P^t
    and without the unit-pivot columns of d^t; d_M^t is the live part of
    d^t after its unit phase, on the columns M^t and the rows M^(t+1).  The
    live rows that M drops are integral combinations of the rows it keeps,
    so the Smith diagonal of d^t is one 1 per unit pivot, then that of
    d_M^t.  With D_t = U_t @ d^t @ V_t the unit phase of d^t, the chain maps
    are g^t = V_t[:, M^t]: M -> C and f^(t+1) = U_t[M^(t+1), :]: C -> M,
    and f^0 is the projection onto M^0; f @ g = 1 on M.  Both are read off
    the logs by ``_replay``, the replay that builds every transform, on M's
    generators alone, and each log is dropped once it has been read.  The
    sweep takes the Smith diagonal of each d_M^t once, when it fixes d_M^t,
    and ``diagonal`` hands out the whole Smith diagonal of d^t.  A group
    of C is fixed by these diagonals and the ranks of C: H^t is
    Z^(rank C^t - r(t-1) - r(t)), with r the lengths of the diagonals of
    d^(t-1) and d^t, plus a Z/e for each entry e > 1 of the diagonal of
    d^(t-1) (``chaincx.cohomology``).

    The reduced positions, diagonals included, are published as one
    immutable value, so a record shared between threads is at worst swept
    twice, with equal results.
    """

    __slots__ = ("differentials", "_swept")

    def __init__(self, differentials: Sequence[IntegerMatrix]):
        self.differentials = tuple(differentials)
        self._swept = _Swept((), (), (), (), (), (), frozenset(), None)

    def sweep(self, t: int) -> _Swept:
        """Reduce the positions up to t (at most n) that no earlier sweep reduced."""
        swept = self._swept
        while len(swept.g) <= min(t, len(self.differentials) - 1):
            swept = self._step(swept)
            self._swept = swept
        return swept

    def window(self, t: int) -> tuple:
        """(d_M^(t-1), d_M^t, f^t, g^t), sweeping through t + 1; all 0 x 0 outside 0..n."""
        if not 0 <= t < len(self.differentials):
            zero = IntegerMatrix.zeros(0, 0)
            return zero, zero, zero, zero
        s = self.sweep(t + 1)
        d_in = s.d[t - 1] if t else IntegerMatrix.zeros(s.g[0].cols, 0)
        return d_in, s.d[t], s.f[t], s.g[t]

    def diagonal(self, t: int) -> tuple:
        """The Smith diagonal of d^t (0 <= t <= n), sweeping through t + 1:
        one 1 per unit pivot, then the diagonal of d_M^t."""
        s = self.sweep(t + 1)
        return (1,) * s.units[t] + s.diag[t]

    def _step(self, s: _Swept) -> _Swept:
        t = len(s.g)
        a = self.differentials[t]
        red = _Reduction(a, s.paired, units_only=True)
        if not a.is_zero():
            red.run()
        unit_cols = {j for _, j, _ in red.pivots}
        keep = [j for j in range(a.cols) if j not in s.paired and j not in unit_cols]
        g = _replay(red.col_ops, keep, a.cols)
        if t:
            row_ops, below, below_keep = s.pending
            f = _replay(row_ops, keep, a.cols, transpose=True)
            d = s.d + (_submatrix(below, keep, below_keep),)
        else:
            f, d = IntegerMatrix.from_row_dicts([{j: 1} for j in keep], a.cols), s.d
        paired = frozenset(i for i, _, _ in red.pivots)
        live = {i: red.rows[i] for i in red.live_rows if red.rows[i]}
        pending = (red.row_ops, live, keep)
        if t == len(self.differentials) - 1:
            d += (_submatrix(live, [i for i in range(a.rows) if i not in paired], keep),)
            pending = None
        return _Swept(s.f + (f,), s.g + (g,), d,
                      s.diag + tuple(tuple(snf_diagonal(x)) for x in d[len(s.diag):]),
                      s.units + (len(red.pivots),), s.faces + (red.collapses,), paired, pending)


def _replay(ops: list, keep: list, n: int, transpose: bool = False) -> IntegerMatrix:
    """P[:, keep] for the product P of a log, as an n x len(keep) matrix, or its transpose.

    An operation (x, y, q) stands for 1 - q e_y e_x^T and a negation
    (i, i, 0) for the sign flip at i; P is their product in log order.  A
    column of P is its generator's unit vector with the operations applied
    last to first: (x, y, q) does w_y -= q w_x.  All the columns go at once,
    held as the rows {generator: value} of P[:, keep], so only generators
    that some requested column reaches are ever built.

    The column log (l, j, q) gives V = P and the row log (k, i, q) gives
    U = P^T.  The inverses come from the same logs with each operation
    swapped into (y, x, -q): that gives U^-1 = P and V^-1 = P^T.
    """
    vecs: dict = {g: {t: 1} for t, g in enumerate(keep)}
    for x, y, q in reversed(ops):
        src = vecs.get(x)
        if not src:
            continue
        if x == y:
            vecs[x] = {t: -v for t, v in src.items()}
        else:
            _add_scaled(vecs.setdefault(y, {}), src, -q)
    if not transpose:
        return IntegerMatrix.from_row_dicts([vecs.get(c, {}) for c in range(n)], len(keep))
    rows: list = [{} for _ in keep]
    for c in sorted(vecs):
        for t, v in vecs[c].items():
            rows[t][c] = v
    return IntegerMatrix.from_row_dicts(rows, n)


def _submatrix(rows: dict, keep_rows: list, keep_cols: list) -> IntegerMatrix:
    """The rows {row: {column: value}} on keep_rows x keep_cols, renumbered in that order."""
    at = {j: t for t, j in enumerate(keep_cols)}
    return IntegerMatrix.from_row_dicts([{at[j]: v for j, v in rows.get(i, {}).items()}
                                         for i in keep_rows], len(keep_cols))


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Columns form a basis of the integer kernel {x : A x = 0}.

    These are the trailing n - r columns of V.  The basis spans a saturated
    sublattice (kernels of integer matrices are pure), so any integer vector
    in the rational kernel is an integer combination of these columns.
    """
    red = _reduce(a)
    return red.matrix_v(sorted(red.live_cols))


def solve(a: IntegerMatrix, b: IntegerMatrix) -> Optional[IntegerMatrix]:
    """An integer solution X of A @ X = B, or None if none exists.

    With D = U @ A @ V of rank r, a solution exists iff row t of U @ B is
    divisible by d_t for t < r and zero for t >= r; then X = V[:, :r] @ Y
    with Y the quotients.
    """
    red = _reduce(a)
    ub = (red.matrix_u() @ b)._rows
    r = len(red.pivots)
    if any(ub[r:]):
        return None
    y = []
    for row, (_, _, d) in zip(ub, red.pivots):
        if any(w % d for w in row.values()):
            return None
        y.append({c: w // d for c, w in row.items()})
    return red.matrix_v([j for _, j, _ in red.pivots]) @ IntegerMatrix.from_row_dicts(y, b.cols)


# each coefficient, by its modulus, and its text: Z is written 0, Z/2 is written 2
COEFF_TEXT = {0: "Z", 2: "Z/2"}


def check_modulus(m: int) -> None:
    """The one coefficient rule, checked by every public entry that takes a
    coefficient, before any work.

    The coefficients are those of ``COEFF_TEXT``; groups over any other Z/m
    follow from the integral ones by the universal coefficient theorem.
    """
    if m not in tuple(COEFF_TEXT):
        raise ValueError(f"coefficient {m} is neither "
                         + " nor ".join(f"{c} ({text})" for c, text in COEFF_TEXT.items()))


def rank_mod(a: IntegerMatrix) -> int:
    """Rank of A over Z/2.

    This is an xor basis of the row bitsets, keyed by highest set bit, which
    does not use the integral engine.  Keyed by the lowest set bit instead,
    the stored rows of the orbit differentials fill in: ranking each
    differential of the free complex at shift 10 once took 8.4 s CPU that
    way against 0.25 s (Python 3.11, 2-core Xeon).
    """
    basis: dict = {}
    for row in a._rows:
        x = 0
        for j, v in row.items():
            if v & 1:
                x |= 1 << j
        while x:
            top = x.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = x
                break
            x ^= pivot
    return len(basis)


# ----------------------------------------------------------------------
# Finitely generated abelian groups in canonical form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form of a finitely generated abelian group.

    ``invariant_factors`` is the ascending divisibility chain (each factor
    at least 2 and dividing the next); the representation is unique, so
    group equality is plain structural comparison.  The rank and factors
    are ints (numpy and sympy integers become ints); any other value is a
    one-line ValueError.

    >>> FgAbelianGroup(1, (2,)).render()
    'Z (+) Z/2'
    >>> FgAbelianGroup.from_cyclic_orders([4, 6]).invariant_factors
    (2, 12)
    """

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        if type(self.free_rank) is not int:
            object.__setattr__(self, "free_rank", _integer(self.free_rank, "a free rank"))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        fs = self.invariant_factors
        for k, f in enumerate(fs):
            if type(f) is not int:      # take every factor through _integer, then check again
                fs = tuple(_integer(v, "an invariant factor") for v in fs)
                object.__setattr__(self, "invariant_factors", fs)
                return self.__post_init__()
            if f < 2:
                raise ValueError("invariant factors must be at least 2")
            if k and fs[k] % fs[k - 1]:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def zero(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, r: int) -> "FgAbelianGroup":
        return cls(r, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        return cls.from_cyclic_orders([n])

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int]) -> "FgAbelianGroup":
        """Canonicalize a direct sum of cyclic groups Z/o (o = 0 meaning Z).

        Z/x (+) Z/y is Z/gcd (+) Z/lcm, so replacing each pair i < j by its
        gcd and lcm keeps the group.  After the pass over j, entry i divides
        every later entry, and later gcds and lcms of multiples of it stay
        multiples, so one pass leaves a divisibility chain; the 1s it leaves
        come first and are dropped.  No order is factored.
        """
        orders = [abs(o if type(o) is int else _integer(o, "a cyclic order")) for o in orders]
        fs = [o for o in orders if o > 1]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                g = gcd(fs[i], fs[j])
                fs[i], fs[j] = g, fs[i] // g * fs[j]
        return cls(orders.count(0), tuple(f for f in fs if f > 1))

    # -- structure -------------------------------------------------------
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        orders = [0] * self.free_rank + list(self.invariant_factors)
        for g in others:
            orders += [0] * g.free_rank + list(g.invariant_factors)
        return FgAbelianGroup.from_cyclic_orders(orders)

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.invariant_factors)}

    def render(self) -> str:
        """Fixed rendering grammar: 'Z', 'Z^r', 'Z/d', joined by ' (+) '."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " (+) ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


def tensor_Z2_group(g: FgAbelianGroup) -> FgAbelianGroup:
    """G (x) Z/2: every free generator and every even factor gives a Z/2."""
    n = g.free_rank + sum(1 for f in g.invariant_factors if f % 2 == 0)
    return FgAbelianGroup(0, (2,) * n)


def two_torsion_group(g: FgAbelianGroup) -> FgAbelianGroup:
    """The 2-torsion subgroup {x : 2x = 0}: one Z/2 per even factor."""
    n = sum(1 for f in g.invariant_factors if f % 2 == 0)
    return FgAbelianGroup(0, (2,) * n)


# ----------------------------------------------------------------------
# Cohomology of a raw two-step window of free abelian groups
# ----------------------------------------------------------------------

def _check_window(d_in: IntegerMatrix, d_out: IntegerMatrix, m: int):
    """Reject a raw window whose shapes differ or with d_out @ d_in not zero (mod m)."""
    if d_in.rows != d_out.cols:
        raise ValueError(
            f"window mismatch: d_in lands in rank {d_in.rows}, d_out leaves rank {d_out.cols}")
    if any(v % m if m else v for _, v in (d_out @ d_in).items()):
        raise ValueError("d_out @ d_in is not zero" + (f" mod {m}" if m else ""))


def cohomology_at(d_in: IntegerMatrix, d_out: IntegerMatrix) -> FgAbelianGroup:
    """ker(d_out)/im(d_in) for a raw window, checked first to be a complex.

    Read off the Smith diagonals of the window, as ``chaincx.cohomology``
    reads a ``CochainComplex``; a complex takes them from a Morse record
    instead, unchecked, as it was verified when it was built.

    >>> print(cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1)))
    Z/2
    >>> z3 = IntegerMatrix.zeros(3, 0)
    >>> print(cohomology_at(z3, IntegerMatrix.zeros(0, 3)))
    Z^3
    """
    _check_window(d_in, d_out, 0)
    diag = snf_diagonal(d_in)
    return FgAbelianGroup.from_cyclic_orders([0] * (d_in.rows - rank(d_out) - len(diag)) + diag)


def mod_m_cohomology_at(d_in: IntegerMatrix, d_out: IntegerMatrix) -> FgAbelianGroup:
    """H over Z/2 of a raw window, checked first: (Z/2)^(rank - r(d_in) - r(d_out)),
    with r the rank over Z/2 from the bitset kernel.

    >>> print(mod_m_cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1)))
    Z/2
    """
    _check_window(d_in, d_out, 2)
    return FgAbelianGroup(0, (2,) * (d_in.rows - rank_mod(d_in) - rank_mod(d_out)))


# ----------------------------------------------------------------------
# Presentations and maps between cohomology groups
# ----------------------------------------------------------------------

@dataclass
class CohomologyPresentation:
    """A cohomology group with explicit canonical generators.

    One reduction D = U' @ d_out @ V' gives the cycles {b : d_out @ b = 0}:
    the columns of ``basis`` = V'[:, past the pivots] span them, and
    ``coordinates`` reads a cycle c in that basis as ``to_basis`` @ c, the
    rows of V'^-1 @ c past the pivots.  With D = U @ X @ V the Smith form of
    the boundaries X in that basis, the generators are the rows of U whose
    diagonal entry is not 1: ``transform`` = U[those, :] carries basis
    coordinates to canonical coordinates, in which the relation matrix is
    diag(orders), and ``inverse`` = U^-1[:, those] lifts each generator to a
    cycle, so transform @ inverse = 1.  ``orders`` is the group's invariant
    factors followed by a 0 per free generator.  It sees raw windows and the
    windows of a complex's Morse model only, never a complex's own
    differentials.
    """

    group: FgAbelianGroup
    d_out: IntegerMatrix
    basis: IntegerMatrix
    to_basis: IntegerMatrix
    transform: IntegerMatrix
    inverse: IntegerMatrix
    orders: tuple

    def coordinates(self, b: IntegerMatrix) -> Optional[IntegerMatrix]:
        """Y with basis @ Y = B, or None if a column of B is not a cycle."""
        return self.to_basis @ b if (self.d_out @ b).is_zero() else None


def cohomology_presentation(d_in: IntegerMatrix, d_out: IntegerMatrix) -> CohomologyPresentation:
    """H = ker(d_out)/im(d_in) over Z, with explicit generators.

    A ``CochainComplex`` hands it the windows of its Morse model M (see
    ``MorseRecord``), not its own: the cohomology of M is that of C, and
    M's windows are small.  Raw windows come here as they are.

    >>> six = IntegerMatrix.from_rows([[6], [0]])
    >>> print(cohomology_presentation(six, IntegerMatrix.zeros(0, 2)).group)
    Z (+) Z/6
    """
    if d_in.rows != d_out.cols:
        raise ValueError("window mismatch")
    cycles = _reduce(d_out)
    free = sorted(cycles.live_cols)
    basis, to_basis = cycles.matrix_v(free), cycles.matrix_v_inverse(free)
    if not (d_out @ d_in).is_zero():
        raise ValueError("d_out @ d_in is not zero")
    red = _reduce(to_basis @ d_in)
    surviving = [i for i, _, d in red.pivots if d != 1] + sorted(red.live_rows)
    orders = tuple(d for _, _, d in red.pivots if d != 1) + (0,) * len(red.live_rows)
    return CohomologyPresentation(FgAbelianGroup.from_cyclic_orders(orders), d_out, basis,
                                  to_basis, red.matrix_u(surviving),
                                  red.matrix_u_inverse(surviving), orders)


def map_on_cohomology(f: IntegerMatrix, source: CohomologyPresentation,
                      target: CohomologyPresentation) -> IntegerMatrix:
    """Matrix of the induced map on canonical generators.

    ``f`` is a chain-level map sending ker(d_out) of the source into the
    kernel at the target.  Each source generator is lifted to a cycle by
    ``source.inverse``, mapped, and read in the target's generators by
    ``target.transform``; torsion rows are reduced modulo their orders.
    """
    coords = target.coordinates(f @ source.basis)
    if coords is None:
        raise ValueError("chain map does not preserve kernels")
    m = target.transform @ coords @ source.inverse
    return IntegerMatrix.from_row_dicts(
        [{j: v % o for j, v in row.items() if v % o} if o else row
         for row, o in zip(m._rows, target.orders)], m.cols)


def _relations(f: IntegerMatrix, orders: tuple) -> IntegerMatrix:
    """[f | R], with R the relation matrix of Z^s / diag(orders), orders[i] = 0
    marking a free generator."""
    cols = [i for i, o in enumerate(orders) if o]
    r = IntegerMatrix(len(orders), len(cols), {(i, t): orders[i] for t, i in enumerate(cols)})
    return IntegerMatrix.from_bands(f.cols + r.cols, [(len(orders), [(0, f), (f.cols, r)])])


def kernel_lattice(f: IntegerMatrix, source: tuple, target: tuple) -> IntegerMatrix:
    """Generators (columns) of {x : f x = 0 in the target group} in Z^source.

    Here and below a group is given by its ``orders``, as presented by
    ``CohomologyPresentation``.
    """
    k = kernel_basis(_relations(f, target))
    return _relations(IntegerMatrix.from_row_dicts(k._rows[:len(source)], k.cols), source)


def lattice_contains(generators: IntegerMatrix, vectors: IntegerMatrix) -> bool:
    return solve(generators, vectors) is not None


def is_exact_at(f1: IntegerMatrix, f2: IntegerMatrix, b: tuple, c: tuple) -> bool:
    """Exactness of A --f1--> B --f2--> C at B (image = kernel)."""
    if not map_is_zero(f2 @ f1, c):
        return False
    return lattice_contains(_relations(f1, b), kernel_lattice(f2, b, c))


def map_is_zero(f: IntegerMatrix, target: tuple) -> bool:
    return not any(v % o if o else v
                   for row, o in zip(f._rows, target) for v in row.values())


def map_is_injective(f: IntegerMatrix, source: tuple, target: tuple) -> bool:
    return lattice_contains(_relations(IntegerMatrix.zeros(len(source), 0), source),
                            kernel_lattice(f, source, target))


def map_is_surjective(f: IntegerMatrix, target: tuple) -> bool:
    return lattice_contains(_relations(f, target), IntegerMatrix.identity(len(target)))


def map_is_multiplication_by(f: IntegerMatrix, n: int, source: tuple, target: tuple) -> bool:
    if source != target:
        return False
    diff = f + IntegerMatrix.from_diagonal([-n] * len(source), len(source), len(source))
    return map_is_zero(diff, target)
