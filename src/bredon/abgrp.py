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
>>> D.diagonal()
[2, 4]
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence


class IntegerMatrix:
    """An immutable integer matrix with exact arithmetic.

    Entries are conceptually stored in row-major order; internally only
    nonzero entries are kept so that the large, sparse differentials of the
    cycle complexes stay cheap.  Zero-row and zero-column matrices are
    first-class and represent maps to or from the zero group.

    The nonzero Smith diagonal is memoised on the matrix by the first
    reduction of it, whichever entry point runs that reduction.  It is
    derived from the entries, so it takes no part in equality.
    """

    __slots__ = ("rows", "cols", "_d", "_diag")

    def __init__(self, rows: int, cols: int, data: dict):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self._d = {k: v for k, v in data.items() if v}
        self._diag: Optional[tuple] = None if self._d else ()

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntegerMatrix":
        r = len(rows)
        c = len(rows[0]) if r else (cols or 0)
        d = {}
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    d[(i, j)] = int(v)
        return cls(r, c, d)

    @classmethod
    def from_flat(cls, rows: int, cols: int, entries: Sequence[int]) -> "IntegerMatrix":
        if len(entries) != rows * cols:
            raise ValueError("entry count must be rows*cols")
        d = {}
        for i in range(rows):
            for j in range(cols):
                v = entries[i * cols + j]
                if v:
                    d[(i, j)] = int(v)
        return cls(rows, cols, d)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "IntegerMatrix":
        for (i, j) in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError("entry index out of range")
        return cls(rows, cols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_diagonal(cls, diag: Sequence[int], rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, {(i, i): int(v) for i, v in enumerate(diag) if v})

    # -- access --------------------------------------------------------
    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry index out of range")
        return self._d.get((i, j), 0)

    def to_rows(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._d.items():
            out[i][j] = v
        return out

    @property
    def entries(self) -> list:
        """Row-major flat entry list (materializes zeros; use on small matrices)."""
        out = [0] * (self.rows * self.cols)
        for (i, j), v in self._d.items():
            out[i * self.cols + j] = v
        return out

    def items(self):
        return self._d.items()

    def nnz(self) -> int:
        return len(self._d)

    def is_zero(self) -> bool:
        return not self._d

    def diagonal(self) -> list:
        return [self._d.get((i, i), 0) for i in range(min(self.rows, self.cols))]

    # -- algebra ---------------------------------------------------------
    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_col = {}
        for (i, j), v in self._d.items():
            by_col.setdefault(j, []).append((i, v))
        out: dict = {}
        for (k, j), w in other._d.items():
            for i, v in by_col.get(k, ()):
                key = (i, j)
                s = out.get(key, 0) + v * w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return IntegerMatrix(self.rows, other.cols, out)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        out = dict(self._d)
        for k, v in other._d.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return IntegerMatrix(self.rows, self.cols, out)

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, {k: -v for k, v in self._d.items()})

    def scale(self, c: int) -> "IntegerMatrix":
        if c == 0:
            return IntegerMatrix.zeros(self.rows, self.cols)
        return IntegerMatrix(self.rows, self.cols, {k: c * v for k, v in self._d.items()})

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self._d.items()})

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        d = dict(self._d)
        for (i, j), v in other._d.items():
            d[(i, j + self.cols)] = v
        return IntegerMatrix(self.rows, self.cols + other.cols, d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._d == other._d

    def __repr__(self) -> str:
        if self.rows * self.cols <= 64:
            return f"IntegerMatrix({self.to_rows()!r})"
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


# ----------------------------------------------------------------------
# Sparse unimodular reduction engine
# ----------------------------------------------------------------------

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
    column operation is logged, and U, U^-1, V and V^-1 are built from the
    logs when asked for, so a reduction that only needs its diagonal builds
    no transform.  Pivoting prefers entries of minimal absolute value,
    with a Markowitz fill estimate as tiebreak, which keeps intermediate
    entries small (fraction-free: only integer row/column combinations are
    ever applied).

    Pivot candidates live in a heap keyed by (|v|, (row nnz - 1) * (col
    nnz - 1)).  Every entry is a candidate at the start, and every nonzero
    entry a row or column combination writes is pushed again (a negation
    keeps |v|), so each live entry has a candidate with its current |v|.  Candidates are checked only when they
    reach the top: one in a dead row, on a zeroed entry or with a stale |v|
    is dropped, and one whose cost has grown is pushed back with the new
    cost.  A cost that has shrunk since its push is not seen, so the
    tiebreak is approximate; the pivot always has the smallest |v| left.
    """

    def __init__(self, a: IntegerMatrix):
        self.m, self.n = a.rows, a.cols
        self.rows = [dict() for _ in range(self.m)]
        self.colnz = [set() for _ in range(self.n)]
        for (i, j), v in a.items():
            self.rows[i][j] = v
            self.colnz[j].add(i)
        self.row_ops: list = []  # (k, i, q): row_k -= q * row_i; (i, i, 0): row_i = -row_i
        self.col_ops: list = []  # (l, j, q): col_l -= q * col_j
        self.pivots: list = []  # (row, col, value)
        self.live_rows = set(range(self.m))
        self.live_cols = set(range(self.n))
        # pivot candidates (|v|, Markowitz cost, row, col), validated when popped
        self.heap = [(abs(v), (len(self.rows[i]) - 1) * (len(self.colnz[j]) - 1), i, j)
                     for (i, j), v in a.items()]
        heapify(self.heap)

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

    def run(self):
        while True:
            piv = self._find_pivot()
            if piv is None:
                break
            i, j = piv
            # isolate the pivot at (i, j)
            while True:
                # clear column j
                moved = True
                while moved:
                    moved = False
                    d = self.rows[i][j]
                    for k in list(self.colnz[j]):
                        if k == i or k not in self.live_rows:
                            continue
                        q = self.rows[k][j] // d
                        if q:
                            self._row_axpy(k, i, q)
                        if self.rows[k].get(j):
                            # leftover remainder is strictly smaller: promote it
                            if abs(self.rows[k][j]) < abs(d):
                                i = k
                                d = self.rows[i][j]
                                moved = True
                # clear row i
                d = self.rows[i][j]
                row_items = [(l, v) for l, v in self.rows[i].items() if l != j]
                dirty = False
                for l, v in row_items:
                    q = v // d
                    if q:
                        self._col_axpy(l, j, q)
                    if self.rows[i].get(l):
                        if abs(self.rows[i][l]) < abs(d):
                            j = l
                            dirty = True
                            break
                if dirty:
                    continue
                if any(l != j for l in self.rows[i]):
                    continue
                if any(k != i for k in self.colnz[j]):
                    continue
                d = self.rows[i][j]
                if d < 0:
                    self._negate_row(i)
                    d = -d
                if d != 1:
                    # enforce the divisibility chain: d must divide everything left
                    offender = None
                    for k in self.live_rows:
                        if k == i:
                            continue
                        for l, v in self.rows[k].items():
                            if v % d:
                                offender = k
                                break
                        if offender is not None:
                            break
                    if offender is not None:
                        self._row_axpy(i, offender, -1)  # row_i += row_offender
                        continue
                break
            self.pivots.append((i, j, self.rows[i][j]))
            self.live_rows.discard(i)
            self.live_cols.discard(j)

    # -- extraction ----------------------------------------------------
    def row_order(self) -> list:
        order = [i for i, _, _ in self.pivots]
        order += sorted(self.live_rows)
        return order

    def col_order(self) -> list:
        order = [j for _, j, _ in self.pivots]
        order += sorted(self.live_cols)
        return order

    # Replaying a log on the identity, in the order it was applied, builds a
    # transform: a row operation acts on the rows of U and, inverted, on the
    # columns of U^-1; a column operation acts on the columns of V and,
    # inverted, on the rows of V^-1.
    def _row_transform(self, inverse: bool) -> list:
        vecs = [{i: 1} for i in range(self.m)]
        for k, i, q in self.row_ops:
            if k == i:
                vecs[k] = {c: -v for c, v in vecs[k].items()}
            elif inverse:
                _add_scaled(vecs[i], vecs[k], q)
            else:
                _add_scaled(vecs[k], vecs[i], -q)
        return [vecs[i] for i in self.row_order()]

    def _col_transform(self, inverse: bool, cols: list) -> list:
        vecs = [{j: 1} for j in range(self.n)]
        for l, j, q in self.col_ops:
            if inverse:
                _add_scaled(vecs[j], vecs[l], q)
            else:
                _add_scaled(vecs[l], vecs[j], -q)
        return [vecs[j] for j in cols]

    def matrix_u(self) -> IntegerMatrix:
        return _from_rows(self._row_transform(False), self.m)

    def matrix_u_inverse(self) -> IntegerMatrix:
        return _from_rows(self._row_transform(True), self.m).transpose()

    def matrix_v(self, cols: Optional[list] = None) -> IntegerMatrix:
        """V, or its columns at the given original column indices."""
        cols = self.col_order() if cols is None else cols
        return _from_rows(self._col_transform(False, cols), self.n).transpose()

    def matrix_v_inverse(self, cols: list) -> IntegerMatrix:
        """The rows of V^-1 that belong to the given original column indices."""
        return _from_rows(self._col_transform(True, cols), self.n)

    def matrix_d(self) -> IntegerMatrix:
        return IntegerMatrix.from_diagonal([p for _, _, p in self.pivots], self.m, self.n)


def _from_rows(rows: list, width: int) -> IntegerMatrix:
    return IntegerMatrix(len(rows), width,
                         {(t, j): v for t, row in enumerate(rows) for j, v in row.items()})


def _reduce(a: IntegerMatrix) -> _Reduction:
    """Reduce A once and memoise its nonzero Smith diagonal on A."""
    red = _Reduction(a)
    if not a.is_zero():
        red.run()
    a._diag = tuple(p for _, _, p in red.pivots)
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
    """The nonzero diagonal of the Smith normal form.

    The matrix is reduced at most once; later calls, and calls after any
    other reduction of it, reuse its memoised diagonal.
    """
    if a._diag is None:
        _reduce(a)
    return list(a._diag)


def rank(a: IntegerMatrix) -> int:
    return len(snf_diagonal(a))


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
    r = len(red.pivots)
    y = {}
    for (t, c), w in (red.matrix_u() @ b).items():
        if t >= r or w % red.pivots[t][2]:
            return None
        y[(t, c)] = w // red.pivots[t][2]
    return red.matrix_v([j for _, j, _ in red.pivots]) @ IntegerMatrix(r, b.cols, y)


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word-sized moduli used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rank_mod(a: IntegerMatrix, m: int) -> int:
    """Rank of A over the field Z/m (m prime).

    Mod 2 this is an xor basis of the row bitsets, keyed by lowest set bit,
    which does not use the integral engine.  For odd m it counts the Smith
    invariants that m does not divide: U and V stay invertible mod m.
    """
    if m == 2:
        rows = [0] * a.rows
        for (i, j), v in a.items():
            if v & 1:
                rows[i] |= 1 << j
        basis: dict = {}
        for x in rows:
            while x:
                low = x & -x
                if low not in basis:
                    basis[low] = x
                    break
                x ^= basis[low]
        return len(basis)
    return sum(1 for d in snf_diagonal(a) if d % m)


# ----------------------------------------------------------------------
# Finitely generated abelian groups in canonical form
# ----------------------------------------------------------------------

def _factorint(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form of a finitely generated abelian group.

    ``invariant_factors`` is the ascending divisibility chain (each factor
    at least 2 and dividing the next); the representation is unique, so
    group equality is plain structural comparison.

    >>> FgAbelianGroup(1, (2,)).render()
    'Z (+) Z/2'
    >>> FgAbelianGroup.from_cyclic_orders([4, 6]).invariant_factors
    (2, 12)
    """

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        fs = self.invariant_factors
        for k, f in enumerate(fs):
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
        """Canonicalize a direct sum of cyclic groups Z/o (o = 0 meaning Z)."""
        rank = 0
        primary: dict = {}
        for o in orders:
            o = abs(int(o))
            if o == 0:
                rank += 1
                continue
            if o == 1:
                continue
            for p, e in _factorint(o).items():
                primary.setdefault(p, []).append(e)
        for exps in primary.values():
            exps.sort(reverse=True)
        factors = []
        k = 0
        while True:
            f = 1
            for p, exps in primary.items():
                if k < len(exps):
                    f *= p ** exps[k]
            if f == 1:
                break
            factors.append(f)
            k += 1
        factors.reverse()
        return cls(rank, tuple(factors))

    # -- structure -------------------------------------------------------
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        orders = [0] * self.free_rank + list(self.invariant_factors)
        for g in others:
            orders += [0] * g.free_rank + list(g.invariant_factors)
        return FgAbelianGroup.from_cyclic_orders(orders)

    def tensor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Tensor product over Z, via gcds of cyclic orders."""
        orders = []
        mine = [0] * self.free_rank + list(self.invariant_factors)
        theirs = [0] * other.free_rank + list(other.invariant_factors)
        for a in mine:
            for b in theirs:
                if a and b:
                    orders.append(gcd(a, b))
                else:
                    orders.append(a or b)  # Z (x) Z/b = Z/b, Z (x) Z = Z
        return FgAbelianGroup.from_cyclic_orders(orders)

    def tor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Tor(-, -): only torsion parts interact, again via gcds."""
        orders = [gcd(a, b) for a in self.invariant_factors for b in other.invariant_factors]
        return FgAbelianGroup.from_cyclic_orders(orders)

    def two_primary_part(self) -> "FgAbelianGroup":
        orders = []
        for f in self.invariant_factors:
            two = 1
            while f % 2 == 0:
                two *= 2
                f //= 2
            if two > 1:
                orders.append(two)
        return FgAbelianGroup.from_cyclic_orders(orders)

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbelianGroup":
        return cls(int(data["rank"]), tuple(int(t) for t in data["torsion"]))

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
# Cohomology of a two-step window of free abelian groups
# ----------------------------------------------------------------------

def window_cohomology(d_in: IntegerMatrix, d_out: IntegerMatrix, m: int = 0) -> FgAbelianGroup:
    """ker(d_out)/im(d_in) over Z (m = 0) or Z/m (m prime), trusting its input.

    The shapes must match and d_out @ d_in must vanish (mod m): a
    ``CochainComplex`` is verified when it is built, and ``cohomology_at``
    and ``mod_m_cohomology_at`` check raw windows first.  Over Z the torsion
    of ker/im is that of Z^n/im(d_in) (a class with a multiple in the image
    lies in the kernel), so the diagonal of d_in and the rank of d_out
    suffice.  No rank can come out negative: im d_in lies in ker d_out, so
    rank d_in + rank d_out <= n, over Z and over Z/m.
    """
    if m:
        if not is_prime(m):
            raise ValueError(f"{m} is not prime")
        return FgAbelianGroup(0, (m,) * (d_in.rows - rank_mod(d_out, m) - rank_mod(d_in, m)))
    diag = snf_diagonal(d_in)
    free = d_in.rows - rank(d_out) - len(diag)
    return FgAbelianGroup.from_cyclic_orders([0] * free + [d for d in diag if d != 1])


def _check_window(d_in: IntegerMatrix, d_out: IntegerMatrix, m: int):
    """Reject a raw window whose shapes differ or with d_out @ d_in not zero (mod m)."""
    if d_in.rows != d_out.cols:
        raise ValueError(
            f"window mismatch: d_in lands in rank {d_in.rows}, d_out leaves rank {d_out.cols}")
    if any(v % m if m else v for _, v in (d_out @ d_in).items()):
        raise ValueError("d_out @ d_in is not zero" + (f" mod {m}" if m else ""))


def cohomology_at(d_in: IntegerMatrix, d_out: IntegerMatrix) -> FgAbelianGroup:
    """ker(d_out)/im(d_in) for a raw window, checked first to be a complex.

    The cohomology of a ``CochainComplex`` skips this check: the complex was
    verified when it was built.

    >>> print(cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1)))
    Z/2
    >>> z3 = IntegerMatrix.zeros(3, 0)
    >>> print(cohomology_at(z3, IntegerMatrix.zeros(0, 3)))
    Z^3
    """
    _check_window(d_in, d_out, 0)
    return window_cohomology(d_in, d_out)


def mod_m_cohomology_at(d_in: IntegerMatrix, d_out: IntegerMatrix, m: int) -> FgAbelianGroup:
    """Cohomology with Z/m coefficients (m prime) of a raw window, checked first.

    >>> print(mod_m_cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1), 2))
    Z/2
    """
    if not is_prime(m):  # first, so that m = 0 is refused, not read as Z
        raise ValueError(f"{m} is not prime")
    _check_window(d_in, d_out, m)
    return window_cohomology(d_in, d_out, m)


# ----------------------------------------------------------------------
# Presentations and maps between cohomology groups
# ----------------------------------------------------------------------

class _Cycles:
    """The cycles {b : d_out @ b = 0 mod m}, a basis of them, and coordinates.

    One reduction D = U @ A @ V of A = d_out, or of A = [d_out | m I] for
    m > 0, gives both: the kernel of A is spanned by the columns of V past
    the pivots, and the coordinates of a kernel vector c in that basis are
    the rows of V^-1 @ c past the pivots.  The cycles are the top rows of
    the kernel; a cycle b lifts to the kernel vector (b, -(d_out @ b) / m).
    """

    __slots__ = ("d_out", "m", "basis", "inverse")

    def __init__(self, d_out: IntegerMatrix, m: int):
        self.d_out, self.m = d_out, m
        a = d_out.hstack(IntegerMatrix.identity(d_out.rows).scale(m)) if m else d_out
        red = _reduce(a)
        free = sorted(red.live_cols)
        self.basis = _top_rows(red.matrix_v(free), d_out.cols)
        self.inverse = red.matrix_v_inverse(free)

    def coordinates(self, b: IntegerMatrix) -> Optional[IntegerMatrix]:
        """Y with basis @ Y = B, or None if a column of B is not a cycle."""
        m, n = self.m, self.d_out.cols
        lift = dict(b.items())
        for (i, j), v in (self.d_out @ b).items():
            if v % m if m else v:
                return None
            lift[(n + i, j)] = -v // m
        return self.inverse @ IntegerMatrix(self.inverse.cols, b.cols, lift)


@dataclass
class CohomologyPresentation:
    """A cohomology group with explicit canonical generators.

    ``cycles.basis`` columns span the cycles in chain coordinates, and
    ``cycles.coordinates`` reads a cycle in that basis; ``transform``
    carries basis coordinates to canonical coordinates in which the
    relation matrix is diag(orders); generator i survives in the canonical
    form iff orders[i] != 1 (0 marks a free generator).
    """

    group: FgAbelianGroup
    cycles: _Cycles
    transform: IntegerMatrix
    inverse: IntegerMatrix
    orders: tuple
    surviving: tuple


def cohomology_presentation(d_in: IntegerMatrix, d_out: IntegerMatrix,
                            m: int = 0) -> CohomologyPresentation:
    """H = ker(d_out)/im(d_in) with explicit generators, over Z or Z/m.

    For m > 0 the cycles are {x : d_out x = 0 mod m} and the boundaries are
    im(d_in) + m Z^n, so the integral machinery presents H(C; Z/m) as well.

    >>> six = IntegerMatrix.from_rows([[6]])
    >>> print(cohomology_presentation(six, IntegerMatrix.zeros(0, 1), 3).group)
    Z/3
    """
    if d_in.rows != d_out.cols:
        raise ValueError("window mismatch")
    cycles = _Cycles(d_out, m)
    x = cycles.coordinates(d_in.hstack(IntegerMatrix.identity(d_in.rows).scale(m)) if m else d_in)
    if x is None:
        raise ValueError("d_out @ d_in is not zero" + (f" mod {m}" if m else ""))
    red = _reduce(x)
    if not m:
        # d_in = basis @ x and the basis spans a saturated sublattice, so d_in
        # and x have the same Smith diagonal
        d_in._diag = x._diag
    orders = x._diag + (0,) * (x.rows - len(x._diag))
    surviving = tuple(i for i, o in enumerate(orders) if o != 1)
    grp = FgAbelianGroup.from_cyclic_orders([orders[i] for i in surviving])
    return CohomologyPresentation(grp, cycles, red.matrix_u(), red.matrix_u_inverse(),
                                  orders, surviving)


def map_on_cohomology(f: IntegerMatrix, source: CohomologyPresentation,
                      target: CohomologyPresentation) -> IntegerMatrix:
    """Matrix of the induced map on canonical generators.

    ``f`` is a chain-level map sending ker(d_out) of the source into the
    kernel at the target.  Torsion rows are reduced modulo their orders.
    """
    coords = target.cycles.coordinates(f @ source.cycles.basis)
    if coords is None:
        raise ValueError("chain map does not preserve kernels")
    m = target.transform @ coords @ source.inverse
    d = {}
    row_of = {gi: r for r, gi in enumerate(target.surviving)}
    col_of = {gi: c for c, gi in enumerate(source.surviving)}
    for (i, j), v in m.items():
        if i in row_of and j in col_of:
            o = target.orders[i]
            w = v % o if o else v
            if w:
                d[(row_of[i], col_of[j])] = w
    return IntegerMatrix(len(target.surviving), len(source.surviving), d)


@dataclass
class PresentedGroup:
    """A group Z^s / diag(orders) with orders[i] = 0 marking free generators."""

    orders: tuple

    @classmethod
    def of(cls, pres: CohomologyPresentation) -> "PresentedGroup":
        return cls(tuple(pres.orders[i] for i in pres.surviving))

    @property
    def size(self) -> int:
        return len(self.orders)

    def relation_matrix(self) -> IntegerMatrix:
        cols = [i for i, o in enumerate(self.orders) if o]
        d = {(i, t): self.orders[i] for t, i in enumerate(cols)}
        return IntegerMatrix(self.size, len(cols), d)


def kernel_lattice(f: IntegerMatrix, source: PresentedGroup, target: PresentedGroup) -> IntegerMatrix:
    """Generators (columns) of {x : f x = 0 in the target group} in Z^source."""
    k = kernel_basis(f.hstack(target.relation_matrix()))
    return _top_rows(k, source.size).hstack(source.relation_matrix())


def _top_rows(a: IntegerMatrix, n: int) -> IntegerMatrix:
    return IntegerMatrix(n, a.cols, {(i, j): v for (i, j), v in a.items() if i < n})


def lattice_contains(generators: IntegerMatrix, vectors: IntegerMatrix) -> bool:
    return solve(generators, vectors) is not None


def is_exact_at(f1: IntegerMatrix, f2: IntegerMatrix, b: PresentedGroup, c: PresentedGroup) -> bool:
    """Exactness of A --f1--> B --f2--> C at B (image = kernel)."""
    if not map_is_zero(f2 @ f1, c):
        return False
    return lattice_contains(f1.hstack(b.relation_matrix()), kernel_lattice(f2, b, c))


def map_is_zero(f: IntegerMatrix, target: PresentedGroup) -> bool:
    for (i, _), v in f.items():
        o = target.orders[i]
        if (v % o) if o else v:
            return False
    return True


def map_is_injective(f: IntegerMatrix, source: PresentedGroup, target: PresentedGroup) -> bool:
    ker = kernel_lattice(f, source, target)
    return lattice_contains(source.relation_matrix(), ker)


def map_is_surjective(f: IntegerMatrix, target: PresentedGroup) -> bool:
    return lattice_contains(f.hstack(target.relation_matrix()), IntegerMatrix.identity(target.size))


def map_is_multiplication_by(f: IntegerMatrix, n: int,
                             source: PresentedGroup, target: PresentedGroup) -> bool:
    if source.orders != target.orders:
        return False
    diff = f + IntegerMatrix.from_diagonal([-n] * source.size, source.size, source.size)
    return map_is_zero(diff, target)
