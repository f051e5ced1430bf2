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
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence


class IntegerMatrix:
    """An immutable integer matrix with exact arithmetic.

    Entries are conceptually stored in row-major order; internally only
    nonzero entries are kept so that the large, sparse differentials of the
    cycle complexes stay cheap.  Zero-row and zero-column matrices are
    first-class and represent maps to or from the zero group.

    The nonzero Smith diagonal is memoised on the matrix the first time
    ``snf_diagonal`` or ``rank`` asks for it.  It is derived from the
    entries, so it takes no part in equality.
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

    def column(self, j: int) -> list:
        return [self._d.get((i, j), 0) for i in range(self.rows)]

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

    def submatrix_columns(self, cols: Sequence[int]) -> "IntegerMatrix":
        pos = {c: k for k, c in enumerate(cols)}
        d = {}
        for (i, j), v in self._d.items():
            if j in pos:
                d[(i, pos[j])] = v
        return IntegerMatrix(self.rows, len(cols), d)

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

class _Reduction:
    """Bring a matrix to diagonal form by unimodular row/column operations.

    Maintains the invariant  A_current = U @ A_original @ V  where the row
    operations are accumulated in U (and optionally its inverse) and the
    column operations in V.  Pivoting prefers entries of minimal absolute
    value, with a Markowitz fill estimate as tiebreak, which keeps
    intermediate entries small (fraction-free: only integer row/column
    combinations are ever applied).
    """

    def __init__(self, a: IntegerMatrix, want_u=False, want_v=False,
                 aug: Optional[IntegerMatrix] = None):
        self.m, self.n = a.rows, a.cols
        self.rows = [dict() for _ in range(self.m)]
        self.colnz = [set() for _ in range(self.n)]
        for (i, j), v in a.items():
            self.rows[i][j] = v
            self.colnz[j].add(i)
        self.want_u = want_u
        self.want_v = want_v
        self.u = [dict({i: 1}) for i in range(self.m)] if want_u else None
        self.uinv_cols = [dict({i: 1}) for i in range(self.m)] if want_u else None
        self.v_cols = [dict({j: 1}) for j in range(self.n)] if want_v else None
        self.aug = None
        if aug is not None:
            if aug.rows != self.m:
                raise ValueError("augment row mismatch")
            self.aug = [dict() for _ in range(self.m)]
            for (i, j), v in aug.items():
                self.aug[i][j] = v
            self.aug_cols = aug.cols
        self.pivots: list = []  # (row, col, value)
        self.live_rows = set(range(self.m))
        self.live_cols = set(range(self.n))

    # row_k -= q * row_i
    def _row_axpy(self, k: int, i: int, q: int):
        rk, ri = self.rows[k], self.rows[i]
        for j, v in ri.items():
            s = rk.get(j, 0) - q * v
            if s:
                rk[j] = s
                self.colnz[j].add(k)
            else:
                rk.pop(j, None)
                self.colnz[j].discard(k)
        if self.want_u:
            uk, ui = self.u[k], self.u[i]
            for j, v in ui.items():
                s = uk.get(j, 0) - q * v
                if s:
                    uk[j] = s
                else:
                    uk.pop(j, None)
            # inverse gets the inverse column operation: col_i += q * col_k
            ci, ck = self.uinv_cols[i], self.uinv_cols[k]
            for r, v in ck.items():
                s = ci.get(r, 0) + q * v
                if s:
                    ci[r] = s
                else:
                    ci.pop(r, None)
        if self.aug is not None:
            ak, ai = self.aug[k], self.aug[i]
            for j, v in ai.items():
                s = ak.get(j, 0) - q * v
                if s:
                    ak[j] = s
                else:
                    ak.pop(j, None)

    # col_l -= q * col_j
    def _col_axpy(self, l: int, j: int, q: int):
        for i in list(self.colnz[j]):
            ri = self.rows[i]
            s = ri.get(l, 0) - q * ri[j]
            if s:
                ri[l] = s
                self.colnz[l].add(i)
            else:
                ri.pop(l, None)
                self.colnz[l].discard(i)
        if self.want_v:
            cl, cj = self.v_cols[l], self.v_cols[j]
            for r, v in cj.items():
                s = cl.get(r, 0) - q * v
                if s:
                    cl[r] = s
                else:
                    cl.pop(r, None)

    def _negate_row(self, i: int):
        ri = self.rows[i]
        for j in ri:
            ri[j] = -ri[j]
        if self.want_u:
            ui = self.u[i]
            for j in ui:
                ui[j] = -ui[j]
            ci = self.uinv_cols[i]
            for r in ci:
                ci[r] = -ci[r]
        if self.aug is not None:
            ai = self.aug[i]
            for j in ai:
                ai[j] = -ai[j]

    def _find_pivot(self):
        best = None
        best_key = None
        for i in self.live_rows:
            ri = self.rows[i]
            if not ri:
                continue
            for j, v in ri.items():
                a = v if v > 0 else -v
                key = (a, (len(ri) - 1) * (len(self.colnz[j]) - 1))
                if best_key is None or key < best_key:
                    best_key, best = key, (i, j)
                    if key[0] == 1 and key[1] == 0:
                        return best
        return best

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

    def matrix_u(self) -> IntegerMatrix:
        d = {}
        for t, i in enumerate(self.row_order()):
            for j, v in self.u[i].items():
                d[(t, j)] = v
        return IntegerMatrix(self.m, self.m, d)

    def matrix_u_inverse(self) -> IntegerMatrix:
        d = {}
        pos = {i: t for t, i in enumerate(self.row_order())}
        for i, col in enumerate(self.uinv_cols):
            for r, v in col.items():
                d[(r, pos[i])] = v
        return IntegerMatrix(self.m, self.m, d)

    def matrix_v(self) -> IntegerMatrix:
        d = {}
        for t, j in enumerate(self.col_order()):
            for r, v in self.v_cols[j].items():
                d[(r, t)] = v
        return IntegerMatrix(self.n, self.n, d)

    def matrix_d(self) -> IntegerMatrix:
        return IntegerMatrix.from_diagonal([p for _, _, p in self.pivots], self.m, self.n)

    def kernel_columns(self) -> IntegerMatrix:
        pivot_cols = {j for _, j, _ in self.pivots}
        free = [j for j in range(self.n) if j not in pivot_cols]
        d = {}
        for t, j in enumerate(free):
            for r, v in self.v_cols[j].items():
                d[(r, t)] = v
        return IntegerMatrix(self.n, len(free), d)

    def aug_matrix_rows(self) -> list:
        return self.aug


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
    red = _Reduction(a, want_u=True, want_v=True)
    red.run()
    return SmithNormalForm(red.matrix_u(), red.matrix_d(), red.matrix_v())


def snf_diagonal(a: IntegerMatrix) -> list:
    """The nonzero diagonal of the Smith normal form, without transforms.

    The matrix is reduced at most once; later calls reuse its memoised diagonal.
    """
    if a._diag is None:
        red = _Reduction(a)
        red.run()
        a._diag = tuple(p for _, _, p in red.pivots)
    return list(a._diag)


def rank(a: IntegerMatrix) -> int:
    return len(snf_diagonal(a))


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Columns form a basis of the integer kernel {x : A x = 0}.

    The basis spans a saturated sublattice (kernels of integer matrices are
    pure), so any integer vector in the rational kernel is an integer
    combination of these columns.
    """
    red = _Reduction(a, want_v=True)
    red.run()
    return red.kernel_columns()


def solve(a: IntegerMatrix, b: IntegerMatrix) -> Optional[IntegerMatrix]:
    """An integer solution X of A @ X = B, or None if none exists.

    Row operations are applied to B alongside the reduction of A, so no
    full-size transform is ever materialized.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    red = _Reduction(a, want_v=True, aug=b)
    red.run()
    aug = red.aug_matrix_rows()
    y: dict = {}
    used = set()
    for (i, j, d) in red.pivots:
        used.add(i)
        for c, v in aug[i].items():
            if v % d:
                return None
            q = v // d
            if q:
                y[(j, c)] = q
    for i in range(red.m):
        if i not in used and aug[i]:
            return None
    # X = V @ Y, with Y supported on pivot columns of the reduced matrix
    x: dict = {}
    for (j, c), q in y.items():
        for r, v in red.v_cols[j].items():
            key = (r, c)
            s = x.get(key, 0) + q * v
            if s:
                x[key] = s
            else:
                x.pop(key, None)
    return IntegerMatrix(a.cols, b.cols, x)


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

    Mod 2 this is a bitset elimination.  For odd m it counts the Smith
    invariants that m does not divide: U and V stay invertible mod m.
    """
    if m == 2:
        # bitset elimination
        rows = [0] * a.rows
        for (i, j), v in a.items():
            if v & 1:
                rows[i] |= 1 << j
        r = 0
        for col in range(a.cols):
            mask = 1 << col
            piv = None
            for i in range(r, a.rows):
                if rows[i] & mask:
                    piv = i
                    break
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(a.rows):
                if i != r and rows[i] & mask:
                    rows[i] ^= rows[r]
            r += 1
            if r == a.rows:
                break
        return r
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

def cohomology_at(d_in: IntegerMatrix, d_out: IntegerMatrix) -> FgAbelianGroup:
    """ker(d_out)/im(d_in) for maps Z^m --d_in--> Z^n --d_out--> Z^k.

    Requires d_out @ d_in = 0.  Uses the lattice fact that the torsion of
    ker/im equals the torsion of Z^n/im(d_in) (any class with a multiple in
    the image already lies in the kernel), so only ranks and the diagonal of
    d_in are needed.

    >>> print(cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1)))
    Z/2
    >>> z3 = IntegerMatrix.zeros(3, 0)
    >>> print(cohomology_at(z3, IntegerMatrix.zeros(0, 3)))
    Z^3
    """
    if d_in.rows != d_out.cols:
        raise ValueError(
            f"window mismatch: d_in lands in rank {d_in.rows}, d_out leaves rank {d_out.cols}")
    if not (d_out @ d_in).is_zero():
        raise ValueError("d_out @ d_in is not zero; not a complex at this spot")
    diag = snf_diagonal(d_in)
    free = d_in.rows - rank(d_out) - len(diag)
    if free < 0:
        raise ValueError("inconsistent ranks; input was not a complex")
    torsion = [d for d in diag if d != 1]
    group = FgAbelianGroup.from_cyclic_orders([0] * free + torsion)
    return group


def mod_m_cohomology_at(d_in: IntegerMatrix, d_out: IntegerMatrix, m: int) -> FgAbelianGroup:
    """Cohomology with Z/m coefficients (m prime): an elementary m-group.

    >>> print(mod_m_cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1), 2))
    Z/2
    """
    if not is_prime(m):
        raise ValueError(f"{m} is not prime")
    if d_in.rows != d_out.cols:
        raise ValueError("window mismatch in mod-m cohomology")
    comp = d_out @ d_in
    if any(v % m for _, v in comp.items()):
        raise ValueError("d_out @ d_in is not zero mod m")
    r = d_in.rows - rank_mod(d_out, m) - rank_mod(d_in, m)
    if r < 0:
        raise ValueError("inconsistent mod-m ranks")
    return FgAbelianGroup(0, (m,) * r)


# ----------------------------------------------------------------------
# Presentations and maps between cohomology groups
# ----------------------------------------------------------------------

@dataclass
class CohomologyPresentation:
    """A cohomology group with explicit canonical generators.

    ``kernel`` columns span ker(d_out) in chain coordinates;
    ``transform`` carries kernel coordinates to canonical coordinates in
    which the relation matrix is diag(orders); generator i survives in the
    canonical form iff orders[i] != 1 (0 marks a free generator).
    """

    group: FgAbelianGroup
    kernel: IntegerMatrix
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
    if any(v % m if m else v for _, v in (d_out @ d_in).items()):
        raise ValueError("d_out @ d_in is not zero" + (f" mod {m}" if m else ""))
    if m:
        n = d_in.rows
        k = _top_rows(kernel_basis(d_out.hstack(IntegerMatrix.identity(d_out.rows).scale(m))), n)
        d_in = d_in.hstack(IntegerMatrix.identity(n).scale(m))
    else:
        k = kernel_basis(d_out)
    x = solve(k, d_in)
    if x is None:
        raise ValueError("image does not lie in the kernel; not a complex")
    red = _Reduction(x, want_u=True)
    red.run()
    s = k.cols
    orders = [0] * s
    for t, (_, _, d) in enumerate(red.pivots):
        orders[t] = d
    u = red.matrix_u()
    uinv = red.matrix_u_inverse()
    surviving = tuple(i for i, o in enumerate(orders) if o != 1)
    grp = FgAbelianGroup.from_cyclic_orders([orders[i] for i in surviving])
    return CohomologyPresentation(grp, k, u, uinv, tuple(orders), surviving)


def map_on_cohomology(f: IntegerMatrix, source: CohomologyPresentation,
                      target: CohomologyPresentation) -> IntegerMatrix:
    """Matrix of the induced map on canonical generators.

    ``f`` is a chain-level map sending ker(d_out) of the source into the
    kernel at the target.  Torsion rows are reduced modulo their orders.
    """
    image = f @ source.kernel
    coords = solve(target.kernel, image)
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

    def group(self) -> FgAbelianGroup:
        return FgAbelianGroup.from_cyclic_orders([o for o in self.orders])


def congruent_mod_relations(m: IntegerMatrix, target: PresentedGroup) -> bool:
    for (i, _), v in m.items():
        o = target.orders[i]
        if (v % o) if o else v:
            return False
    return True


def kernel_lattice(f: IntegerMatrix, source: PresentedGroup, target: PresentedGroup) -> IntegerMatrix:
    """Generators (columns) of {x : f x = 0 in the target group} in Z^source."""
    k = kernel_basis(f.hstack(target.relation_matrix()))
    return _top_rows(k, source.size).hstack(source.relation_matrix())


def _top_rows(a: IntegerMatrix, n: int) -> IntegerMatrix:
    return IntegerMatrix(n, a.cols, {(i, j): v for (i, j), v in a.items() if i < n})


def lattice_contains(generators: IntegerMatrix, vectors: IntegerMatrix) -> bool:
    return solve(generators, vectors) is not None


def image_lattice(f: IntegerMatrix, source: PresentedGroup, target: PresentedGroup) -> IntegerMatrix:
    return f.hstack(target.relation_matrix())


def is_exact_at(f1: IntegerMatrix, f2: IntegerMatrix,
                a: PresentedGroup, b: PresentedGroup, c: PresentedGroup) -> bool:
    """Exactness of A --f1--> B --f2--> C at B (image = kernel)."""
    if not congruent_mod_relations(f2 @ f1, c):
        return False
    ker = kernel_lattice(f2, b, c)
    img = image_lattice(f1, a, b)
    return lattice_contains(img, ker)


def map_is_zero(f: IntegerMatrix, target: PresentedGroup) -> bool:
    return congruent_mod_relations(f, target)


def map_is_injective(f: IntegerMatrix, source: PresentedGroup, target: PresentedGroup) -> bool:
    ker = kernel_lattice(f, source, target)
    return lattice_contains(source.relation_matrix(), ker)


def map_is_surjective(f: IntegerMatrix, source: PresentedGroup, target: PresentedGroup) -> bool:
    img = image_lattice(f, source, target)
    return lattice_contains(img, IntegerMatrix.identity(target.size))


def map_is_multiplication_by(f: IntegerMatrix, n: int,
                             source: PresentedGroup, target: PresentedGroup) -> bool:
    if source.orders != target.orders:
        return False
    diff = f + IntegerMatrix.from_diagonal([-n] * source.size, source.size, source.size)
    return congruent_mod_relations(diff, target)
