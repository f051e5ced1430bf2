"""Shared builders for randomized structural tests, and the oracles that
only tests need: matrix transposes, Kronecker products and entry counts read
through ``items()``, the tensor product of complexes, the Euler
characteristic, and the Kuenneth/UCT group functors."""

from __future__ import annotations

import random
from math import gcd

import pytest

from bredon import abgrp, chaincx


def transpose(a: abgrp.IntegerMatrix) -> abgrp.IntegerMatrix:
    return abgrp.IntegerMatrix(a.cols, a.rows, {(j, i): v for (i, j), v in a.items()})


def nnz(a: abgrp.IntegerMatrix) -> int:
    return sum(1 for _ in a.items())


def diagonal(a: abgrp.IntegerMatrix) -> list:
    entries = dict(a.items())
    return [entries.get((i, i), 0) for i in range(min(a.rows, a.cols))]


def kron(a: abgrp.IntegerMatrix, b: abgrp.IntegerMatrix) -> abgrp.IntegerMatrix:
    """The Kronecker product: row (i, k) and column (j, l), with the index
    of ``a`` major, hold a[i, j] * b[k, l]."""
    return abgrp.IntegerMatrix(
        a.rows * b.rows, a.cols * b.cols,
        {(i * b.rows + k, j * b.cols + l): x * y
         for (i, j), x in a.items() for (k, l), y in b.items()})


def two_term_complex(n: int, low: int = -1) -> chaincx.CochainComplex:
    """Z --n--> Z on degrees (low, low+1)."""
    return chaincx.CochainComplex({low: 1, low + 1: 1},
                                  {low: abgrp.IntegerMatrix.from_rows([[n]])})


def euler_characteristic(c: chaincx.CochainComplex) -> int:
    return sum((-1) ** (d % 2) * r for d, r in c.components.items())


def _tensor_blocks(c: chaincx.CochainComplex, d: chaincx.CochainComplex, n: int) -> list:
    """Summands (p, q) with p+q = n, in decreasing order of p."""
    return [(p, n - p) for p in sorted(c.components, reverse=True) if d.rank(n - p)]


def tensor(c: chaincx.CochainComplex, d: chaincx.CochainComplex) -> chaincx.CochainComplex:
    """The tensor product complex with the Koszul sign rule, validated when built.

    d(x (x) y) = dx (x) y + (-1)^p x (x) dy for x of degree p.  The summands
    C^p (x) D^q at total degree n are concatenated in decreasing order of p,
    each summand's basis in the Kronecker order (the C-index major), so d^n
    has the blocks d_C (x) 1 from C^p (x) D^q to C^(p+1) (x) D^q and
    (-1)^p 1 (x) d_D to C^p (x) D^(q+1).
    """
    blocks = {p + q: _tensor_blocks(c, d, p + q) for p in c.components for q in d.components}
    sizes = {n: [c.rank(p) * d.rank(q) for p, q in bl] for n, bl in blocks.items()}
    diffs = {}
    for n in sorted(blocks):
        at = {pq: r for r, pq in enumerate(blocks.get(n + 1, []))}
        bands = [(size, []) for size in sizes.get(n + 1, [])]
        off = 0
        for (p, q), size in zip(blocks[n], sizes[n]):
            dc, dd = c.differentials.get(p), d.differentials.get(q)
            if dc is not None:
                bands[at[p + 1, q]][1].append(
                    (off, kron(dc, abgrp.IntegerMatrix.identity(d.rank(q)))))
            if dd is not None:
                ones = abgrp.IntegerMatrix.identity(c.rank(p))
                bands[at[p, q + 1]][1].append((off, kron(ones, -dd if p % 2 else dd)))
            off += size
        diffs[n] = abgrp.IntegerMatrix.from_bands(off, bands)
    return chaincx.CochainComplex({n: sum(s) for n, s in sizes.items()}, diffs)


def random_matrix(rng: random.Random, rows: int, cols: int, emax: int) -> abgrp.IntegerMatrix:
    return abgrp.IntegerMatrix.from_rows(
        [[rng.randint(-emax, emax) for _ in range(cols)] for _ in range(rows)], cols=cols)


def assert_transforms(red: abgrp._Reduction, rng: random.Random, where=None):
    """U^-1 and V^-1 invert U and V, and U, U^-1, V and V^-1 built on random
    subsets of rows or columns, asked for by original index in a random
    order, are the matching rows or columns of the whole transforms."""
    rows, cols = red.row_order(), red.col_order()
    u, u_inv, v, v_inv = (red.matrix_u(), red.matrix_u_inverse(), red.matrix_v(),
                          red.matrix_v_inverse(cols))
    assert u @ u_inv == abgrp.IntegerMatrix.identity(red.m), where
    assert v @ v_inv == abgrp.IntegerMatrix.identity(red.n), where
    row_at = {i: t for t, i in enumerate(rows)}
    col_at = {j: t for t, j in enumerate(cols)}

    def pick(a, at, keep):
        to = {at[i]: s for s, i in enumerate(keep)}
        return abgrp.IntegerMatrix(
            len(keep), a.cols, {(to[t], j): v for (t, j), v in a.items() if t in to})

    for _ in range(3):
        some_rows = rng.sample(rows, rng.randint(0, len(rows)))
        some_cols = rng.sample(cols, rng.randint(0, len(cols)))
        assert red.matrix_u(some_rows) == pick(u, row_at, some_rows), where
        assert red.matrix_u_inverse(some_rows) == \
            transpose(pick(transpose(u_inv), row_at, some_rows)), where
        assert red.matrix_v(some_cols) == transpose(pick(transpose(v), col_at, some_cols)), where
        assert red.matrix_v_inverse(some_cols) == pick(v_inv, col_at, some_cols), where


def random_complex(rng: random.Random, max_deg: int = 2, max_rank: int = 3,
                   emax: int = 3) -> chaincx.CochainComplex:
    """A random bounded complex, valid by construction.

    Each differential after the first is drawn from the left kernel of its
    predecessor, so d.d = 0 holds exactly.
    """
    comps = {d: rng.randint(0, max_rank) for d in range(-max_deg, 1)}
    comps = {d: r for d, r in comps.items() if r}
    diffs = {}
    prev = None
    for d in sorted(comps):
        if d + 1 in comps:
            rows, cols = comps[d + 1], comps[d]
            m = random_matrix(rng, rows, cols, emax)
            if prev is not None:
                left_kernel = abgrp.kernel_basis(transpose(prev))
                coeffs = random_matrix(rng, rows, left_kernel.cols, emax)
                m = coeffs @ transpose(left_kernel)
            diffs[d] = m
            prev = m
        else:
            prev = None
    return chaincx.CochainComplex(comps, diffs)


def random_chain_map(rng: random.Random, source: chaincx.CochainComplex,
                     target: chaincx.CochainComplex, emax: int = 2) -> chaincx.ChainMap:
    """A random chain map, found inside the integer kernel of the commuting
    constraints."""
    degs = sorted(set(source.components) | set(target.components))
    var_index = {}
    nv = 0
    for d in degs:
        for i in range(target.rank(d)):
            for j in range(source.rank(d)):
                var_index[(d, i, j)] = nv
                nv += 1
    constraints = []
    for d in degs:
        dc, dd = source.differential(d).to_rows(), target.differential(d).to_rows()
        for i in range(target.rank(d + 1)):
            for j in range(source.rank(d)):
                row = {}
                for k in range(source.rank(d + 1)):
                    v = dc[k][j]
                    if v:
                        key = var_index[(d + 1, i, k)]
                        row[key] = row.get(key, 0) + v
                for k in range(target.rank(d)):
                    v = dd[i][k]
                    if v:
                        key = var_index[(d, k, j)]
                        row[key] = row.get(key, 0) - v
                if row:
                    constraints.append(row)
    a = abgrp.IntegerMatrix(len(constraints), nv,
                            {(r, c): v for r, row in enumerate(constraints)
                             for c, v in row.items()})
    kernel = abgrp.kernel_basis(a)
    sol = [0] * nv
    if kernel.cols:
        weights = [rng.randint(-emax, emax) for _ in range(kernel.cols)]
        for (i, j), v in kernel.items():
            sol[i] += v * weights[j]
    maps = {}
    for d in degs:
        entries = {}
        for i in range(target.rank(d)):
            for j in range(source.rank(d)):
                v = sol[var_index[(d, i, j)]]
                if v:
                    entries[(i, j)] = v
        if entries:
            maps[d] = abgrp.IntegerMatrix(target.rank(d), source.rank(d), entries)
    return chaincx.ChainMap(source, target, maps)


def _echelon_rows(rows: list, ell: int) -> list:
    """The indices of the rows (dicts column -> value mod ell) that are not in
    the span of the rows before them, by sparse row echelon form.

    Each stored row is monic at its lowest column and keyed by it; a row is
    reduced by the stored row at its lowest column until it is zero or has a
    lowest column no stored row has.  The stored rows' indices are a row
    basis of the matrix.
    """
    echelon, kept = {}, []
    for i, row in enumerate(rows):
        while row:
            low = min(row)
            if low not in echelon:
                inv = pow(row[low], -1, ell)
                echelon[low] = {j: v * inv % ell for j, v in row.items()}
                kept.append(i)
                break
            c = row[low]
            for j, v in echelon[low].items():
                s = (row.get(j, 0) - c * v) % ell
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
    return kept


def _rows_mod(a: abgrp.IntegerMatrix, ell: int, drop=frozenset()) -> list:
    rows = [dict() for _ in range(a.rows)]
    for (i, j), v in a.items():
        if v % ell and j not in drop:
            rows[i][j] = v % ell
    return rows


def rank_mod_oracle(a: abgrp.IntegerMatrix, ell: int) -> int:
    """Rank over Z/ell of the whole matrix, independent of the engine."""
    return len(_echelon_rows(_rows_mod(a, ell), ell))


def swept_ranks_oracle(c: chaincx.CochainComplex, ell: int) -> dict:
    """The rank over Z/ell of each differential of c, from the lowest degree up.

    Over a field, if R is a row basis of d^k then C^(k+1) is im(d^k) plus
    the span of the e_j with j not in R, and d^(k+1) kills im(d^k); so d^(k+1)
    has the rank of its columns outside R.  A row basis of the trimmed d^k is
    one of d^k, so each differential is ranked without the columns that were
    basis rows of the one below.
    """
    lo, hi = c.support()
    ranks, basis = {}, frozenset()
    for k in range(lo, hi + 1):
        a = c.differential(k)
        basis = frozenset(_echelon_rows(_rows_mod(a, ell, basis), ell))
        ranks[k] = len(basis)
    return ranks


def determinant(a: abgrp.IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination, the
    unimodularity oracle for the transforms U and V."""
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


def _cyclic_orders(g: abgrp.FgAbelianGroup) -> list:
    return [0] * g.free_rank + list(g.invariant_factors)


def tensor_group(g: abgrp.FgAbelianGroup, h: abgrp.FgAbelianGroup) -> abgrp.FgAbelianGroup:
    """G (x) H over Z, via gcds of cyclic orders: the Kuenneth and UCT oracle."""
    orders = []
    for a in _cyclic_orders(g):
        for b in _cyclic_orders(h):
            orders.append(gcd(a, b) if a and b else a or b)  # Z (x) Z/b = Z/b, Z (x) Z = Z
    return abgrp.FgAbelianGroup.from_cyclic_orders(orders)


def tor_group(g: abgrp.FgAbelianGroup, h: abgrp.FgAbelianGroup) -> abgrp.FgAbelianGroup:
    """Tor(G, H): only torsion parts interact, again via gcds."""
    return abgrp.FgAbelianGroup.from_cyclic_orders(
        gcd(a, b) for a in g.invariant_factors for b in h.invariant_factors)


def two_primary_part(g: abgrp.FgAbelianGroup) -> abgrp.FgAbelianGroup:
    """The 2-primary part of the torsion of G."""
    orders = []
    for f in g.invariant_factors:
        two = 1
        while f % 2 == 0:
            two *= 2
            f //= 2
        orders.append(two)
    return abgrp.FgAbelianGroup.from_cyclic_orders(orders)


@pytest.fixture
def rng():
    return random.Random(20260809)
