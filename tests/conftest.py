"""Shared builders for randomized structural tests."""

from __future__ import annotations

import random

import pytest

from bredon import abgrp, chaincx


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
            pick(u_inv.transpose(), row_at, some_rows).transpose(), where
        assert red.matrix_v(some_cols) == pick(v.transpose(), col_at, some_cols).transpose(), where
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
                left_kernel = abgrp.kernel_basis(prev.transpose())
                coeffs = random_matrix(rng, rows, left_kernel.cols, emax)
                m = coeffs @ left_kernel.transpose()
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
        dc, dd = source.differential(d), target.differential(d)
        for i in range(target.rank(d + 1)):
            for j in range(source.rank(d)):
                row = {}
                for k in range(source.rank(d + 1)):
                    v = dc.entry(k, j)
                    if v:
                        key = var_index[(d + 1, i, k)]
                        row[key] = row.get(key, 0) + v
                for k in range(target.rank(d)):
                    v = dd.entry(i, k)
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


@pytest.fixture
def rng():
    return random.Random(20260809)
