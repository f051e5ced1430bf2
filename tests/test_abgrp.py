"""Smith normal form, canonical groups, and the two-step cohomology windows."""

import random
from itertools import combinations
from math import gcd

import pytest

from bredon import abgrp, chaincx
from bredon.abgrp import (
    FgAbelianGroup,
    IntegerMatrix,
    cohomology_at,
    cohomology_presentation,
    kernel_basis,
    map_on_cohomology,
    mod_m_cohomology_at,
    rank,
    rank_mod,
    smith_normal_form,
    snf_diagonal,
    solve,
    tensor_Z2_group,
    two_torsion_group,
)

from conftest import (
    assert_transforms,
    determinant,
    diagonal,
    kron,
    nnz,
    random_complex,
    rank_mod_oracle,
    tensor,
    tensor_group,
    tor_group,
    transpose,
)

Z = FgAbelianGroup.free(1)
Z2 = FgAbelianGroup.cyclic(2)
ZERO = FgAbelianGroup.zero()


def minors_gcd_oracle(a: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors, by direct expansion (independent of elimination)."""
    rows = a.to_rows()

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        return sum((-1) ** j * sub[0][j] * det([r[:j] + r[j + 1:] for r in sub[1:]])
                   for j in range(n))

    g = 0
    for ri in combinations(range(a.rows), k):
        for ci in combinations(range(a.cols), k):
            g = gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
    return g


def assert_snf_contract(a: IntegerMatrix):
    u, d, v = smith_normal_form(a)
    assert (u @ a) @ v == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = diagonal(d)
    for (i, j), value in d.items():
        assert i == j and value > 0
    for k in range(1, len(diag)):
        if diag[k - 1]:
            assert diag[k] % diag[k - 1] == 0
        else:
            assert diag[k] == 0
    # the diagonal matches the determinantal-divisor characterization
    prod = 1
    for k, dk in enumerate([x for x in diag if x], start=1):
        prod *= dk
        assert prod == abs(minors_gcd_oracle(a, k))


class TestSmithNormalForm:
    def test_one_by_one(self):
        u, d, v = smith_normal_form(IntegerMatrix.from_rows([[2]]))
        assert d.to_rows() == [[2]]
        assert u.to_rows() == [[1]] and v.to_rows() == [[1]]

    def test_identity(self):
        _, d, _ = smith_normal_form(IntegerMatrix.identity(2))
        assert d == IntegerMatrix.identity(2)

    def test_two_by_two(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        assert snf_diagonal(a) == [2, 4]
        assert_snf_contract(a)

    def test_memoised_diagonal_is_not_shared(self):
        a = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        first = snf_diagonal(a)
        first[0] = 0
        first.append(99)
        assert snf_diagonal(a) == [2, 4] and rank(a) == 2
        assert a == IntegerMatrix.from_rows([[2, 4], [6, 8]])

    def test_empty_shapes(self, rng):
        for a in (IntegerMatrix.zeros(0, 3), IntegerMatrix.zeros(3, 0), IntegerMatrix.zeros(0, 0)):
            u, d, v = smith_normal_form(a)
            assert (u.rows, v.cols) == (a.rows, a.cols)
            assert (u @ a) @ v == d
            assert_transforms(abgrp._reduce(a), rng)

    def test_random_contract(self, rng):
        for _ in range(150):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
            assert_snf_contract(a)
            assert_transforms(abgrp._reduce(a), rng, a)


class TestKernelAndSolve:
    def test_kernel_columns_lie_in_kernel(self, rng):
        for _ in range(80):
            r, c = rng.randint(0, 4), rng.randint(0, 4)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)], cols=c)
            k = kernel_basis(a)
            assert (a @ k).is_zero()
            assert rank(k) == k.cols
            assert k.cols == c - rank(a)

    def test_solve_recovers_images(self, rng):
        for _ in range(80):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
            y = IntegerMatrix.from_rows([[rng.randint(-4, 4)] for _ in range(c)])
            b = a @ y
            x = solve(a, b)
            assert x is not None and a @ x == b

    def test_solve_detects_insolubility(self):
        a = IntegerMatrix.from_rows([[2]])
        assert solve(a, IntegerMatrix.from_rows([[1]])) is None


def sparse_unimodular(rng: random.Random, n: int, ops: int) -> IntegerMatrix:
    """A product of ``ops`` elementary operations row_t += c * row_s, t in T, s in S.

    T and S split range(n) at random.  The source rows are never changed, so
    the operations commute and the product is I + N with N supported on
    T x S (N @ N = 0): unimodular and sparse.
    """
    idx = list(range(n))
    rng.shuffle(idx)
    sources, targets = idx[: n // 2], idx[n // 2:]
    d = {(i, i): 1 for i in range(n)}
    for _ in range(ops):
        key = (rng.choice(targets), rng.choice(sources))
        d[key] = d.get(key, 0) + rng.choice((-2, -1, 1, 2))
    return IntegerMatrix(n, n, d)


class TestKnownSmithFormAtScale:
    """A = P @ D @ Q with a chosen Smith form D, at production width."""

    M, N = 180, 200
    DIAGONAL = [1] * 100 + [2] * 40 + [6] * 20 + [12] * 10 + [0] * 10

    def factors(self, layers: int):
        """P, A = P @ D @ Q and two columns X, with P and Q products of ``layers`` sparse layers."""
        rng = random.Random(20261018)
        d = IntegerMatrix.from_diagonal(self.DIAGONAL, self.M, self.N)
        p, q = IntegerMatrix.identity(self.M), IntegerMatrix.identity(self.N)
        for _ in range(layers):
            p = p @ sparse_unimodular(rng, self.M, 2 * self.M)
        for _ in range(layers):
            q = q @ sparse_unimodular(rng, self.N, 2 * self.N)
        x = IntegerMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                                     for _ in range(self.N)])
        return p, p @ d @ q, x

    def test_diagonal_kernel_and_solve(self):
        self.check(*self.factors(1))

    def test_two_layers_per_side(self):
        # promoting remainders in place did not finish this within 60 s
        self.check(*self.factors(2))

    def check(self, p, a, x):
        k = kernel_basis(a)
        assert snf_diagonal(a) == [d for d in self.DIAGONAL if d]
        assert k.cols == self.N - rank(a) == 30
        assert (a @ k).is_zero()
        b = a @ x
        x2 = solve(a, b)
        assert x2 is not None and a @ x2 == b
        t = self.DIAGONAL.index(2)
        e_t = IntegerMatrix(self.M, 1, {(t, 0): 1})
        assert solve(a, p @ e_t) is None


def elementary_product(rng: random.Random, n: int, ops: int) -> IntegerMatrix:
    """A product of ``ops`` operations row_i += c * row_j on random pairs, c in {+-1, +-2}."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntegerMatrix.from_rows(rows)


def bits(a: IntegerMatrix) -> int:
    return max((abs(v).bit_length() for _, v in a.items()), default=0)


def bound_written_entries(monkeypatch, limit: int):
    """Fail every row or column operation of the engine that writes an entry above
    ``limit`` bits, so an entry blow-up fails at once instead of running for minutes."""
    def guard(name, written):
        operation = getattr(abgrp._Reduction, name)

        def checked(red, x, y, q):
            operation(red, x, y, q)
            peak = max((abs(v).bit_length() for v in written(red, x)), default=0)
            assert peak <= limit, f"{name} wrote a {peak}-bit entry"
        monkeypatch.setattr(abgrp._Reduction, name, checked)

    guard("_row_axpy", lambda red, k: red.rows[k].values())
    guard("_col_axpy", lambda red, l: [red.rows[i][l] for i in red.colnz[l]])


class TestNoEntryBlowUp:
    """Matrices with no small entries left, where the pivot rule used to blow up entries.

    Promoting a remainder in place ran Euclid on ever larger entries: on
    these families U and V reached tens of thousands of bits, or the run
    did not end.  Taking every pivot from the heap keeps them small.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_product_of_elementary_operations(self, seed, monkeypatch):
        bound_written_entries(monkeypatch, 64)
        rng = random.Random(20261018 + seed)
        diagonal = [1] * 20 + [2] * 5
        a = (elementary_product(rng, 30, 60) @ IntegerMatrix.from_diagonal(diagonal, 30, 35)
             @ elementary_product(rng, 35, 70))
        u, d, v = smith_normal_form(a)
        assert u @ a @ v == d and d == IntegerMatrix.from_diagonal(diagonal, 30, 35)
        assert max(bits(u), bits(v)) <= 64

    @pytest.mark.parametrize("n", [15, 20])
    def test_dense_random(self, n, monkeypatch):
        bound_written_entries(monkeypatch, 128)
        for seed in range(1, 11):
            rng = random.Random(seed)
            a = IntegerMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)]
                                         for _ in range(n)])
            u, d, v = smith_normal_form(a)
            assert u @ a @ v == d, seed
            diag = diagonal(d)
            assert all(x >= 0 for x in diag) and nnz(d) == sum(1 for x in diag if x), seed
            assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:])), seed
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1, seed


class TestCanonicalForm:
    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))

    def test_from_cyclic_orders(self):
        assert FgAbelianGroup.from_cyclic_orders([2, 3]) == FgAbelianGroup(0, (6,))
        assert FgAbelianGroup.from_cyclic_orders([4, 6]) == FgAbelianGroup(0, (2, 12))
        assert FgAbelianGroup.from_cyclic_orders([0, 1, 5]) == FgAbelianGroup(1, (5,))

    def test_rendering_and_json(self):
        g = FgAbelianGroup(2, (2, 4))
        assert g.render() == "Z^2 (+) Z/2 (+) Z/4"
        assert g.to_json() == {"rank": 2, "torsion": [2, 4]}
        assert ZERO.render() == "0"

    def test_tensor_and_tor_oracles(self):
        a = FgAbelianGroup.from_cyclic_orders([0, 4])
        assert tensor_group(a, a) == FgAbelianGroup.from_cyclic_orders([0, 4, 4, 4])
        assert tor_group(a, a) == FgAbelianGroup.cyclic(4)


class TestCohomologyAt:
    def test_single_two(self):
        # Z --2--> Z with nothing after: the quotient is Z/2
        h = cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1))
        assert h == Z2

    def test_zero_differentials(self):
        h = cohomology_at(IntegerMatrix.zeros(3, 0), IntegerMatrix.zeros(0, 3))
        assert h == FgAbelianGroup.free(3)

    def test_lattice_quotient(self):
        # oracle: {(a,-a)} / {(2c,-2c)} = Z/2
        d_in = IntegerMatrix.from_rows([[2], [-2]])
        d_out = IntegerMatrix.from_rows([[2, 2]])
        assert cohomology_at(d_in, d_out) == Z2

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            cohomology_at(IntegerMatrix.from_rows([[1]]), IntegerMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            cohomology_at(IntegerMatrix.zeros(2, 1), IntegerMatrix.zeros(1, 3))

    def test_raw_windows_are_checked_mod_m(self):
        one, three = IntegerMatrix.from_rows([[1]]), IntegerMatrix.from_rows([[3]])
        with pytest.raises(ValueError, match="not zero"):
            cohomology_at(one, three)
        with pytest.raises(ValueError, match="not zero mod 2"):
            mod_m_cohomology_at(one, three)
        with pytest.raises(ValueError, match="mismatch"):
            mod_m_cohomology_at(IntegerMatrix.zeros(2, 1), IntegerMatrix.zeros(1, 3))

    @staticmethod
    def _windows(rng):
        """(d_in, d_out, group): raw windows with their group from ``cohomology_at``,
        then every window of random complexes and their tensor squares with its
        group from ``chaincx.cohomology``, which sweeps each complex bottom up."""
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(0, 3)
            d_in = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)], cols=m)
            left_kernel = kernel_basis(transpose(d_in))
            k = rng.randint(0, 3)
            coeffs = IntegerMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(left_kernel.cols)] for _ in range(k)],
                cols=left_kernel.cols)
            d_out = coeffs @ transpose(left_kernel)
            yield d_in, d_out, cohomology_at(d_in, d_out)
        for _ in range(20):
            c = random_complex(rng, max_deg=3, max_rank=3, emax=2)
            for cx in (c, tensor(c, c)):
                lo, hi = cx.support()
                for n in filter(cx.rank, range(lo, hi + 1)):
                    yield cx.differential(n - 1), cx.differential(n), chaincx.cohomology(cx, n)

    def test_unimodular_invariance(self, rng):
        # conjugating both differentials by unimodular matrices keeps the form
        for d_in, d_out, h1 in self._windows(rng):
            n = d_in.rows
            p = IntegerMatrix.identity(n)
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    e = IntegerMatrix.identity(n) + IntegerMatrix(
                        n, n, {(i, j): rng.randint(-2, 2)})
                    p = p @ e
            p_inv = solve(p, IntegerMatrix.identity(n))
            assert cohomology_at(p @ d_in, d_out @ p_inv) == h1


class TestPresentation:
    def test_rejects_non_complexes_and_maps_off_the_cycles(self):
        one = IntegerMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match="not zero$"):
            cohomology_presentation(one, one)
        # H of Z alone is Z; in Z --1--> Z the middle has no cycles
        source = cohomology_presentation(IntegerMatrix.zeros(1, 0), IntegerMatrix.zeros(0, 1))
        target = cohomology_presentation(IntegerMatrix.zeros(1, 0), one)
        assert source.group == Z and target.group == ZERO
        with pytest.raises(ValueError, match="does not preserve kernels"):
            map_on_cohomology(one, source, target)


class TestModM:
    def test_two_reduction(self):
        h = mod_m_cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1))
        assert h == Z2

    def test_rank_two_zero_maps(self):
        h = mod_m_cohomology_at(IntegerMatrix.zeros(2, 0), IntegerMatrix.zeros(0, 2))
        assert h == FgAbelianGroup(0, (2, 2))

    def test_three_term_complex_middle(self):
        # the two-shift fixed-point complex at its middle degree, mod 2
        d_in = IntegerMatrix.from_rows([[1, 1], [-1, -1]])
        d_out = IntegerMatrix.from_rows([[2, 2]])
        assert mod_m_cohomology_at(d_in, d_out) == Z2

    def test_rank_mod_against_minors_oracle(self, rng):
        # rank over F_2 = largest k with 2 not dividing the gcd of the k x k minors
        for _ in range(120):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], cols=c)
            gcds = [minors_gcd_oracle(a, k) for k in range(1, min(r, c) + 1)]
            expected = max((k for k, g in enumerate(gcds, 1) if g % 2), default=0)
            assert rank_mod(a) == expected


def scattered(rng: random.Random, rows: int, cols: int, per_row: int) -> IntegerMatrix:
    """per_row entries from {-2, -1, 1, 2} at random columns of each row."""
    return IntegerMatrix(rows, cols, {
        (i, j): rng.choice((-2, -1, 1, 2))
        for i in range(rows) for j in rng.sample(range(cols), min(per_row, cols))})


def uniform(rng: random.Random, rows: int, cols: int) -> IntegerMatrix:
    """Every entry drawn from {0, -1, 1, -2, 2}."""
    return IntegerMatrix.from_rows(
        [[rng.choice((0, -1, 1, -2, 2)) for _ in range(cols)] for _ in range(rows)], cols=cols)


class TestRankModTwoAtScale:
    """The bitset kernel of rank_mod(a) against the sparse echelon oracle,
    at the column counts of the orbit differentials; even entries must drop
    out, and products through a narrow middle give long dependent chains."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse(self, seed):
        rng = random.Random(seed)
        cols = rng.randint(500, 640)
        cases = [scattered(rng, rng.randint(200, 500), cols, rng.randint(1, 4)),
                 scattered(rng, 300, 20 + seed * 30, 2) @ scattered(rng, 20 + seed * 30, cols, 3)]
        for a in cases + [transpose(a) for a in cases]:
            assert rank_mod(a) == rank_mod_oracle(a, 2), (seed, a.rows, a.cols)

    def test_dense(self):
        rng = random.Random(100)
        cases = [uniform(rng, 80, 600), uniform(rng, 400, 120),
                 uniform(rng, 200, 25) @ uniform(rng, 25, 560)]
        for a in cases + [transpose(a) for a in cases]:
            assert rank_mod(a) == rank_mod_oracle(a, 2), (a.rows, a.cols)


class TestTwoPrimaryFunctors:
    def test_basic_rules(self):
        assert tensor_Z2_group(Z) == Z2
        assert two_torsion_group(Z) == ZERO
        assert tensor_Z2_group(Z2) == Z2
        assert two_torsion_group(Z2) == Z2

    def test_mixed_group(self):
        g = FgAbelianGroup.from_cyclic_orders([0, 4])
        assert tensor_Z2_group(g) == FgAbelianGroup(0, (2, 2))
        assert two_torsion_group(g) == Z2

    def test_rank_identity_on_random_groups(self, rng):
        # rank(G (x) Z/2) = rank(2-torsion) + free rank, per-factor oracle
        for _ in range(60):
            orders = [rng.choice([0, 0, 2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(0, 5))]
            g = FgAbelianGroup.from_cyclic_orders(orders)
            t = tensor_Z2_group(g)
            s = two_torsion_group(g)
            assert len(t.invariant_factors) == len(s.invariant_factors) + g.free_rank


def dense(rng: random.Random, r: int, c: int, density: float = 0.5) -> list:
    return [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)]


def dense_matmul(a: list, b: list, inner: int, cols: int) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


class TestMatrixAlgebraAgainstDenseOracle:
    """Every IntegerMatrix operation against the same operation on lists of lists."""

    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 3)]

    def shapes(self, rng):
        return self.SHAPES + [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(30)]

    def test_construction_and_access(self, rng):
        for r, c in self.shapes(rng):
            rows = dense(rng, r, c)
            a = IntegerMatrix.from_rows(rows, cols=c)
            nonzero = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
            assert (a.rows, a.cols) == (r, c)
            assert a.to_rows() == rows
            assert IntegerMatrix(r, c, nonzero) == a
            assert dict(a.items()) == nonzero and len(list(a.items())) == len(nonzero)
            assert a.is_zero() == (not nonzero)

    def test_zero_entries_are_dropped(self):
        a = IntegerMatrix(2, 2, {(0, 0): 0, (1, 0): 3})
        assert dict(a.items()) == {(1, 0): 3}
        assert IntegerMatrix(2, 2, {(0, 1): 0}).is_zero()
        assert IntegerMatrix(2, 2, {(0, 1): 0}) == IntegerMatrix.zeros(2, 2)

    def test_unary_operations(self, rng):
        for r, c in self.shapes(rng):
            rows = dense(rng, r, c)
            a = IntegerMatrix.from_rows(rows, cols=c)
            assert (-a).to_rows() == [[-v for v in row] for row in rows]
            for k in (-3, -1, 0, 1, 2):
                s = a.scale(k)
                assert s.to_rows() == [[k * v for v in row] for row in rows]
                assert nnz(s) == (0 if k == 0 else nnz(a))
            # the tests' transpose oracle
            t = transpose(a)
            assert (t.rows, t.cols) == (c, r)
            assert t.to_rows() == [[rows[i][j] for i in range(r)] for j in range(c)]
            assert transpose(t) == a

    def test_binary_operations(self, rng):
        for r, c in self.shapes(rng):
            x, y = dense(rng, r, c), dense(rng, r, c)
            a, b = IntegerMatrix.from_rows(x, cols=c), IntegerMatrix.from_rows(y, cols=c)
            total = a + b
            assert total.to_rows() == [[u + v for u, v in zip(p, q)] for p, q in zip(x, y)]
            assert nnz(total) == sum(1 for row in total.to_rows() for v in row if v)
            assert (a + (-a)).is_zero() and a + (-a) == IntegerMatrix.zeros(r, c)
            assert (a == b) == (x == y) and a == IntegerMatrix.from_rows(x, cols=c)
            k = rng.randint(0, 4)
            z = dense(rng, r, k)
            zm = IntegerMatrix.from_rows(z, cols=k)
            h = IntegerMatrix.from_bands(c + k, [(r, [(0, a), (c, zm)])])
            assert (h.rows, h.cols) == (r, c + k)
            assert h.to_rows() == [p + q for p, q in zip(x, z)]
            # [[a, z], [0, z]] with the zero block left out, then no blocks at all
            blocks = IntegerMatrix.from_bands(c + k, [(r, [(0, a), (c, zm)]), (r, [(c, zm)])])
            assert blocks.to_rows() == h.to_rows() + [[0] * c + q for q in z]
            assert list(blocks.items()) == sorted(blocks.items())  # blocks in column order
            assert IntegerMatrix.from_bands(c, [(r, []), (k, [])]) == IntegerMatrix.zeros(r + k, c)
            # each row lists its entries source by source, in the order given
            swapped = IntegerMatrix.from_bands(c + k, [(r, [(c, zm), (0, a)])])
            assert swapped == h
            assert list(swapped.items()) == [((i, j), v) for i in range(r) for j, v in
                                             [*((c + j, v) for j, v in enumerate(z[i]) if v),
                                              *((j, v) for j, v in enumerate(x[i]) if v)]]
            # the Kronecker oracle of the tests' tensor product
            product = kron(a, zm)
            assert (product.rows, product.cols) == (r * r, c * k)
            assert product.to_rows() == [[u * v for u in p for v in q] for p in x for q in z]
            for inner_cols in (0, 1, rng.randint(2, 5)):
                w = dense(rng, c, inner_cols)
                prod = a @ IntegerMatrix.from_rows(w, cols=inner_cols)
                assert (prod.rows, prod.cols) == (r, inner_cols)
                assert prod.to_rows() == dense_matmul(x, w, c, inner_cols)
                assert nnz(prod) == sum(1 for row in prod.to_rows() for v in row if v)

    def test_product_that_cancels(self):
        a = IntegerMatrix.from_rows([[1, 1], [2, 2], [0, 0]])
        b = IntegerMatrix.from_rows([[3, -1, 0], [-3, 1, 0]])
        prod = a @ b
        assert prod.is_zero() and list(prod.items()) == []
        assert prod == IntegerMatrix.zeros(3, 3) and snf_diagonal(prod) == []

    def test_product_rows_list_keys_as_the_scaled_sums_insert_them(self, rng):
        # the pivot paths of the engine follow each row's key order, so a
        # product must list its keys as adding the scaled rows one by one
        # (abgrp._add_scaled) inserts them: a key that cancels and comes back
        # moves to the end, and a row of one entry is a copy or a multiple
        def reference(a, b):
            rows_b = row_dicts(b)
            out = []
            for row in row_dicts(a):
                acc = {}
                for k, v in row.items():
                    abgrp._add_scaled(acc, rows_b[k], v)
                out.append(acc)
            return [((i, j), v) for i, row in enumerate(out) for j, v in row.items()]

        def row_dicts(a):
            rows = [{} for _ in range(a.rows)]
            for (i, j), v in a.items():
                rows[i][j] = v
            return rows

        a = IntegerMatrix.from_rows([[1, 1, 1], [0, 3, 0], [0, 0, -2], [0, 0, 0]])
        b = IntegerMatrix(3, 3, {(0, 2): 1, (0, 0): 1, (1, 1): 2, (1, 0): -1, (2, 0): 5})
        prod = a @ b
        assert list(prod.items()) == reference(a, b) == [
            ((0, 2), 1), ((0, 1), 2), ((0, 0), 5), ((1, 1), 6), ((1, 0), -3), ((2, 0), -10)]
        def shuffled(rows, cols):
            # keys in a random order, so that no row's order is sorted by accident
            entries = [((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
            rng.shuffle(entries)
            return IntegerMatrix(len(rows), cols, dict(entries))

        for _ in range(200):
            r, inner, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            x = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(inner)] for _ in range(r)]
            y = [[rng.choice((0, 1, -1, 1, -1)) for _ in range(c)] for _ in range(inner)]
            a, b = shuffled(x, inner), shuffled(y, c)
            prod = a @ b
            assert prod.to_rows() == dense_matmul(x, y, inner, c)
            assert list(prod.items()) == reference(a, b)

    def test_equality_ignores_the_memo_and_checks_shape(self):
        a, b = IntegerMatrix.from_rows([[2, 4], [6, 8]]), IntegerMatrix.from_rows([[2, 4], [6, 8]])
        snf_diagonal(a)
        assert a == b
        assert IntegerMatrix.zeros(0, 3) != IntegerMatrix.zeros(3, 0)
        assert IntegerMatrix.zeros(2, 3) != IntegerMatrix.zeros(2, 2)

    def test_shape_errors(self):
        a = IntegerMatrix.zeros(2, 3)
        for bad in (lambda: a @ a, lambda: a + IntegerMatrix.zeros(3, 2),
                    lambda: IntegerMatrix.from_rows([[1, 2], [3]])):
            with pytest.raises(ValueError):
                bad()

    @pytest.mark.parametrize("bands, message", [
        ([(2, [(0, IntegerMatrix.zeros(3, 1))])],
         "band 0: a block of height 3 at columns 0..0 does not fit height 2 and columns 0..3"),
        ([(1, []), (2, [(-1, IntegerMatrix.identity(2))])],
         "band 1: a block of height 2 at columns -1..0 does not fit height 2 and columns 0..3"),
        ([(2, [(3, IntegerMatrix.identity(2))])],
         "band 0: a block of height 2 at columns 3..4 does not fit height 2 and columns 0..3"),
        ([(2, [(0, IntegerMatrix.identity(2)), (1, IntegerMatrix.identity(2))])],
         "band 0: two blocks overlap at column 1"),
        ([(2, [(2, IntegerMatrix.identity(2)), (0, IntegerMatrix.zeros(2, 3))])],
         "band 0: two blocks overlap at column 2"),
    ])
    def test_from_bands_refuses_a_block_that_does_not_fit(self, bands, message):
        # a block of the wrong height, one that starts before column 0, one
        # that ends past the last column and two that overlap, the second
        # pair given right to left
        with pytest.raises(ValueError) as err:
            IntegerMatrix.from_bands(4, bands)
        assert str(err.value) == message

    def test_from_rows_refuses_cols_that_disagree_with_its_rows(self):
        # this used to return a 1x2 matrix
        with pytest.raises(ValueError, match=r"^rows of length 2 disagree with cols=3$"):
            IntegerMatrix.from_rows([[1, 2]], cols=3)
        assert IntegerMatrix.from_rows([[1, 2]], cols=2).cols == 2
        assert IntegerMatrix.from_rows([], cols=3).cols == 3

    @pytest.mark.parametrize("key", [(-1, 0), (0, 7), (2, 0), (0, -1)])
    def test_constructor_rejects_keys_outside_the_shape(self, key):
        # (-1, 0) used to land in the last row, (0, 7) to stay outside the shape
        # (so repr raised IndexError), and (2, 0) to raise a bare IndexError
        with pytest.raises(ValueError, match="entry index out of range"):
            IntegerMatrix(2, 2, {key: 5})


class TestPivotHeapInvariant:
    """Every entry of a live row keeps a heap candidate with its current |v|.

    The pivot search only sees entries through the heap, so an entry without
    such a candidate could never become a pivot.  The heap is built by
    ``run`` after the collapse of free faces, so the first check runs when it
    is built (then every candidate's cost is exact) and the next after every
    row and column operation and negation from then on.
    """

    def test_after_every_row_and_column_operation(self, rng, monkeypatch):
        from bredon import abgrp

        def missing(red) -> list:
            candidates = {(a, i, j) for a, _, i, j in red.heap}
            return [(i, j, v) for i in red.live_rows for j, v in red.rows[i].items()
                    if (abs(v), i, j) not in candidates]

        def inexact(red) -> list:
            return [(a, cost, i, j) for a, cost, i, j in red.heap
                    if i not in red.live_rows or abs(red.rows[i].get(j, 0)) != a
                    or cost != (len(red.rows[i]) - 1) * (len(red.colnz[j]) - 1)]

        violations, calls, built = [], [0], set()  # the reductions whose heap exists

        def checked(name):
            operation = getattr(abgrp._Reduction, name)

            def wrapper(red, *args):
                operation(red, *args)
                if name == "_build_heap":
                    built.add(red)
                    violations.extend(("inexact",) + v for v in inexact(red))
                elif red not in built:
                    return  # a collapse, before any heap exists
                calls[0] += 1
                violations.extend((name,) + v for v in missing(red))
            monkeypatch.setattr(abgrp._Reduction, name, wrapper)

        for name in ("_build_heap", "_row_axpy", "_col_axpy", "_negate_row"):
            checked(name)
        for t in range(80):
            r, c = rng.randint(1, 9), rng.randint(1, 9)
            if t % 4:
                a = IntegerMatrix.from_rows([[rng.randint(-6, 6) for _ in range(c)]
                                             for _ in range(r)])
            else:
                a = collapse_heavy(rng, 3 * r, 3 * c)
            red = abgrp._Reduction(a)
            red.run()
            assert red in built
            assert sorted(abs(p) for _, _, p in red.pivots) == snf_diagonal(a)
        assert calls[0] > 500 and violations == []


def collapse_heavy(rng: random.Random, rows: int, cols: int, lone: float = 0.3) -> IntegerMatrix:
    """Sparse rows, about ``lone`` of them a single +-1 and the rest two to
    four entries, mostly +-1: each free face taken leaves rows with one
    entry fewer, so the collapse cascades."""
    out = []
    for _ in range(rows):
        if rng.random() < lone:
            out.append({rng.randrange(cols): rng.choice((1, -1))})
        else:
            picked = rng.sample(range(cols), min(cols, rng.randint(2, 4)))
            out.append({j: rng.choice((1, -1, 1, -1, 2, -2, 3)) for j in picked})
    return IntegerMatrix.from_row_dicts(out, cols)


def is_lone_unit(row: dict) -> bool:
    return len(row) == 1 and next(iter(row.values())) in (1, -1)


def replay_collapse(a: IntegerMatrix) -> abgrp._Reduction:
    """Run the collapse of a reduction of A and replay its log on a copy of A.

    Before each collapse pivot (i, j), row i of the copy must be a lone +-1
    at column j, and i the smallest live row that is one; the pivot's
    logged operations must leave column j empty but for row i = {j: 1}.
    After the collapse no live row may be a lone +-1.
    """
    red = abgrp._Reduction(a)
    red._collapse()
    rows, live = [{} for _ in range(a.rows)], set(range(a.rows))
    for (i, j), v in a.items():
        rows[i][j] = v
    ops = iter(red.row_ops)
    op = next(ops, None)
    assert red.collapses == len(red.pivots)
    for i, j, d in red.pivots:
        assert d == 1 and set(rows[i]) == {j} and is_lone_unit(rows[i]), (i, j, rows[i])
        assert i == min(k for k in live if is_lone_unit(rows[k])), i
        while op is not None and op[1] == i:
            k, _, q = op
            if k == i:
                rows[i] = {c: -v for c, v in rows[i].items()}
            else:
                for c, v in rows[i].items():
                    s = rows[k].get(c, 0) - q * v
                    if s:
                        rows[k][c] = s
                    else:
                        rows[k].pop(c, None)
            op = next(ops, None)
        live.discard(i)
        assert rows[i] == {j: 1} and not any(j in rows[k] for k in live), (i, j)
    assert op is None and live == red.live_rows
    assert all(rows[k] == red.rows[k] for k in live)
    assert not [k for k in live if is_lone_unit(rows[k])]
    return red


class TestCollapse:
    """The free faces that ``run`` takes before it builds its heap."""

    def test_collapse_pivots_are_lone_units_in_ascending_row_order(self, rng):
        taken = 0
        for size in (5, 20, 60, 200):
            for _ in range(6):
                red = replay_collapse(collapse_heavy(rng, size, size + rng.randint(-3, 10)))
                taken += red.collapses
        assert taken > 500

    def test_no_live_row_is_a_lone_unit_after_the_collapse(self):
        # a cascade: each free face leaves the row below it a lone +-1
        n = 40
        rows = [{0: -1}] + [{k - 1: 1, k: (-1) ** k} for k in range(1, n)]
        red = replay_collapse(IntegerMatrix.from_row_dicts(rows, n))
        assert red.collapses == n and not red.live_rows
        assert [i for i, _, _ in red.pivots] == list(range(n))
        # a lone 2 is no free face, and neither is a row that is left with one
        red = replay_collapse(IntegerMatrix.from_rows([[2, 0, 0], [1, 1, 0], [0, 1, 1]]))
        assert red.collapses == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_and_transforms_against_rank_oracles(self, seed):
        rng = random.Random(20261019 + seed)
        rows, cols = rng.randint(150, 450), rng.randint(200, 600)
        a = collapse_heavy(rng, rows, cols)
        red = replay_collapse(a)
        assert red.collapses > rows // 4
        red = abgrp._reduce(a)
        diag = [d for _, _, d in red.pivots]
        assert red.matrix_u() @ a @ red.matrix_v() == red.matrix_d()
        assert_transforms(red, rng, seed)
        assert all(d > 0 for d in diag)
        assert sorted(diag) == snf_diagonal(a)
        for ell in (2, 3, 5):
            assert sum(1 for d in diag if d % ell) == rank_mod_oracle(a, ell), ell
        assert len(diag) == rank_mod_oracle(a, 1_000_003)

    def test_known_smith_form_with_free_faces(self):
        # A = P @ D @ Q with sparse unimodular P and Q: the rows of Q that no
        # operation touched make every row of A above a 1 of D a free face
        rng = random.Random(20261019)
        m, n = 300, 420
        diagonal = [1] * 200 + [2] * 50 + [6] * 20 + [0] * 30
        a = (sparse_unimodular(rng, m, m) @ IntegerMatrix.from_diagonal(diagonal, m, n)
             @ sparse_unimodular(rng, n, n))
        red = abgrp._reduce(a)
        assert red.collapses > 50
        assert [d for _, _, d in red.pivots][:red.collapses] == [1] * red.collapses
        assert snf_diagonal(a) == [d for d in diagonal if d]
        assert red.matrix_u() @ a @ red.matrix_v() == red.matrix_d()
        assert_transforms(red, rng)

    def test_small_cases_against_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
        from sympy.polys.domains import ZZ
        for _ in range(40):
            a = collapse_heavy(rng, rng.randint(1, 7), rng.randint(1, 7), lone=0.4)
            d = sympy_snf(sympy.Matrix(a.to_rows()), domain=ZZ)
            expected = [abs(int(d[k, k])) for k in range(min(d.shape)) if d[k, k]]
            assert snf_diagonal(a) == expected, a
            assert_snf_contract(a)

    def test_fill_of_the_morse_maps(self):
        # taking the free faces in ascending row order keeps f sparse: 553
        # nonzeros over the sweep of the fixed complex at shift 9, where a
        # stack of lone rows (last pushed, first taken) gives 2,459
        from bredon.sigmacx import FIXED, SigmaSpec, build_sigma_complex
        c = build_sigma_complex(SigmaSpec(9, FIXED))
        lo, hi = c.support()
        swept = c._record().sweep(hi - lo)
        assert sum(map(nnz, swept.f)) <= 600
        assert all(0 <= faces <= units for faces, units in zip(swept.faces, swept.units))
        assert sum(swept.faces) > 0.75 * sum(swept.units)


def torsion_count(orders, d: int) -> int:
    """|G[d]|, the number of x with d x = 0, of the sum of Z/o over nonzero orders o."""
    count = 1
    for o in orders:
        if o:
            count *= gcd(d, o)
    return count


class TestCanonicalFormWithoutFactoring:
    def test_large_orders_return(self):
        m31, m61 = 2 ** 31 - 1, 2 ** 61 - 1
        assert FgAbelianGroup.cyclic(m31 ** 2).invariant_factors == (m31 ** 2,)
        assert FgAbelianGroup.cyclic(m61) == FgAbelianGroup(0, (m61,))
        assert FgAbelianGroup.from_cyclic_orders([m61, m31, 0, m61]) == \
            FgAbelianGroup(1, (m61, m31 * m61))
        window = cohomology_at(IntegerMatrix.from_rows([[m61]]), IntegerMatrix.zeros(0, 1))
        assert window == FgAbelianGroup.cyclic(m61)

    def test_torsion_counts_oracle(self, rng):
        # |G[d]| and the free rank determine G; neither the factoring nor the
        # gcd/lcm sweep is used to compute them
        for _ in range(300):
            orders = [rng.choice([0, rng.randint(1, 60)]) for _ in range(rng.randint(0, 8))]
            g = FgAbelianGroup.from_cyclic_orders(orders)
            assert g.free_rank == orders.count(0)
            for d in range(1, 61):
                assert torsion_count(g.invariant_factors, d) == torsion_count(orders, d)
