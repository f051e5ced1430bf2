"""Smith normal form, canonical groups, and the two-step cohomology windows."""

import random
from itertools import combinations
from math import gcd

import pytest

from bredon.abgrp import (
    FgAbelianGroup,
    IntegerMatrix,
    cohomology_at,
    cohomology_presentation,
    determinant,
    is_prime,
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
    diag = d.diagonal()
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

    def test_empty_shapes(self):
        for a in (IntegerMatrix.zeros(0, 3), IntegerMatrix.zeros(3, 0), IntegerMatrix.zeros(0, 0)):
            u, d, v = smith_normal_form(a)
            assert (u.rows, v.cols) == (a.rows, a.cols)
            assert (u @ a) @ v == d

    def test_random_contract(self, rng):
        for _ in range(150):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
            assert_snf_contract(a)


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

    @pytest.fixture(scope="class")
    def factors(self):
        rng = random.Random(20261018)
        d = IntegerMatrix.from_diagonal(self.DIAGONAL, self.M, self.N)
        p = sparse_unimodular(rng, self.M, 2 * self.M)
        q = sparse_unimodular(rng, self.N, 2 * self.N)
        x = IntegerMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                                     for _ in range(self.N)])
        return p, p @ d @ q, x

    def test_diagonal_kernel_and_solve(self, factors):
        p, a, x = factors
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
        assert FgAbelianGroup.from_json(g.to_json()) == g
        assert ZERO.render() == "0"

    def test_tensor_and_tor(self):
        a = FgAbelianGroup.from_cyclic_orders([0, 4])
        assert a.tensor(a) == FgAbelianGroup.from_cyclic_orders([0, 4, 4, 4])
        assert a.tor(a) == FgAbelianGroup.cyclic(4)


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
            mod_m_cohomology_at(one, three, 2)
        assert mod_m_cohomology_at(one, three, 3) == ZERO
        with pytest.raises(ValueError, match="mismatch"):
            mod_m_cohomology_at(IntegerMatrix.zeros(2, 1), IntegerMatrix.zeros(1, 3), 2)

    def test_unimodular_invariance(self, rng):
        # conjugating both differentials by unimodular matrices keeps the form
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(0, 3)
            d_in = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)], cols=m)
            left_kernel = kernel_basis(d_in.transpose())
            k = rng.randint(0, 3)
            coeffs = IntegerMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(left_kernel.cols)] for _ in range(k)],
                cols=left_kernel.cols)
            d_out = coeffs @ left_kernel.transpose()
            h1 = cohomology_at(d_in, d_out)
            p = IntegerMatrix.identity(n)
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    e = IntegerMatrix.identity(n) + IntegerMatrix.from_entries(
                        n, n, {(i, j): rng.randint(-2, 2)})
                    p = p @ e
            p_inv = solve(p, IntegerMatrix.identity(n))
            assert cohomology_at(p @ d_in, d_out @ p_inv) == h1


class TestPresentation:
    def test_rejects_non_complexes_and_maps_off_the_cycles(self):
        one = IntegerMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match="not zero$"):
            cohomology_presentation(one, one)
        with pytest.raises(ValueError, match="not zero mod 3"):
            cohomology_presentation(one, one, 3)
        # H of Z alone is Z; in Z --1--> Z the middle has no cycles
        source = cohomology_presentation(IntegerMatrix.zeros(1, 0), IntegerMatrix.zeros(0, 1))
        target = cohomology_presentation(IntegerMatrix.zeros(1, 0), one)
        assert source.group == Z and target.group == ZERO
        with pytest.raises(ValueError, match="does not preserve kernels"):
            map_on_cohomology(one, source, target)


class TestModM:
    def test_two_reduction(self):
        h = mod_m_cohomology_at(IntegerMatrix.from_rows([[2]]), IntegerMatrix.zeros(0, 1), 2)
        assert h == Z2

    def test_rank_two_zero_maps(self):
        h = mod_m_cohomology_at(IntegerMatrix.zeros(2, 0), IntegerMatrix.zeros(0, 2), 2)
        assert h == FgAbelianGroup(0, (2, 2))

    def test_three_term_complex_middle(self):
        # the two-shift fixed-point complex at its middle degree, mod 2
        d_in = IntegerMatrix.from_rows([[1, 1], [-1, -1]])
        d_out = IntegerMatrix.from_rows([[2, 2]])
        assert mod_m_cohomology_at(d_in, d_out, 2) == Z2

    def test_rank_mod_against_minors_oracle(self, rng):
        # rank over F_l = largest k with l not dividing the gcd of the k x k minors
        for _ in range(120):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], cols=c)
            gcds = [minors_gcd_oracle(a, k) for k in range(1, min(r, c) + 1)]
            for ell in (2, 3, 5):
                expected = max((k for k, g in enumerate(gcds, 1) if g % ell), default=0)
                assert rank_mod(a, ell) == expected

    def test_rejects_composite_modulus(self):
        for m in (4, 0):
            with pytest.raises(ValueError, match=f"{m} is not prime"):
                mod_m_cohomology_at(IntegerMatrix.zeros(1, 0), IntegerMatrix.zeros(0, 1), m)
        assert is_prime(2) and is_prime(97) and not is_prime(91)


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
