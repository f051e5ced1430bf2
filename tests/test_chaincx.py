"""Complex validation, tensor calibration, cones, and induced maps."""

import pytest

from bredon import abgrp
from bredon.abgrp import FgAbelianGroup, IntegerMatrix
from bredon.chaincx import (
    ChainMap,
    CochainComplex,
    ComplexError,
    all_cohomology,
    check_cone_les,
    cohomology,
    cone,
    euler_characteristic,
    induced_map,
    tensor,
    two_term_complex,
    unit_complex,
    validate,
)
from bredon.sigmacx import FIXED, FREE, SigmaSpec, build_sigma_complex

from conftest import random_chain_map, random_complex

Z2 = FgAbelianGroup.cyclic(2)


@pytest.fixture
def reductions(monkeypatch):
    """Every run of the reduction engine, recorded as it starts."""
    seen = []
    run = abgrp._Reduction.run
    monkeypatch.setattr(abgrp._Reduction, "run", lambda red: seen.append(red) or run(red))
    return seen


@pytest.fixture
def handed(monkeypatch):
    """The number of nonzeros each run of the reduction engine starts from."""
    seen = []
    run = abgrp._Reduction.run
    monkeypatch.setattr(abgrp._Reduction, "run",
                        lambda red: seen.append(sum(map(len, red.rows))) or run(red))
    return seen


class TestValidation:
    def test_two_term_validates(self):
        assert validate(two_term_complex(2))

    def test_square_nonzero_rejected(self):
        with pytest.raises(ComplexError):
            CochainComplex({-2: 1, -1: 1, 0: 1},
                           {-2: IntegerMatrix.from_rows([[1]]),
                            -1: IntegerMatrix.from_rows([[1]])})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ComplexError):
            CochainComplex({-1: 2, 0: 1}, {-1: IntegerMatrix.from_rows([[1]])})

    def test_two_shift_complex_validates(self):
        assert validate(build_sigma_complex(SigmaSpec(2, FIXED)))

    def test_json_round_trip(self):
        c = build_sigma_complex(SigmaSpec(2, FIXED))
        again = CochainComplex.from_json(c.to_json())
        assert again == c
        data = c.to_json()
        assert set(data["components"]) == {"-2", "-1", "0"}


class TestTensor:
    def test_unit(self):
        c = two_term_complex(2)
        assert tensor(c, unit_complex()) == c
        assert tensor(unit_complex(), c) == c

    def test_koszul_square_matrices(self):
        # hand Koszul expansion of the square of Z --2--> Z
        sq = tensor(two_term_complex(2), two_term_complex(2))
        assert [sq.rank(i) for i in (-2, -1, 0)] == [1, 2, 1]
        assert sq.differential(-2).to_rows() == [[2], [-2]]
        assert sq.differential(-1).to_rows() == [[2, 2]]

    def test_naive_square_is_not_the_two_shift_complex(self):
        # mandatory regression: the pointwise tensor square has extra torsion
        sq = tensor(two_term_complex(2), two_term_complex(2))
        assert cohomology(sq, 0) == Z2
        assert cohomology(sq, -1) == Z2
        true_complex = build_sigma_complex(SigmaSpec(2, FIXED))
        assert cohomology(true_complex, -1) == FgAbelianGroup.zero()
        assert sq != true_complex

    def test_kunneth_free_and_two_primary(self, rng):
        for _ in range(25):
            c = random_complex(rng)
            d = random_complex(rng)
            t = tensor(c, d)
            validate(t)
            lo, hi = t.support()
            c_lo, c_hi = c.support()
            for n in range(lo, hi + 1):
                lhs = cohomology(t, n)
                summands = []
                for p in range(c_lo, c_hi + 1):
                    hc = cohomology(c, p)
                    hd = cohomology(d, n - p)
                    summands.append(hc.tensor(hd))
                    summands.append(hc.tor(cohomology(d, n - p + 1)))
                rhs = FgAbelianGroup.zero().direct_sum(*summands)
                assert lhs.free_rank == rhs.free_rank
                assert lhs.two_primary_part() == rhs.two_primary_part()


class TestCone:
    def test_cone_of_identity_is_acyclic(self):
        assert all_cohomology(cone(ChainMap.identity(unit_complex()))) == {}

    def test_cone_of_two_is_the_sign_complex(self):
        f = ChainMap(unit_complex(), unit_complex(), {0: IntegerMatrix.from_rows([[2]])})
        c = cone(f)
        assert c == two_term_complex(2)
        assert sorted(c.components) == [-1, 0]

    def test_cone_les_random(self, rng):
        for _ in range(20):
            f = random_chain_map(rng, random_complex(rng), random_complex(rng))
            assert check_cone_les(f)


class TestCohomologyAndEuler:
    def test_sign_complex_values(self):
        c1 = build_sigma_complex(SigmaSpec(1, FIXED))
        assert cohomology(c1, 0) == Z2
        cm1 = build_sigma_complex(SigmaSpec(-1, FIXED))
        assert all_cohomology(cm1) == {}
        c2 = build_sigma_complex(SigmaSpec(2, FIXED))
        assert cohomology(c2, -2) == FgAbelianGroup.free(1)

    def test_each_differential_reduced_once(self, reductions):
        c = build_sigma_complex.__wrapped__(SigmaSpec(4))
        groups = all_cohomology(c)
        assert 0 < len(reductions) <= len(c.differentials)
        assert groups == {-4: FgAbelianGroup.free(1), -2: Z2, 0: Z2}

    @pytest.mark.parametrize("spec", [SigmaSpec(p, orbit)
                                      for p in (4, -4) for orbit in (FIXED, FREE)])
    def test_built_complex_cohomology_multiplies_nothing(self, monkeypatch, spec):
        # the complex was verified when it was built; its windows are not checked again
        c = build_sigma_complex.__wrapped__(spec)
        products = []
        matmul = IntegerMatrix.__matmul__
        monkeypatch.setattr(IntegerMatrix, "__matmul__",
                            lambda a, b: products.append((a, b)) or matmul(a, b))
        all_cohomology(c)
        all_cohomology(c, 2)
        assert products == []

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="4 is not prime"):
            cohomology(build_sigma_complex(SigmaSpec(2, FIXED)), 0, 4)

    def test_presentation_leaves_cohomology_nothing_to_reduce(self, reductions):
        for degree in range(-4, 1):
            c = build_sigma_complex.__wrapped__(SigmaSpec(4))
            group = c._presentation(degree).group
            before = len(reductions)
            assert cohomology(c, degree) == group
            assert len(reductions) == before

    def test_unit_found_by_a_remainder_step_pairs_nothing(self):
        # Z --(2,3)--> Z^2 --(3,-2)--> Z: the engine takes the 2 first and records
        # the pivot 1 only after a remainder step; pairing that pivot's row would
        # drop column 1 of d^1 and leave Z/3 in degree 2
        c = CochainComplex({0: 1, 1: 2, 2: 1}, {0: IntegerMatrix.from_rows([[2], [3]]),
                                                1: IntegerMatrix.from_rows([[3, -2]])})
        assert cohomology(c, 2) == FgAbelianGroup.zero()
        assert abgrp.snf_diagonal(c.differential(1)) == [1]
        assert all_cohomology(c) == {}

    def test_pivot_above_one_pairs_nothing(self):
        # d^-2 has Smith diagonal (1, 2) and its first pivot is a 2; pairing the
        # 2's row would drop a column of d^-1 = (3, 2)^T (0, -2, 3) and leave Z/2
        # next to the Z in degree 0
        c = CochainComplex({-2: 2, -1: 3, 0: 2},
                           {-2: IntegerMatrix.from_rows([[2, -2], [0, 3], [0, 2]]),
                            -1: IntegerMatrix.from_rows([[0, -6, 9], [0, -4, 6]])})
        assert cohomology(c, 0) == FgAbelianGroup.free(1)
        assert abgrp.snf_diagonal(c.differential(-1)) == [1]
        assert all_cohomology(c) == {-1: Z2, 0: FgAbelianGroup.free(1)}

    def test_sweep_hands_the_engine_less_than_the_differentials(self, handed):
        # the unit pivots of each differential drop their rows' columns from the
        # next; a query reduces nothing above its window, and later queries, in
        # any order, go on from the rows paired below
        c = build_sigma_complex.__wrapped__(SigmaSpec(7, FREE))
        assert all_cohomology(c) == {-7: FgAbelianGroup.free(1)}
        assert len(handed) <= len(c.differentials)
        ascending = sum(handed)
        assert ascending < 0.7 * sum(a.nnz() for a in c.differentials.values())
        handed.clear()
        c = build_sigma_complex.__wrapped__(SigmaSpec(7, FREE))
        lo, hi = c.support()
        cohomology(c, lo)
        assert len(handed) == 1
        for degree in [(lo + hi) // 2, hi] + list(range(hi - 1, lo, -1)):
            cohomology(c, degree)
        assert len(handed) <= len(c.differentials)
        assert sum(handed) == ascending

    def test_euler(self):
        assert euler_characteristic(build_sigma_complex(SigmaSpec(1, FIXED))) == 0
        assert euler_characteristic(unit_complex()) == 1
        # binomial oracle: 1 - 3 + 6 - 4
        assert euler_characteristic(build_sigma_complex(SigmaSpec(3, FIXED))) == 0

    def test_euler_equals_alternating_free_rank(self, rng):
        for _ in range(25):
            c = random_complex(rng)
            lo, hi = c.support()
            total = sum((-1) ** (d % 2) * cohomology(c, d).free_rank
                        for d in range(lo, hi + 1))
            assert euler_characteristic(c) == total


class TestInducedMap:
    def test_identity_and_zero(self):
        c = two_term_complex(2)
        ind = induced_map(ChainMap.identity(c), 0)
        assert ind.is_multiplication_by(1) and ind.is_isomorphism()
        zero = induced_map(ChainMap.identity(c).scale(0), 0)
        assert zero.is_zero()

    def test_classification_flags(self):
        c = two_term_complex(2)
        doubled = induced_map(ChainMap.identity(c).scale(2), 0)
        # on Z/2 doubling is the zero map, and that is multiplication by 2
        assert doubled.is_multiplication_by(2)
        assert doubled.is_zero()

    def test_repeated_induced_map_reduces_nothing(self, reductions):
        c = build_sigma_complex.__wrapped__(SigmaSpec(3))
        for degree in range(-3, 1):
            first = induced_map(ChainMap.identity(c), degree)
            before = len(reductions)
            second = induced_map(ChainMap.identity(c).scale(2), degree)
            assert len(reductions) == before
            assert first.is_multiplication_by(1) and second.is_multiplication_by(2)

    def test_mod_two_induced(self, rng):
        c = two_term_complex(2)
        ind = induced_map(ChainMap.identity(c), 0, 2)
        assert ind.source_group == Z2
        assert ind.is_multiplication_by(1)
        # k times the identity mod l: zero iff l | k, an isomorphism iff l does not divide k
        for _ in range(20):
            c = random_complex(rng)
            lo, hi = c.support()
            for ell in (2, 3):
                for k in (-1, 0, 2, 3, 6):
                    for a in range(lo, hi + 1):
                        ind = induced_map(ChainMap.identity(c).scale(k), a, ell)
                        group = cohomology(c, a, ell)
                        assert ind.source_group == group == ind.target_group
                        assert ind.is_zero() == (k % ell == 0 or group.is_trivial())
                        assert ind.is_isomorphism() == (k % ell != 0 or group.is_trivial())
