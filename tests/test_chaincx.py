"""Complex validation, tensor calibration, cones, and induced maps."""

import random
import sys
import threading
from itertools import groupby

import pytest

from bredon import abgrp, chaincx
from bredon.abgrp import (
    FgAbelianGroup,
    IntegerMatrix,
    cohomology_at,
    cohomology_presentation,
    map_is_injective,
    map_is_surjective,
    map_is_zero,
    map_on_cohomology,
    mod_m_cohomology_at,
    rank_mod,
    tensor_Z2_group,
    two_torsion_group,
)
from bredon.chaincx import (
    ChainMap,
    CochainComplex,
    ComplexError,
    InducedMap,
    all_cohomology,
    check_cone_les,
    cohomology,
    cone,
    explain,
    induced_map,
    unit_complex,
    validate,
)
from bredon.sigmacx import (
    FIXED,
    FREE,
    SigmaSpec,
    build_sigma_complex,
    free_orbit_acyclicity,
    involution_map,
    restriction_map,
    transfer_map,
    weight0,
)
from bredon.tables import GridSpec

from conftest import (
    euler_characteristic,
    nnz,
    random_chain_map,
    random_complex,
    swept_ranks_oracle,
    tensor,
    tensor_group,
    tor_group,
    two_primary_part,
    two_term_complex,
)

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
    """(units_only, nonzeros, shape) of each run of the reduction engine, as it starts."""
    seen = []
    run = abgrp._Reduction.run
    monkeypatch.setattr(abgrp._Reduction, "run", lambda red: seen.append(
        (red.units_only, sum(map(len, red.rows)), (red.m, red.n))) or run(red))
    return seen


def assert_swept_once(handed, c: CochainComplex, generators: int):
    """The sweep (the ``units_only`` runs) handed each differential of C to
    the engine exactly once, from the lowest degree up, and every other run
    had at most ``generators`` columns, the rank of C's Morse model."""
    swept = [shape for units_only, _, shape in handed if units_only]
    assert swept == [(a.rows, a.cols) for _, a in sorted(c.differentials.items())]
    assert all(shape[1] <= generators for units_only, _, shape in handed if not units_only)


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
                    summands.append(tensor_group(hc, hd))
                    summands.append(tor_group(hc, cohomology(d, n - p + 1)))
                rhs = FgAbelianGroup.zero().direct_sum(*summands)
                assert lhs.free_rank == rhs.free_rank
                assert two_primary_part(lhs) == two_primary_part(rhs)


class TestCone:
    def test_cone_of_identity_is_acyclic(self):
        assert all_cohomology(cone(ChainMap.identity(unit_complex()))) == {}

    def test_cone_of_two_is_the_sign_complex(self):
        f = ChainMap(unit_complex(), unit_complex(), {0: IntegerMatrix.from_rows([[2]])})
        c = cone(f)
        assert c == two_term_complex(2)
        assert sorted(c.components) == [-1, 0]

    def test_a_caller_map_that_is_not_a_chain_map_raises(self):
        c = two_term_complex(2)
        with pytest.raises(ComplexError, match="does not commute"):
            ChainMap(c, c, {-1: IntegerMatrix.from_rows([[1]])})

    def test_the_cone_of_an_unchecked_caller_map_validates(self):
        c = two_term_complex(2)
        f = ChainMap(c, c, {-1: IntegerMatrix.from_rows([[1]])}, check=False)
        with pytest.raises(ComplexError, match="d.d != 0"):
            cone(f)

    def test_only_the_cone_of_a_known_chain_map_skips_validate(self, monkeypatch):
        c = two_term_complex(2)
        checked = ChainMap(c, c, {d: IntegerMatrix.identity(1) for d in (-1, 0)})
        unchecked = [ChainMap.identity(c), checked.scale(2), checked.compose(checked),
                     ChainMap(c, c, dict(checked.maps), check=False)]
        calls = []
        validate = chaincx.validate
        monkeypatch.setattr(chaincx, "validate", lambda cx: calls.append(cx) or validate(cx))
        cone(checked)
        assert calls == []
        for f in unchecked:
            cone(f)
        assert len(calls) == len(unchecked)

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

    def test_each_differential_reduced_once(self, handed):
        # whatever is asked, in any order and over either coefficients, the sweep
        # reduces each differential of C once; the rest is M's small windows
        c = build_sigma_complex.__wrapped__(SigmaSpec(4))
        groups = all_cohomology(c)
        assert groups == {-4: FgAbelianGroup.free(1), -2: Z2, 0: Z2}
        for m in (2, 0):
            for degree in reversed(c.degrees()):
                cohomology(c, degree, m)
                c._presentation(degree)
        assert_swept_once(handed, c, 5)

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

    @pytest.mark.parametrize("spec", [SigmaSpec(p, orbit) for p in (6, -6)
                                      for orbit in (FIXED, FREE)] + ["random"])
    def test_swept_complex_reduces_nothing_for_its_integral_groups(self, reductions, spec):
        # the sweep takes the diagonal of each d_M once; every integral group,
        # asked for in any order, and explain read the record afterwards
        if spec == "random":
            c = random_complex(random.Random(13), max_deg=3, max_rank=5)
        else:
            c = build_sigma_complex.__wrapped__(spec)
        lo, hi = c.support()
        raw = {k: raw_cohomology(c, k, 0) for k in range(lo - 1, hi + 2)}
        groups = all_cohomology(c)
        assert groups == {k: h for k, h in raw.items() if not h.is_trivial()}
        reductions.clear()
        for k in reversed(range(lo - 1, hi + 2)):
            assert cohomology(c, k) == raw[k], k
            explain(c, k)
        assert reductions == []

    @pytest.mark.parametrize("spec", [SigmaSpec(p, orbit)
                                      for p in (6, -6) for orbit in (FIXED, FREE)])
    def test_each_differential_ranked_mod_two_once(self, monkeypatch, reductions, spec):
        # d^k is d_out at k and d_in at k + 1; mod 2 the complex ranks it once
        # by the bitset kernel, whatever is asked in any order, and touches
        # neither the reduction engine nor the Morse record
        c = build_sigma_complex.__wrapped__(spec)
        lo, hi = c.support()
        raw = {k: raw_cohomology(c, k, 2) for k in range(lo - 1, hi + 2)}
        reductions.clear()
        ranked = []
        monkeypatch.setattr(chaincx, "rank_mod",
                            lambda a: ranked.append(id(a)) or rank_mod(a))
        assert all_cohomology(c, 2) == {k: h for k, h in raw.items() if not h.is_trivial()}
        for k in reversed(range(lo - 1, hi + 2)):
            assert cohomology(c, k, 2) == raw[k]
        assert sorted(ranked) == sorted(id(a) for a in c.differentials.values())
        assert reductions == [] and c._morse is None
        for k in range(lo - 1, hi + 2):
            explain(c, k, 2)
        assert len(ranked) == len(c.differentials)

    def test_two_threads_share_a_fresh_complex_mod_two(self):
        for spec in (SigmaSpec(8, FREE), SigmaSpec(8, FIXED), SigmaSpec(-8, FREE)):
            alone = all_cohomology(build_sigma_complex.__wrapped__(spec), 2)
            c = build_sigma_complex.__wrapped__(spec)
            barrier, got = threading.Barrier(2), [None, None]

            def run(i):
                barrier.wait()
                got[i] = all_cohomology(c, 2)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                sys.setswitchinterval(interval)
            assert got[0] == got[1] == alone, spec
            assert c._mod2_ranks == {k: rank_mod(a) for k, a in c.differentials.items()}

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match=r"^coefficient 4 is neither 0 \(Z\) nor 2 \(Z/2\)$"):
            cohomology(build_sigma_complex(SigmaSpec(2, FIXED)), 0, 4)

    @pytest.mark.parametrize("m", [3, 4, 1, -2])
    def test_every_entry_refuses_a_bad_modulus_before_any_work(self, reductions, m):
        c = build_sigma_complex.__wrapped__(SigmaSpec(5, FREE))
        d_in, d_out = c.differential(-3), c.differential(-2)
        entries = [lambda: cohomology(c, -2, m),
                   lambda: all_cohomology(c, m),
                   lambda: explain(c, -2, m),
                   lambda: weight0(-2, 5, m),
                   lambda: free_orbit_acyclicity(5, m),
                   lambda: GridSpec(coeff=m)]
        for entry in entries:
            with pytest.raises(ValueError, match=rf"^coefficient {m} is neither 0 \(Z\) nor "
                                                 r"2 \(Z/2\)$"):
                entry()
        # presentations and induced maps are integral, the raw Z/2 window and
        # its ranks are mod 2 only, and none of them takes a modulus
        with pytest.raises(TypeError):
            rank_mod(d_out, m)
        with pytest.raises(TypeError):
            mod_m_cohomology_at(d_in, d_out, m)
        with pytest.raises(TypeError):
            induced_map(ChainMap.identity(c), -2, m)
        with pytest.raises(TypeError):
            cohomology_presentation(d_in, d_out, m)
        assert reductions == []

    @pytest.mark.parametrize("p", range(-9, 10))
    def test_odd_primes_follow_the_universal_coefficients(self, p):
        # H^k(C; Z/l) = H^k(C) (x) Z/l (+) Tor(H^(k+1)(C), Z/l): the package computes
        # no group over Z/l, so the left side is (Z/l)^n from the ranks over Z/l of
        # C's own differentials, by the oracle that shares no code with the engine
        complexes = [build_sigma_complex(SigmaSpec(p, orbit_type)) for orbit_type in (FIXED, FREE)]
        if abs(p) <= 5:
            complexes.append(cone(transfer_map(p)))
        for c in complexes:
            lo, hi = c.support()
            integral = {k: cohomology(c, k) for k in range(lo - 1, hi + 2)}
            for ell in (3, 5):
                z_ell, ranks = FgAbelianGroup.cyclic(ell), swept_ranks_oracle(c, ell)
                for k in range(lo - 1, hi + 1):
                    n = c.rank(k) - ranks.get(k - 1, 0) - ranks.get(k, 0)
                    uct = tensor_group(integral[k], z_ell).direct_sum(
                        tor_group(integral[k + 1], z_ell))
                    assert FgAbelianGroup(0, (ell,) * n) == uct, (c, k, ell)

    def test_presentation_leaves_cohomology_nothing_to_reduce(self, handed):
        # a presentation sweeps C as far as the group needs, so the group
        # reduces no differential of C again, only M's window
        for degree in range(-4, 1):
            c = build_sigma_complex.__wrapped__(SigmaSpec(4))
            group = c._presentation(degree).group
            before = len(handed)
            assert cohomology(c, degree) == group
            assert all(not units_only and shape[1] <= 5
                       for units_only, _, shape in handed[before:])
            handed.clear()

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
        # next; a query sweeps nothing above the differential over its window,
        # and later queries, in any order, go on from the rows paired below
        c = build_sigma_complex.__wrapped__(SigmaSpec(7, FREE))
        assert all_cohomology(c) == {-7: FgAbelianGroup.free(1)}
        assert_swept_once(handed, c, 8)
        ascending = sum(nnz for units_only, nnz, _ in handed if units_only)
        assert ascending < 0.7 * sum(map(nnz, c.differentials.values()))
        handed.clear()
        c = build_sigma_complex.__wrapped__(SigmaSpec(7, FREE))
        lo, hi = c.support()
        cohomology(c, lo)
        assert [units_only for units_only, _, _ in handed].count(True) == 2
        for degree in [(lo + hi) // 2, hi] + list(range(hi - 1, lo, -1)):
            cohomology(c, degree)
        assert_swept_once(handed, c, 8)
        assert sum(nnz for units_only, nnz, _ in handed if units_only) == ascending

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
        assert ind.is_multiplication_by(1)
        assert map_is_injective(ind.matrix, ind.source, ind.target)
        assert map_is_surjective(ind.matrix, ind.target)
        zero = induced_map(ChainMap.identity(c).scale(0), 0)
        assert zero.is_multiplication_by(0) and map_is_zero(zero.matrix, zero.target)

    def test_classification_flags(self):
        c = two_term_complex(2)
        doubled = induced_map(ChainMap.identity(c).scale(2), 0)
        # on Z/2 doubling is the zero map, and that is multiplication by 2
        assert doubled.is_multiplication_by(2)
        assert map_is_zero(doubled.matrix, doubled.target)

    def test_repeated_induced_map_reduces_nothing(self, reductions):
        c = build_sigma_complex.__wrapped__(SigmaSpec(3))
        for degree in range(-3, 1):
            first = induced_map(ChainMap.identity(c), degree)
            before = len(reductions)
            second = induced_map(ChainMap.identity(c).scale(2), degree)
            assert len(reductions) == before
            assert first.is_multiplication_by(1) and second.is_multiplication_by(2)


# -- the Morse retraction of each complex, at matrix level -------------------

def retraction_homotopy(c: CochainComplex) -> dict:
    """h^(k+1) = -V_k[:, A_k] U_k[B_k, :] for every degree k, rebuilt from scratch.

    Each unit phase is run again, without the rows B of the one below it as
    the sweep runs it, and U_k and V_k are built whole from its logs; (B_k,
    A_k) are its pivots, each +1 after the logged negations (the sign
    convention of the ``chaincx`` docstring).
    """
    lo, hi = c.support()
    h, paired = {}, frozenset()
    for k in range(lo, hi + 1):
        a = c.differential(k)
        red = abgrp._Reduction(a, paired, units_only=True)
        red.run()
        units = red.pivots
        assert all(v == 1 for _, _, v in units)
        u = red.matrix_u()  # the unit pivots' rows come first, in pivot order
        u_units = IntegerMatrix(len(units), a.rows,
                                {(i, j): v for (i, j), v in u.items() if i < len(units)})
        h[k + 1] = -(red.matrix_v([j for _, j, _ in units]) @ u_units)
        paired = frozenset(i for i, _, _ in units)
    return h


def check_retraction(c: CochainComplex):
    """f and g are chain maps with f.g = 1, g.f = 1 + dh + hd, h.h = 0,
    f.h = 0 and h.g = 0, all as matrices."""
    lo, hi = c.support()
    h = retraction_homotopy(c)

    def h_at(k):
        return h.get(k, IntegerMatrix.zeros(c.rank(k - 1), c.rank(k)))

    for k in range(lo, hi + 1):
        d_in, d_out, f, g = c._model(k)
        f_next, g_next = c._model(k + 1)[2:]
        d = c.differential(k)
        assert f @ g == IntegerMatrix.identity(f.rows), k
        assert d @ g == g_next @ d_out, k
        assert f_next @ d == d_out @ f, k
        assert (d_out @ d_in).is_zero(), k
        assert g @ f == IntegerMatrix.identity(c.rank(k)) + c.differential(k - 1) @ h_at(k) \
            + h_at(k + 1) @ d, k
        assert (h_at(k) @ h_at(k + 1)).is_zero(), k
        assert (f @ h_at(k + 1)).is_zero(), k
        assert (h_at(k + 1) @ g_next).is_zero(), k


def raw_cohomology(c: CochainComplex, k: int, m: int = 0) -> FgAbelianGroup:
    """H^k(C) from C's own window at k, not from its Morse model."""
    d_in, d_out = c.differential(k - 1), c.differential(k)
    return mod_m_cohomology_at(d_in, d_out) if m else cohomology_at(d_in, d_out)


def check_presentations(c: CochainComplex, raw: bool = True):
    """Every presentation presents the group that ``cohomology`` gives, and
    with ``raw`` the group of C's own window too; it keeps its surviving
    generators only: its orders are the group's invariant factors, then a 0
    per free generator, and transform @ inverse is the identity on them.
    The group over Z/2, from the bitset ranks of C's own differentials, is
    the universal-coefficient sum of the presented integral groups."""
    lo, hi = c.support()
    for k in range(lo - 1, hi + 2):
        pres = c._presentation(k)
        group = pres.group
        assert group == cohomology(c, k), k
        if raw:
            assert group == raw_cohomology(c, k), k
        assert pres.orders == group.invariant_factors + (0,) * group.free_rank, k
        assert pres.transform @ pres.inverse == IntegerMatrix.identity(len(pres.orders)), k
        above = c._presentation(k + 1).group
        assert cohomology(c, k, 2) == tensor_Z2_group(group).direct_sum(
            two_torsion_group(above)), k


class TestMorseRetraction:
    @pytest.mark.parametrize("p", range(-8, 9))
    def test_orbit_complexes(self, p):
        # C's raw windows are the oracle up to |p| = 6; at |p| = 7, 8 it is
        # the diagonal test of test_sigmacx.TestEngineOnOrbitDifferentials
        for orbit_type in (FIXED, FREE):
            c = build_sigma_complex(SigmaSpec(p, orbit_type))
            check_retraction(c)
            check_presentations(c, raw=abs(p) <= 6)
            assert sum(c._model(k)[3].cols for k in c.degrees()) <= abs(p) + 1

    @pytest.mark.parametrize("p", range(0, 7))
    def test_transfer_cones(self, p):
        c = cone(transfer_map(p))
        check_retraction(c)
        check_presentations(c)

    def test_random_complexes(self, rng):
        for _ in range(40):
            for c in (random_complex(rng), random_complex(rng, max_deg=3, max_rank=5)):
                check_retraction(c)
                check_presentations(c)

    @pytest.mark.parametrize("m", [0, 2])
    def test_explain_reads_the_diagonals_of_c_off_the_model(self, rng, m):
        # explain gives d^k the diagonal 1 x (unit pivots), then that of d_M^k;
        # it must be the diagonal of d^k itself, and mod 2 its rank mod 2 too
        complexes = [build_sigma_complex(SigmaSpec(p, orbit_type))
                     for p in range(-5, 6) for orbit_type in (FIXED, FREE)]
        complexes += [random_complex(rng, max_deg=3, max_rank=5) for _ in range(20)]
        for c in complexes:
            lo, hi = c.support()
            for k in range(lo - 1, hi + 1):
                a = c.differential(k)
                runs = ", ".join(f"{v} x {len(list(run))}" for v, run in groupby(abgrp.snf_diagonal(a)))
                line = explain(c, k, m)[3]
                assert f"): Smith diagonal {runs or 'empty'};" in line, (c, k)
                assert not m or line.endswith(f"; rank mod 2 {rank_mod(a)}"), (c, k)

    def test_presentations_reduce_only_the_model(self, reductions):
        # once the groups are known, presenting every degree and inducing a
        # map reduce M's windows, never a differential of C
        c = build_sigma_complex.__wrapped__(SigmaSpec(7))
        all_cohomology(c)
        assert sum(c._model(k)[3].cols for k in c.degrees()) == 8
        reductions.clear()
        for degree in c.degrees():
            c._presentation(degree)
            assert induced_map(ChainMap.identity(c).scale(3), degree).is_multiplication_by(3)
        assert reductions and max(red.n for red in reductions) <= 8


# -- the Morse path against presentations of C's own windows -----------------

def raw_induced(phi: ChainMap, degree: int) -> InducedMap:
    """The induced map on presentations of the raw windows of C (the path
    before the Morse model)."""
    sp, tp = (cohomology_presentation(c.differential(degree - 1), c.differential(degree))
              for c in (phi.source, phi.target))
    return InducedMap(degree, sp.group, tp.group, map_on_cohomology(phi.component(degree), sp, tp),
                      sp.orders, tp.orders)


def assert_same_verdicts(phi: ChainMap):
    lo = min(phi.source.support()[0], phi.target.support()[0])
    hi = max(phi.source.support()[1], phi.target.support()[1])
    for degree in range(lo - 1, hi + 2):
        new, old = induced_map(phi, degree), raw_induced(phi, degree)
        assert (new.source_group, new.target_group) == (old.source_group, old.target_group), degree
        assert map_is_zero(new.matrix, new.target) == map_is_zero(old.matrix, old.target), degree
        assert map_is_injective(new.matrix, new.source, new.target) == \
            map_is_injective(old.matrix, old.source, old.target), degree
        assert map_is_surjective(new.matrix, new.target) == \
            map_is_surjective(old.matrix, old.target), degree
        if phi.source is phi.target:
            for n in (-1, 0, 1, 2, 3):
                assert new.is_multiplication_by(n) == old.is_multiplication_by(n), (degree, n)


class TestInducedMapsAgainstRawWindows:
    def test_random_chain_maps(self, rng):
        for _ in range(25):
            s, t = random_complex(rng), random_complex(rng)
            assert_same_verdicts(random_chain_map(rng, s, t))
            assert_same_verdicts(random_chain_map(rng, s, s))

    @pytest.mark.parametrize("p", range(-4, 5))
    def test_transfer_restriction_and_involution(self, p):
        tr, res = transfer_map(p), restriction_map(p)
        for phi in (tr.compose(res), res.compose(tr), involution_map(p), tr, res):
            assert_same_verdicts(phi)
