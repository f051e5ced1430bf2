"""Orbit combinatorics, the shift complexes, and the structural checks."""

from itertools import combinations, product

import pytest

from bredon import abgrp, sigmacx
from bredon.abgrp import (
    FgAbelianGroup,
    IntegerMatrix,
    rank_mod,
    smith_normal_form,
    snf_diagonal,
)
from bredon.chaincx import (
    CochainComplex,
    all_cohomology,
    cohomology,
    cone,
    tensor,
    unit_complex,
)
from bredon.sigmacx import (
    FIXED,
    FREE,
    SigmaSpec,
    build_sigma_complex,
    canonical_bits,
    cone_tower_check,
    free_orbit_acyclicity,
    involution_map,
    orbit_basis,
    restriction_map,
    transfer_map,
    transfer_restriction_check,
    weight0,
)
from bredon.tables import weight0_closed_form

from conftest import assert_transforms, random_complex, rank_mod_oracle, swept_ranks_oracle

Z = FgAbelianGroup.free(1)
Z2 = FgAbelianGroup.cyclic(2)
ZERO = FgAbelianGroup.zero()


# -- enumeration oracle for the push/pull coefficients ----------------------
#
# A basis class is a cycle: the pair {v, complement(v)} of bit strings, or a
# single point for the fixed arity-0 class.  Pushing forward (or pulling
# back) the cycle gives a multiset of points, and the coefficient of a basis
# class in that multiset is the multiplicity of its canonical representative.
# This is the rule sigmacx._orbit_rows implements; the tensor-power oracle
# below checks it independently.

def _cycle_points(bits, free):
    if not free and not bits:
        return [()]
    return [bits, tuple(1 - b for b in bits)]


def _express_in_basis(point_multiset, arity, orbit_type):
    basis = orbit_basis(arity, orbit_type)
    index = {b: i for i, b in enumerate(basis)}
    coeffs = {}
    for point, mult in point_multiset.items():
        if point in index:
            coeffs[index[point]] = mult
    return coeffs


def oracle_push(j, drop_index, orbit_type):
    free = orbit_type == FREE
    src = orbit_basis(j, orbit_type)
    tgt = orbit_basis(j - 1, orbit_type)
    pos = drop_index - 1 + (1 if free else 0)
    entries = {}
    for col, bits in enumerate(src):
        image = {}
        for point in _cycle_points(bits, free):
            shorter = point[:pos] + point[pos + 1:]
            image[shorter] = image.get(shorter, 0) + 1
        for row, c in _express_in_basis(image, j - 1, orbit_type).items():
            entries[(row, col)] = c
    return IntegerMatrix(len(tgt), len(src), entries)


def oracle_pull(j, insert_index, orbit_type):
    free = orbit_type == FREE
    src = orbit_basis(j - 1, orbit_type)
    tgt = orbit_basis(j, orbit_type)
    pos = insert_index - 1 + (1 if free else 0)
    entries = {}
    for col, bits in enumerate(src):
        fiber = {}
        for point in _cycle_points(bits, free):
            for b in (0, 1):
                lifted = point[:pos] + (b,) + point[pos:]
                fiber[lifted] = fiber.get(lifted, 0) + 1
        for row, c in _express_in_basis(fiber, j, orbit_type).items():
            entries[(row, col)] = c
    return IntegerMatrix(len(tgt), len(src), entries)


class TestOrbitBasis:
    def test_sizes(self):
        assert orbit_basis(0, FIXED) == [()]
        assert orbit_basis(2, FIXED) == [(0, 0), (0, 1)]
        assert len(orbit_basis(3, FIXED)) == 4
        assert len(orbit_basis(3, FREE)) == 8
        assert orbit_basis(0, FREE) == [(0,)]

    def test_enumeration_oracle(self):
        # brute force: orbits of the complement action on bit strings
        for j in range(0, 6):
            seen = set()
            for k in range(2 ** j):
                bits = tuple((k >> (j - 1 - i)) & 1 for i in range(j))
                seen.add(canonical_bits(bits))
            assert sorted(seen) == orbit_basis(j, FIXED)


def orbit_block(kind, j, index, orbit_type):
    """The push from arity j to j - 1, or the pull from j - 1 to j, at the
    1-based coordinate index, read from the memoised rows of sigmacx."""
    big, small = (j, orbit_type), (j - 1, orbit_type)
    src, tgt = (big, small) if kind == "push" else (small, big)
    pos = index - 1 + (1 if orbit_type == FREE else 0)
    rows = sigmacx._orbit_rows(kind, pos, src, tgt)
    return IntegerMatrix(len(rows), len(orbit_basis(*src)),
                         {(i, c): v for i, row in enumerate(rows) for c, v in row})


class TestPushPull:
    def test_one_coordinate(self):
        assert orbit_block("push", 1, 1, FIXED).to_rows() == [[2]]
        assert orbit_block("pull", 1, 1, FIXED).to_rows() == [[1]]

    def test_two_coordinates(self):
        assert orbit_block("push", 2, 1, FIXED).to_rows() == [[1, 1]]
        assert orbit_block("push", 2, 2, FIXED).to_rows() == [[1, 1]]
        assert orbit_block("pull", 2, 1, FIXED).to_rows() == [[1], [1]]

    def test_free_push(self):
        # pointwise pushforward of the two-point cycle, re-canonicalized
        assert orbit_block("push", 2, 1, FREE).to_rows() == [[1, 0, 1, 0], [0, 1, 0, 1]]

    def test_pull_three(self):
        for idx in (1, 2, 3):
            m = orbit_block("pull", 3, idx, FIXED)
            assert (m.rows, m.cols) == (4, 2)
            for j in range(2):
                assert sum(m.entry(i, j) for i in range(4)) == 2
                assert all(m.entry(i, j) in (0, 1) for i in range(4))

    def test_against_enumeration_oracle(self):
        # equal matrices, each row listing its keys in the same order
        for orbit_type in (FIXED, FREE):
            for j in range(1, 7):
                for idx in range(1, j + 1):
                    where = (j, idx, orbit_type)
                    assert_same_rows(orbit_block("push", j, idx, orbit_type),
                                     oracle_push(j, idx, orbit_type), where)
                    assert_same_rows(orbit_block("pull", j, idx, orbit_type),
                                     oracle_pull(j, idx, orbit_type), where)


# -- reference assembly ------------------------------------------------------
#
# The assembly as it reads from the label tuples: basis labels enumerated bit
# by bit, every block and every complex or map gathered in a {(row, col): v}
# dict and handed to the IntegerMatrix constructor.  Each row of it lists its
# keys in the order the dict first met them, and the pivot path of a reduction
# (so every U, V, f, g and induced matrix) follows that order, so the fast
# assembly must match it key for key, not only as a matrix.

def reference_basis(j, orbit_type):
    width = j + (1 if orbit_type == FREE else 0)
    if width == 0:
        return [()]
    return [(0,) + tuple((k >> (width - 2 - i)) & 1 for i in range(width - 1))
            for k in range(2 ** (width - 1))]


def reference_block(src, tgt, image):
    row = {b: i for i, b in enumerate(tgt)}
    entries = {}
    for col, bits in enumerate(src):
        for point in ((bits, tuple(1 - b for b in bits)) if bits else ((),)):
            for q in image(point):
                if q in row:
                    entries[(row[q], col)] = entries.get((row[q], col), 0) + 1
    return IntegerMatrix(len(tgt), len(src), entries)


def reference_layout(m, j, orbit_type):
    subsets = list(combinations(range(1, m + 1), j))
    size = len(reference_basis(j, orbit_type))
    return subsets, {s: k * size for k, s in enumerate(subsets)}, size * len(subsets)


def reference_differentials(n, orbit_type):
    m, push = abs(n), n > 0
    first = 1 if orbit_type == FREE else 0
    diffs = {}
    for j in range(m):
        _, small_off, small_rank = reference_layout(m, j, orbit_type)
        bigs, big_off, big_rank = reference_layout(m, j + 1, orbit_type)
        small_basis, big_basis = reference_basis(j, orbit_type), reference_basis(j + 1, orbit_type)
        if push:
            blocks = [reference_block(big_basis, small_basis,
                                      lambda v, pos=first + idx: (v[:pos] + v[pos + 1:],))
                      for idx in range(j + 1)]
        else:
            blocks = [reference_block(small_basis, big_basis,
                                      lambda v, pos=first + idx: (v[:pos] + (0,) + v[pos:],
                                                                  v[:pos] + (1,) + v[pos:]))
                      for idx in range(j + 1)]
        entries = {}
        for big in bigs:
            for idx in range(j + 1):
                small = small_off[big[:idx] + big[idx + 1:]]
                row, col = (small, big_off[big]) if push else (big_off[big], small)
                sign = -1 if (j - idx) % 2 else 1
                for (r, c), v in blocks[idx].items():
                    entries[(row + r, col + c)] = sign * v
        shape = (small_rank, big_rank) if push else (big_rank, small_rank)
        diffs[-(j + 1) if push else j] = IntegerMatrix(*shape, entries)
    return diffs


def reference_map(n, src_type, tgt_type, image):
    m = abs(n)
    maps = {}
    for j in range(m + 1):
        subsets, src_off, src_rank = reference_layout(m, j, src_type)
        _, tgt_off, tgt_rank = reference_layout(m, j, tgt_type)
        block = reference_block(reference_basis(j, src_type), reference_basis(j, tgt_type), image)
        entries = {}
        for subset in subsets:
            for (r, c), v in block.items():
                entries[(tgt_off[subset] + r, src_off[subset] + c)] = v
        maps[-j if n > 0 else j] = IntegerMatrix(tgt_rank, src_rank, entries)
    return maps


def assert_same_rows(got, want, where):
    """Equal matrices whose rows list their keys in the same order."""
    assert got == want, where
    assert list(got.items()) == list(want.items()), where


class TestFastAssembly:
    """Every complex and map with |p| <= 8 against the reference assembly."""

    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    def test_differentials(self, orbit_type):
        for p in range(-8, 9):
            if not p:
                continue
            c = build_sigma_complex.__wrapped__(SigmaSpec(p, orbit_type))
            want = reference_differentials(p, orbit_type)
            assert sorted(d for d in c.degrees() if d + 1 in c.components) == sorted(want)
            for d, a in want.items():
                assert_same_rows(c.differential(d), a, (p, orbit_type, d))

    def test_transfer_restriction_involution(self):
        for p in range(-8, 9):
            maps = ((transfer_map(p), FREE, FIXED, lambda v: (v[1:],)),
                    (restriction_map(p), FIXED, FREE, lambda v: ((0,) + v, (1,) + v)),
                    (involution_map(p), FREE, FREE, lambda v: ((1 - v[0],) + v[1:],)))
            for k, (f, src_type, tgt_type, image) in enumerate(maps):
                want = reference_map(p, src_type, tgt_type, image)
                assert set(f.maps) <= set(want), (p, k)
                for d, a in want.items():
                    assert_same_rows(f.component(d), a, (p, k, d))


def _frozen(value):
    return isinstance(value, (int, str)) or (
        isinstance(value, tuple) and all(_frozen(x) for x in value))


class TestOrbitMemo:
    """The orbit memo hands out copies, and holds nothing a caller could mutate."""

    def test_mutating_results_changes_nothing_later(self):
        basis = orbit_basis(3, FREE)
        want_basis = list(basis)
        basis.reverse()
        basis.append((9, 9, 9, 9))
        basis[0] = ()
        spec = SigmaSpec(3, FREE)
        cached = build_sigma_complex(spec)
        assert orbit_basis(3, FREE) == want_basis == reference_basis(3, FREE)
        assert_same_rows(orbit_block("push", 3, 2, FREE), oracle_push(3, 2, FREE), "push")
        assert_same_rows(orbit_block("pull", 3, 2, FREE), oracle_pull(3, 2, FREE), "pull")
        fresh = build_sigma_complex.__wrapped__(spec)
        for d, a in reference_differentials(3, FREE).items():
            assert_same_rows(fresh.differential(d), a, d)
            assert_same_rows(cached.differential(d), a, d)
        for d, a in reference_map(3, FREE, FREE, lambda v: ((1 - v[0],) + v[1:],)).items():
            assert_same_rows(involution_map(3).component(d), a, d)

    def test_memoised_values_are_immutable(self):
        build_sigma_complex.__wrapped__(SigmaSpec(4, FIXED))
        transfer_map(-3)
        assert sigmacx._basis.cache_info().currsize > 0
        assert sigmacx._orbit_rows.cache_info().currsize > 0
        for j in range(5):
            for orbit_type in (FIXED, FREE):
                assert _frozen(sigmacx._basis(j, orbit_type))
        for kind, pos, src, tgt in (("push", 0, (4, FIXED), (3, FIXED)),
                                    ("pull", 1, (2, FREE), (3, FREE)),
                                    ("tr", 0, (3, FREE), (3, FIXED)),
                                    ("res", 0, (3, FIXED), (3, FREE)),
                                    ("flip", 0, (3, FREE), (3, FREE))):
            assert _frozen(sigmacx._orbit_rows(kind, pos, src, tgt)), kind


class TestBuildComplex:
    def test_shift_one(self):
        c = build_sigma_complex(SigmaSpec(1, FIXED))
        assert sorted(c.components) == [-1, 0]
        assert c.differential(-1).to_rows() == [[2]]

    def test_shift_two_matches_calibration(self):
        c = build_sigma_complex(SigmaSpec(2, FIXED))
        assert [c.rank(d) for d in (-2, -1, 0)] == [2, 2, 1]
        assert c.differential(-2).to_rows() == [[1, 1], [-1, -1]]
        assert c.differential(-1).to_rows() == [[2, 2]]

    def test_negative_two_matches_calibration(self):
        c = build_sigma_complex(SigmaSpec(-2, FIXED))
        assert c.differential(0).to_rows() == [[1], [1]]
        assert c.differential(1).to_rows() == [[1, -1], [1, -1]]

    def test_shift_three(self):
        c = build_sigma_complex(SigmaSpec(3, FIXED))
        assert [c.rank(d) for d in (-3, -2, -1, 0)] == [4, 6, 3, 1]
        assert cohomology(c, 0) == Z2
        assert cohomology(c, -1) == ZERO
        assert cohomology(c, -2) == Z2
        assert cohomology(c, -3) == ZERO

    def test_unit_shift(self):
        c = build_sigma_complex(SigmaSpec(0, FIXED))
        assert c.components == {0: 1}

    def test_rank_identities(self):
        for n in range(1, 7):
            c = build_sigma_complex(SigmaSpec(n, FIXED))
            assert c.total_rank() == 1 + (3 ** n - 1) // 2
            from math import comb
            for j in range(1, n + 1):
                assert c.rank(-j) == comb(n, j) * 2 ** (j - 1)


class TestShiftBound:
    def test_guard_and_override(self):
        import bredon.sigmacx as sg
        with pytest.raises(ValueError):
            build_sigma_complex(SigmaSpec(sg.SHIFT_BOUND + 1, FIXED))
        assert build_sigma_complex(SigmaSpec(sg.SHIFT_BOUND - 6, FIXED)).rank(0) == 1


class TestWeight0:
    def test_contract_examples(self):
        assert weight0(3, -4, 0) == Z2
        assert weight0(-4, 4, 0) == Z
        assert weight0(-2, 3, 2) == Z2

    def test_out_of_support_is_zero(self):
        assert weight0(5, 3, 0) == ZERO
        assert weight0(-1, -3, 0) == ZERO

    def test_diagonal_values(self):
        # the diagonal: free for even degrees, 2-torsion for odd degrees > 1
        for a in range(-6, 7):
            g = weight0(a, -a, 0)
            if a % 2 == 0:
                assert g == Z
            elif a > 1:
                assert g == Z2
            else:
                assert g == ZERO
        for a in range(-6, 7):
            g2 = weight0(a, -a, 2)
            assert g2 == (ZERO if a == 1 else Z2)

    @pytest.mark.parametrize("p", [9, -9])
    def test_direct_reach_past_the_check_grid(self, p):
        # `check all` stops at |p| = 8; the complex-level sweep reaches p = +-9
        # directly.  tests/test_tables.py pins weight0_closed_form to
        # bredon_point_closed_form on these cells.
        for a in range(-11, 12):
            assert weight0(a, p) == weight0_closed_form(a, p), (a, p)


class TestFreeOrbit:
    def test_acyclicity_small(self):
        for p in range(-4, 5):
            assert free_orbit_acyclicity(p, 0)
            assert free_orbit_acyclicity(p, 2)

    def test_homology_position(self):
        c = build_sigma_complex(SigmaSpec(1, FREE))
        assert all_cohomology(c) == {-1: Z}
        c = build_sigma_complex(SigmaSpec(-1, FREE))
        assert all_cohomology(c) == {1: Z}
        c = build_sigma_complex(SigmaSpec(0, FREE))
        assert all_cohomology(c) == {0: Z}


class TestTransferRestriction:
    def test_rank_one_components(self):
        tr, res = transfer_map(1), restriction_map(1)
        comp = tr.compose(res)
        for d in (-1, 0):
            assert comp.component(d) == IntegerMatrix.identity(tr.target.rank(d)).scale(2)

    def test_involution_shape(self):
        res, tr = restriction_map(2), transfer_map(2)
        comp = res.compose(tr)
        flip = involution_map(2)
        m = comp.component(-1)
        assert m == IntegerMatrix.identity(4) + flip.component(-1)
        # the involution at arity 1 swaps the two classes in each subset block
        assert flip.component(-1).to_rows() == [
            [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]

    def test_full_check(self):
        for p in range(-4, 5):
            assert transfer_restriction_check(p)


class TestConeTower:
    def test_base_case(self):
        assert cone_tower_check(0)

    def test_transfer_cone_sequence_is_exact(self):
        from bredon.chaincx import check_cone_les
        for p in range(0, 4):
            assert check_cone_les(transfer_map(p))

    def test_level_one_ranks(self):
        from bredon.chaincx import cone
        c = cone(transfer_map(1))
        assert {d: c.rank(d) for d in (-2, -1, 0)} == {-2: 2, -1: 2, 0: 1}
        target = build_sigma_complex(SigmaSpec(2, FIXED))
        assert c.differential(-2) == target.differential(-2)
        assert c.differential(-1) == target.differential(-1)

    def test_level_two_cohomology(self):
        assert cone_tower_check(1)
        assert cone_tower_check(2)
        c3 = build_sigma_complex(SigmaSpec(3, FIXED))
        assert {d: str(g) for d, g in all_cohomology(c3).items()} == {0: "Z/2", -2: "Z/2"}


# -- tensor-power oracle ------------------------------------------------------
#
# An independent model of the orbit complexes.  K is Z^2 -> Z on degrees -1, 0
# (basis E0, E1 and U, d = [1 1]) and K_DUAL is Z -> Z^2 on degrees 0, 1; the
# free complex at p is the |p|-fold tensor power T, the new factor first, and
# the fixed complex is its invariants under the swap E0 <-> E1.  A label
# (S, bits) is the word with E_b at each s in S (b the bit of that slot, after
# the free bit at the free orbit) and U elsewhere, with sign (-1)^(j(j-1)/2)
# in degree -+j; a fixed label is the orbit sum of its word.

K = CochainComplex({-1: 2, 0: 1}, {-1: IntegerMatrix.from_rows([[1, 1]])})
K_DUAL = CochainComplex({0: 1, 1: 2}, {0: IntegerMatrix.from_rows([[1], [1]])})


def tensor_power(p):
    t = unit_complex()
    for _ in range(abs(p)):
        t = tensor(K if p > 0 else K_DUAL, t)
    return t


def tensor_power_model(p):
    """T, and per degree the matrices of the free labels, the fixed orbit sums
    and the swap in T's basis: T's words in lexicographic order with
    U < E0 < E1 for p > 0 and E0 < E1 < U for p < 0 (E_b is the letter b)."""
    m, u = abs(p), (-1 if p > 0 else 2)
    t = tensor_power(p)
    free, fixed, swap = {}, {}, {}
    for d in t.degrees():
        j = abs(d)
        sign = -1 if j * (j - 1) // 2 % 2 else 1
        words = sorted(w for w in product((u, 0, 1), repeat=m)
                       if sum(x != u for x in w) == j)
        assert len(words) == t.rank(d)
        index = {w: i for i, w in enumerate(words)}

        def word(subset, slot_bits):
            w = [u] * m
            for s, b in zip(subset, slot_bits):
                w[s - 1] = b
            return tuple(w)

        def flip(w):
            return tuple(x if x == u else 1 - x for x in w)

        def labels(orbit_type):
            return [(subset, bits) for subset in combinations(range(1, m + 1), j)
                    for bits in orbit_basis(j, orbit_type)]

        free_labels, fixed_labels = labels(FREE), labels(FIXED)
        free[d] = IntegerMatrix(len(words), len(free_labels), {
            (index[word(s, bits[1:])], col): sign
            for col, (s, bits) in enumerate(free_labels)})
        fixed[d] = IntegerMatrix(len(words), len(fixed_labels), {
            (index[w], col): sign
            for col, (s, bits) in enumerate(fixed_labels)
            for w in {word(s, bits), flip(word(s, bits))}})
        swap[d] = IntegerMatrix(len(words), len(words), {
            (index[flip(w)], i): 1 for i, w in enumerate(words)})
    return t, free, fixed, swap


def check_tensor_power_model(p):
    t, free, fixed, swap = tensor_power_model(p)
    free_cx = build_sigma_complex(SigmaSpec(p, FREE))
    fixed_cx = build_sigma_complex(SigmaSpec(p, FIXED))
    assert free_cx.components == t.components
    for d in t.degrees()[:-1]:
        assert t.differential(d) @ free[d] == free[d + 1] @ free_cx.differential(d), d
        assert t.differential(d) @ fixed[d] == fixed[d + 1] @ fixed_cx.differential(d), d
    tr, res, inv = transfer_map(p), restriction_map(p), involution_map(p)
    for d in t.degrees():
        norm = swap[d] + IntegerMatrix.identity(t.rank(d))
        assert fixed[d] @ tr.component(d) == norm @ free[d], d
        assert free[d] @ res.component(d) == fixed[d], d
        assert free[d] @ inv.component(d) == swap[d] @ free[d], d


class TestTensorPowerOracle:
    @pytest.mark.parametrize("p", [p for p in range(-7, 8) if p])
    def test_free_and_fixed_complexes_and_maps(self, p):
        check_tensor_power_model(p)


# -- the reduction engine on the orbit differentials ------------------------

def _differentials(shifts):
    for p in shifts:
        for orbit_type in (FIXED, FREE):
            c = build_sigma_complex(SigmaSpec(p, orbit_type))
            for degree in c.degrees():
                a = c.differential(degree)
                if not a.is_zero():
                    yield (p, orbit_type, degree), a


def _swept_diagonals(shifts):
    """(where, c, diagonals) for fresh complexes c at each shift: fixed and
    free, and cone(tr) for 0 <= p <= 6.  diagonals maps each degree k with
    d^k nonzero to the diagonal read off the complex's Morse record: one 1
    per unit pivot of d^k, then the diagonal of d^k's part d_M on the Morse
    model."""
    for p in shifts:
        complexes = [(orbit_type, build_sigma_complex.__wrapped__(SigmaSpec(p, orbit_type)))
                     for orbit_type in (FIXED, FREE)]
        if 0 <= p <= 6:
            complexes.append(("cone", cone(transfer_map(p))))
        for kind, c in complexes:
            lo, hi = c.support()
            swept = c._record().sweep(hi - lo)
            yield (p, kind), c, {
                k: [1] * swept.units[k - lo] + snf_diagonal(c._model(k)[1])
                for k in range(lo, hi + 1) if not c.differential(k).is_zero()}


class TestEngineOnOrbitDifferentials:
    """The Smith engine against independent oracles at production size."""

    def test_diagonal_prime_by_prime(self):
        # every rank is compared with the integral diagonal, which does not
        # use the lemma behind the swept oracle
        for where, c, diagonals in _swept_diagonals(range(-8, 9)):
            swept = {ell: swept_ranks_oracle(c, ell) for ell in (2, 3, 5, 2**31 - 1)}
            for k, diag in diagonals.items():
                a = c.differential(k)
                assert diag == snf_diagonal(a), (where, k)
                assert all(d > 0 for d in diag), (where, k)
                assert all(hi % lo == 0 for lo, hi in zip(diag, diag[1:])), (where, k)
                for ell, ranks in swept.items():
                    assert sum(1 for d in diag if d % ell) == ranks[k], (where, k, ell)
                assert sum(1 for d in diag if d % 2) == rank_mod(a), (where, k)

    def test_swept_oracle_against_the_whole_matrix_oracle(self, rng):
        # the lemma on complexes whose differentials lose rank mod 2 and 3
        for _ in range(60):
            c = random_complex(rng, max_deg=3, max_rank=6)
            for ell in (2, 3):
                ranks = swept_ranks_oracle(c, ell)
                assert ranks == {k: rank_mod_oracle(c.differential(k), ell) for k in ranks}, c

    @pytest.mark.parametrize("p", [5, -5, 7, -7])
    def test_smith_identity_and_inverse_transforms(self, p, rng):
        for where, a in _differentials((p,)):
            u, d, v = smith_normal_form(a)
            assert u @ a @ v == d, where
            red = abgrp._reduce(a)
            assert (red.matrix_u(), red.matrix_d(), red.matrix_v()) == (u, d, v), where
            assert_transforms(red, rng, where)
