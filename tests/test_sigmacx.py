"""Orbit combinatorics, the shift complexes, and the structural checks."""

import gc
import re
from bisect import bisect_left
from itertools import combinations, product

import pytest

from bredon import abgrp, chaincx, cli, sigmacx
from bredon.abgrp import (
    FgAbelianGroup,
    IntegerMatrix,
    rank_mod,
    smith_normal_form,
    snf_diagonal,
)
from bredon.chaincx import (
    ChainMap,
    CochainComplex,
    ComplexError,
    all_cohomology,
    cohomology,
    cone,
    unit_complex,
    validate,
)
from bredon.sigmacx import (
    FIXED,
    FREE,
    SigmaSpec,
    build_sigma_complex,
    cone_identification,
    cone_tower_check,
    free_orbit_acyclicity,
    involution_map,
    restriction_map,
    transfer_map,
    transfer_restriction_check,
    weight0,
)
from bredon.tables import weight0_closed_form

from conftest import (
    assert_transforms,
    random_complex,
    rank_mod_oracle,
    swept_ranks_oracle,
    tensor,
)

Z = FgAbelianGroup.free(1)
Z2 = FgAbelianGroup.cyclic(2)
ZERO = FgAbelianGroup.zero()


# -- enumeration oracle for the push/pull coefficients ----------------------
#
# A basis class is a cycle: the pair {v, complement(v)} of bit strings, or a
# single point for the fixed arity-0 class.  Pushing forward (or pulling
# back) the cycle gives a multiset of points, and the coefficient of a basis
# class in that multiset is the multiplicity of its canonical representative.
# This is the rule sigmacx._orbit_block implements; the tensor-power oracle
# below checks it independently.  The basis labels are the classes' canonical
# representatives as tuples, enumerated bit by bit, independently of the
# integer codes of sigmacx.

def reference_basis(j, orbit_type):
    """The canonical representatives of the arity-j classes in lexicographic
    order: (0,) followed by every bit string of width - 1, or () at width 0."""
    width = j + (1 if orbit_type == FREE else 0)
    if width == 0:
        return [()]
    return [(0,) + tuple((k >> (width - 2 - i)) & 1 for i in range(width - 1))
            for k in range(2 ** (width - 1))]


def reference_identification(p):
    """cone_identification as it reads from the label tuples: per degree -j,
    a fixed label (S, v) of the cone goes to (S, v) at p + 1, and a free
    label (S, (e, v)) to (S + {p+1}, v e), the free bit moved last and the
    label made canonical."""
    perms = {}
    for j in range(p + 2):
        _, offset, _ = reference_layout(p + 1, j, FIXED)
        index = _basis_index(j, FIXED)
        perm = [offset[s] + index[bits] for s in combinations(range(1, p + 1), j)
                for bits in reference_basis(j, FIXED)]
        for s in (combinations(range(1, p + 1), j - 1) if j else ()):
            for bits in reference_basis(j - 1, FREE):
                moved = bits[1:] + bits[:1]
                moved = tuple(1 - b for b in moved) if moved[0] else moved
                perm.append(offset[s + (p + 1,)] + index[moved])
        perms[-j] = perm
    return perms


def _cycle_points(bits, free):
    if not free and not bits:
        return [()]
    return [bits, tuple(1 - b for b in bits)]


def _basis_index(arity, orbit_type):
    return {b: i for i, b in enumerate(reference_basis(arity, orbit_type))}


def _express_in_basis(point_multiset, index):
    coeffs = {}
    for point, mult in point_multiset.items():
        if point in index:
            coeffs[index[point]] = mult
    return coeffs


def oracle_push(j, drop_index, orbit_type):
    free = orbit_type == FREE
    src = reference_basis(j, orbit_type)
    tgt = reference_basis(j - 1, orbit_type)
    pos = drop_index - 1 + (1 if free else 0)
    index = _basis_index(j - 1, orbit_type)
    entries = {}
    for col, bits in enumerate(src):
        image = {}
        for point in _cycle_points(bits, free):
            shorter = point[:pos] + point[pos + 1:]
            image[shorter] = image.get(shorter, 0) + 1
        for row, c in _express_in_basis(image, index).items():
            entries[(row, col)] = c
    return IntegerMatrix(len(tgt), len(src), entries)


def oracle_pull(j, insert_index, orbit_type):
    free = orbit_type == FREE
    src = reference_basis(j - 1, orbit_type)
    tgt = reference_basis(j, orbit_type)
    pos = insert_index - 1 + (1 if free else 0)
    index = _basis_index(j, orbit_type)
    entries = {}
    for col, bits in enumerate(src):
        fiber = {}
        for point in _cycle_points(bits, free):
            for b in (0, 1):
                lifted = point[:pos] + (b,) + point[pos:]
                fiber[lifted] = fiber.get(lifted, 0) + 1
        for row, c in _express_in_basis(fiber, index).items():
            entries[(row, col)] = c
    return IntegerMatrix(len(tgt), len(src), entries)


class TestOrbitBasis:
    def test_sizes(self):
        assert reference_basis(0, FIXED) == [()]
        assert reference_basis(2, FIXED) == [(0, 0), (0, 1)]
        assert len(reference_basis(3, FIXED)) == 4
        assert len(reference_basis(3, FREE)) == 8
        assert reference_basis(0, FREE) == [(0,)]
        for j in range(sigmacx.SHIFT_BOUND + 1):
            for orbit_type in (FIXED, FREE):
                assert sigmacx._arity_size(j, orbit_type) == len(reference_basis(j, orbit_type))

    def test_enumeration_oracle(self):
        # brute force: orbits of the complement action on bit strings
        for j in range(0, 6):
            seen = set()
            for k in range(2 ** j):
                bits = tuple((k >> (j - 1 - i)) & 1 for i in range(j))
                seen.add(tuple(1 - b for b in bits) if bits and bits[0] else bits)
            assert sorted(seen) == reference_basis(j, FIXED)


def orbit_block(kind, j, index, orbit_type):
    """The push from arity j to j - 1, or the pull from j - 1 to j, at the
    1-based coordinate index: the memoised block of sigmacx."""
    big, small = (j, orbit_type), (j - 1, orbit_type)
    src, tgt = (big, small) if kind == "push" else (small, big)
    return sigmacx._orbit_block(kind, index - 1 + (1 if orbit_type == FREE else 0), src, tgt)


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
            rows = m.to_rows()
            for j in range(2):
                assert sum(rows[i][j] for i in range(4)) == 2
                assert all(rows[i][j] in (0, 1) for i in range(4))

    def test_against_enumeration_oracle(self):
        # equal matrices, each row listing its keys in the same order, at
        # every arity a build within the shift bound uses
        for orbit_type in (FIXED, FREE):
            for j in range(1, sigmacx.SHIFT_BOUND + 1):
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


MAP_IMAGES = (("tr", FREE, FIXED, lambda v: (v[1:],)),
              ("res", FIXED, FREE, lambda v: ((0,) + v, (1,) + v)),
              ("flip", FREE, FREE, lambda v: ((1 - v[0],) + v[1:],)))


class TestMapBlocks:
    def test_against_the_reference_blocks(self):
        # the tr, res and flip blocks of sigmacx against the label-tuple rule,
        # key order included, at every arity a map within the shift bound uses
        for kind, src_type, tgt_type, image in MAP_IMAGES:
            for j in range(sigmacx.SHIFT_BOUND + 1):
                want = reference_block(reference_basis(j, src_type),
                                       reference_basis(j, tgt_type), image)
                assert_same_rows(sigmacx._orbit_block(kind, 0, (j, src_type), (j, tgt_type)),
                                 want, (kind, j))


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
            maps = (transfer_map(p), restriction_map(p), involution_map(p))
            for k, (f, (_, src_type, tgt_type, image)) in enumerate(zip(maps, MAP_IMAGES)):
                want = reference_map(p, src_type, tgt_type, image)
                assert set(f.maps) <= set(want), (p, k)
                for d, a in want.items():
                    assert_same_rows(f.component(d), a, (p, k, d))


class TestIncidences:
    def test_against_the_subsets(self):
        # each row of _faces(m, j) lists, in slot order, the ranks of the
        # faces of the size-(j + 1) subset of its rank, at every m a build
        # within the shift bound uses; ranks found by bisection in the
        # sorted subsets, faces by dropping one element
        for m in range(1, sigmacx.SHIFT_BOUND + 1):
            for j in range(m):
                smalls = sorted(combinations(range(1, m + 1), j))
                want = tuple(tuple(bisect_left(smalls, tuple(x for x in big if x != drop))
                                   for drop in big)
                             for big in sorted(combinations(range(1, m + 1), j + 1)))
                assert sigmacx._faces(m, j) == want, (m, j)


def _row_dicts(matrix):
    """The dicts that a matrix holds, one per row, found through the garbage
    collector so that the test does not read abgrp's private layout."""
    held = [d for value in gc.get_referents(matrix) if isinstance(value, list)
            for d in value if isinstance(d, dict)]
    assert len(held) == matrix.rows
    return held


class TestOrbitMemo:
    """Every caller gets fresh lists, and no matrix a caller gets shares a row
    with a memoised block."""

    def test_mutating_results_changes_nothing_later(self):
        perms = cone_identification(3)
        want_perms = {d: list(perm) for d, perm in perms.items()}
        perms[-1].reverse()
        perms[-2].append(99)
        perms[0] = []
        spec = SigmaSpec(3, FREE)
        cached = build_sigma_complex(spec)
        assert cone_identification(3) == want_perms == reference_identification(3)
        assert_same_rows(orbit_block("push", 3, 2, FREE), oracle_push(3, 2, FREE), "push")
        assert_same_rows(orbit_block("pull", 3, 2, FREE), oracle_pull(3, 2, FREE), "pull")
        fresh = build_sigma_complex.__wrapped__(spec)
        for d, a in reference_differentials(3, FREE).items():
            assert_same_rows(fresh.differential(d), a, d)
            assert_same_rows(cached.differential(d), a, d)
        for d, a in reference_map(3, FREE, FREE, lambda v: ((1 - v[0],) + v[1:],)).items():
            assert_same_rows(involution_map(3).component(d), a, d)

    def test_memoised_values_are_immutable(self):
        # every assembled matrix writes fresh rows, so no caller can reach a
        # row of a memoised block through a complex, a map or a cone
        assembled = [d for c in (build_sigma_complex.__wrapped__(SigmaSpec(4, FIXED)),
                                 build_sigma_complex.__wrapped__(SigmaSpec(-3, FREE)),
                                 cone(transfer_map(3)))
                     for d in c.differentials.values()]
        for make in (transfer_map, restriction_map, involution_map):
            assembled += [*make(3).maps.values(), *make(-3).maps.values()]
        memoised = [block for kind, j, orbit_type in (("push", 3, FIXED), ("pull", 2, FREE),
                                                      ("push", 2, FREE))
                    for block in sigmacx._slot_matrices(kind, j, orbit_type)]
        memoised += [sigmacx._orbit_block(kind, 0, (j, src), (j, tgt))
                     for kind, src, tgt, _ in MAP_IMAGES for j in range(4)]
        assert sigmacx._orbit_block.cache_info().currsize >= len(memoised)
        rows = {id(row) for block in memoised for row in _row_dicts(block)}
        assert not any(id(row) in rows for a in assembled for row in _row_dicts(a))


@pytest.fixture
def fresh_memos():
    """Empty the orbit blocks, the incidence lists, their matrices, the
    certificates, the map blocks, the complexes and the registry of the
    complexes that group queries read, before and after a test, so that a
    planted block is certified and built afresh and leaves nothing behind."""
    memos = (sigmacx._orbit_block, sigmacx._faces, sigmacx._slot_matrices,
             sigmacx._map_certificate, sigmacx._map_blocks, build_sigma_complex)

    def empty():
        for memo in memos:
            memo.cache_clear()
        sigmacx._readers.clear()

    empty()
    yield
    empty()


def _plant(monkeypatch, key, change):
    """Serve change(block) for the orbit block of key, every other block as it is."""
    original = sigmacx._orbit_block

    def planted(*args):
        return change(original(*args)) if args == key else original(*args)

    monkeypatch.setattr(sigmacx, "_orbit_block", planted)


def _bump_first_entry(block):
    (first, value), *rest = block.items()
    return IntegerMatrix(block.rows, block.cols, {first: value + 1, **dict(rest)})


def _assert_layout_refused(monkeypatch, capsys, n, orbit_type, arity, change):
    """Serve change(j, ranks) for every subset layout: the build of shift n
    fails in one line naming the first broken arity, and so does the command
    line at the fixed point."""
    original = sigmacx._subset_index
    monkeypatch.setattr(sigmacx, "_subset_index", lambda m, j: change(j, original(m, j)))
    message = (f"the arity-{arity} subset layout of {{1..{abs(n)}}} does not rank its "
               f"{len(original(abs(n), arity))} subsets 0, 1, ... in order")
    with pytest.raises(ComplexError, match=f"^{re.escape(message)}$"):
        build_sigma_complex(SigmaSpec(n, orbit_type))
    if orbit_type == FIXED:
        assert cli.main(["weight0", "--a", "0", "--p", str(n)]) == 2
        assert capsys.readouterr().err == f"bredon: error: {message}\n"


class TestCertificates:
    """The certified constructions skip validate; validate is their oracle here."""

    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    def test_every_orbit_complex_passes_validate(self, orbit_type):
        for p in range(-9, 10):
            assert validate(build_sigma_complex(SigmaSpec(p, orbit_type))), p

    def test_transfer_restriction_and_flip_pass_validate(self):
        for p in range(-8, 9):
            for f in (transfer_map(p), restriction_map(p), involution_map(p)):
                assert f.validate(), p

    def test_cones_of_the_transfer_pass_validate(self):
        for p in range(0, 8):
            assert validate(cone(transfer_map(p))), p

    def test_certified_builds_skip_validate(self, monkeypatch, fresh_memos):
        calls = []
        monkeypatch.setattr(chaincx, "validate", lambda c: calls.append(c) or True)
        monkeypatch.setattr(ChainMap, "validate", lambda f: calls.append(f) or True)
        build_sigma_complex(SigmaSpec(3, FIXED))
        transfer_map(-3)
        cone(transfer_map(3))
        assert calls == []

    # a pull block is the transpose of its push block, so a defect planted
    # in a push block reaches the pull complex too, and fails its build
    @pytest.mark.parametrize("n", [4, -4])
    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    def test_a_changed_block_entry_fails_the_build(self, monkeypatch, fresh_memos,
                                                   n, orbit_type):
        first = 1 if orbit_type == FREE else 0
        _plant(monkeypatch, ("push", first + 1, (3, orbit_type), (2, orbit_type)),
               _bump_first_entry)
        with pytest.raises(ComplexError, match="coface identity"):
            build_sigma_complex(SigmaSpec(n, orbit_type))

    @pytest.mark.parametrize("n", [5, -5])
    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    def test_two_swapped_slot_blocks_fail_the_build(self, monkeypatch, fresh_memos,
                                                    n, orbit_type):
        first = 1 if orbit_type == FREE else 0
        ends = ((4, orbit_type), (3, orbit_type))
        original = sigmacx._orbit_block
        swap = {first: first + 2, first + 2: first}

        def swapped(k, pos, src, tgt):
            if k == "push" and (src, tgt) == ends:
                pos = swap.get(pos, pos)
            return original(k, pos, src, tgt)

        monkeypatch.setattr(sigmacx, "_orbit_block", swapped)
        with pytest.raises(ComplexError, match="coface identity"):
            build_sigma_complex(SigmaSpec(n, orbit_type))

    @pytest.mark.parametrize("n", [4, -4])
    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    @pytest.mark.parametrize("slot", [(1, 0), (2, 1), (3, 3)])
    def test_one_flipped_koszul_sign_fails_the_build(self, monkeypatch, fresh_memos,
                                                     n, orbit_type, slot):
        original = sigmacx._koszul_sign
        monkeypatch.setattr(sigmacx, "_koszul_sign",
                            lambda j, idx: -original(j, idx) if (j, idx) == slot
                            else original(j, idx))
        with pytest.raises(ComplexError, match="Koszul signs of arity .* coface identity"):
            build_sigma_complex(SigmaSpec(n, orbit_type))

    # a res block is the transpose of its tr block, so the res map is
    # planted through the tr block it is derived from
    @pytest.mark.parametrize("make,kind,src,tgt", [
        (transfer_map, "tr", FREE, FIXED), (restriction_map, "tr", FREE, FIXED),
        (involution_map, "flip", FREE, FREE)])
    def test_a_changed_map_block_fails_the_map(self, monkeypatch, fresh_memos,
                                               make, kind, src, tgt):
        _plant(monkeypatch, (kind, 0, (2, src), (2, tgt)), _bump_first_entry)
        for p in (3, -3):
            with pytest.raises(ComplexError, match="does not commute"):
                make(p)

    @pytest.mark.parametrize("key, n", [(("push", 1, (3, FIXED), (2, FIXED)), 4),
                                        (("push", 2, (3, FREE), (2, FREE)), -4),
                                        (("tr", 0, (2, FREE), (2, FIXED)), 3)])
    def test_a_block_outside_its_shape_fails(self, monkeypatch, capsys, fresh_memos, key, n):
        # an entry 64 columns past the block's width, the block widened to
        # hold it, fails the shape check before a certificate's product or
        # the assembly reads it: a one-line error, not a shape mismatch; a
        # pull build (shift -4) and the res map (from the tr block) read the
        # widened block transposed
        def widened(block):
            return IntegerMatrix(block.rows, block.cols + 64,
                                 {**dict(block.items()), (block.rows - 1, block.cols + 63): 1})

        _plant(monkeypatch, key, widened)
        with pytest.raises(ComplexError, match="does not fit"):
            if key[0] == "tr":
                restriction_map(n)
            else:
                build_sigma_complex(SigmaSpec(n, key[2][1]))
        if n == 4:
            assert cli.main(["weight0", "--a", "0", "--p", "4"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("bredon: error: the push slot 1") and err.count("\n") == 1

    @pytest.mark.parametrize("n, orbit_type", [(4, FIXED), (-4, FREE)])
    def test_a_block_past_its_component_fails(self, monkeypatch, capsys, fresh_memos,
                                              n, orbit_type):
        # every arity-2 rank after the first moved up by one: each block fits
        # its shape, but the last subset's block would end past the
        # component; the layout check refuses it before any block is placed
        _assert_layout_refused(monkeypatch, capsys, n, orbit_type, 2,
                               lambda j, ranks: {s: k + (j == 2 and k > 0)
                                                 for s, k in ranks.items()})

    @pytest.mark.parametrize("n, orbit_type", [(4, FIXED), (-4, FREE)])
    def test_two_subsets_at_one_rank_fail_the_build(self, monkeypatch, capsys, fresh_memos,
                                                    n, orbit_type):
        # the second arity-2 subset given the rank of the first: every block
        # fits its shape and ends within its component, but two blocks of a
        # band would overlap; unchecked, the build wrote one over the other
        # and the complex had d.d != 0
        _assert_layout_refused(monkeypatch, capsys, n, orbit_type, 2,
                               lambda j, ranks: {s: k - (j == 2 and k == 1)
                                                 for s, k in ranks.items()})

    @pytest.mark.parametrize("n", [4, -4])
    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    @pytest.mark.parametrize("layout, arity", [("reversed", 1), ("merged", 2)])
    def test_a_broken_subset_layout_fails_the_build(self, monkeypatch, capsys, fresh_memos,
                                                    n, orbit_type, layout, arity):
        # every rank reversed, or (3, 4) given the rank of (1, 2): no block
        # ends past its component and no two overlap in a band, and unchecked
        # the build gave a complex with d.d != 0 (all but the reversed push)
        def reversed_ranks(j, ranks):
            return {s: len(ranks) - 1 - k for s, k in ranks.items()}

        def merged(j, ranks):
            return {s: ranks[(1, 2)] if s == (3, 4) else k for s, k in ranks.items()}

        _assert_layout_refused(monkeypatch, capsys, n, orbit_type, arity,
                               {"reversed": reversed_ranks, "merged": merged}[layout])

    @pytest.mark.parametrize("n", [4, -4])
    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    def test_a_reversed_incidence_row_fails_the_build(self, monkeypatch, capsys, fresh_memos,
                                                      n, orbit_type):
        # the faces of (1, 2) served in reverse slot order: one list places
        # both orientations, and the row of (1, 2, 3), whose face in slot 2
        # is (1, 2), fails the simplicial identity against it, so the first
        # build of either sign fails in one line
        original = sigmacx._faces
        monkeypatch.setattr(sigmacx, "_faces", lambda m, j: (
            (original(m, j)[0][::-1],) + original(m, j)[1:] if (m, j) == (4, 1)
            else original(m, j)))
        message = "the faces of (1, 2, 3) in {1..4} fail the simplicial identity at slots 0 < 2"
        with pytest.raises(ComplexError, match=f"^{re.escape(message)}$"):
            build_sigma_complex(SigmaSpec(n, orbit_type))
        if (n, orbit_type) == (-4, FIXED):     # the first build of the suite
            assert cli.main(["check", "weight0-integral", "--p-max", "4"]) == 2
            assert capsys.readouterr().err == f"bredon: error: {message}\n"

    @pytest.mark.parametrize("n", [2, -4])
    def test_two_subsets_ranked_out_of_order_fail_the_build(self, monkeypatch, fresh_memos, n):
        # (2,) ranked 0 and (1,) ranked 1, in the layout's own order: the
        # layout check passes, and the simplicial identity, vacuous between
        # arities 2 and 1, cannot see it; the faces of (1, 2) then rise with
        # the slot, which the slot-order half of the certificate refuses
        original = sigmacx._subset_index

        def swapped(m, j):
            keys = list(original(m, j))
            if j == 1:
                keys[0], keys[1] = keys[1], keys[0]
            return {s: k for k, s in enumerate(keys)}

        monkeypatch.setattr(sigmacx, "_subset_index", swapped)
        with pytest.raises(ComplexError, match=re.escape(
                f"the faces of (1, 2) in {{1..{abs(n)}}} fail the simplicial identity at "
                f"slots 0 < 1")):
            build_sigma_complex(SigmaSpec(n, FIXED))

    def test_a_failed_certificate_fails_again(self, monkeypatch, fresh_memos):
        _plant(monkeypatch, ("push", 1, (3, FIXED), (2, FIXED)), _bump_first_entry)
        for _ in range(2):
            with pytest.raises(ComplexError):
                build_sigma_complex(SigmaSpec(4, FIXED))


def _negate_arity(monkeypatch, j, orbit_type):
    """Every push slot block between arities j + 1 and j served negated, as
    if each of its Koszul signs were flipped; the pull blocks, their
    transposes, are negated with them."""
    first = 1 if orbit_type == FREE else 0
    keys = {("push", first + idx, (j + 1, orbit_type), (j, orbit_type)) for idx in range(j + 1)}
    original = sigmacx._orbit_block
    monkeypatch.setattr(sigmacx, "_orbit_block",
                        lambda *args: -original(*args) if args in keys else original(*args))


def _rotate_bands(monkeypatch, side):
    """Each row band of every differential of side, push or pull, moved to
    the next subset's band, cyclically: every push (or pull) source is
    placed in the band of the next subset.  A no-op where the rows form one
    band (the push at arity 0, the pull at the top arity)."""
    original = sigmacx._differential

    def rotated(n, j, orbit_type):
        src, d = original(n, j, orbit_type)
        if (n > 0) != (side == "push"):
            return src, d
        height = sigmacx._arity_size(j if n > 0 else j + 1, orbit_type)
        return src, IntegerMatrix(d.rows, d.cols, {((i + height) % d.rows, k): v
                                                   for (i, k), v in d.items()})

    monkeypatch.setattr(sigmacx, "_differential", rotated)


@pytest.fixture(scope="module")
def own_groups():
    """(p, orbit type) -> the nonzero groups over Z and over Z/2 of every
    orbit complex with 1 <= |p| <= 9, each from its own sweep and ranks."""
    out = {}
    for p in range(-9, 10):
        for orbit_type in (FIXED, FREE):
            if p:
                c = build_sigma_complex.__wrapped__(SigmaSpec(p, orbit_type))
                out[p, orbit_type] = (all_cohomology(c), all_cohomology(c, 2))
    return out


class TestTwins:
    """The complexes at p and -p are twins: a group of either is read off
    the Smith diagonals and Z/2 ranks of the one the module holds, so group
    queries build one complex per pair, and the groups do not depend on
    which one was built."""

    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    @pytest.mark.parametrize("first", [1, -1])
    def test_groups_of_the_unbuilt_side_equal_the_own_sweep(self, fresh_memos, own_groups,
                                                            orbit_type, first):
        # the complex at first * p is built and swept only as far as its
        # lowest group needs; the other side is never built, and reads every
        # group, from the top down, off it, extending its sweep
        for size in range(1, 10):
            built, unbuilt = (SigmaSpec(sign * size, orbit_type) for sign in (first, -first))
            swept = sigmacx._group_complex(built)
            lo = swept.support()[0]
            cohomology(swept, lo), cohomology(swept, lo, 2)
            read = sigmacx._group_complex(unbuilt)
            assert swept is build_sigma_complex(built) and read._twin is swept
            assert build_sigma_complex.cache_info().misses == size, unbuilt
            lo, hi = read.support()
            for m, want in zip((0, 2), own_groups[unbuilt.n, orbit_type]):
                got = {k: cohomology(read, k, m) for k in range(hi + 1, lo - 2, -1)}
                assert {k: g for k, g in got.items() if not g.is_trivial()} == want, (unbuilt, m)
            assert read._morse is None and read.components == {
                -d: r for d, r in swept.components.items()}, unbuilt

    @pytest.mark.parametrize("walk", [1, -1])
    def test_a_group_only_run_builds_one_complex_per_pair(self, monkeypatch, fresh_memos, walk):
        # every group over Z and Z/2 of both signs of |p| <= 7, walked upward
        # (as the suites walk) or downward: the first side of each pair is
        # built and each of its differentials swept and ranked once; only the
        # fixed arity-0 differential of the other side is reduced and ranked
        # alone, with the diagonal (2) on the push side and (1) on the pull side
        sweeps, alone, ranked = [], [], []
        run = abgrp._Reduction.run
        monkeypatch.setattr(abgrp._Reduction, "run",
                            lambda red: red.units_only and sweeps.append(red) or run(red))
        monkeypatch.setattr(chaincx, "snf_diagonal", lambda a: alone.append(a) or snf_diagonal(a))
        monkeypatch.setattr(chaincx, "rank_mod", lambda a: ranked.append(a) or rank_mod(a))
        for p in range(-7 * walk, 7 * walk + walk, walk):
            for m in (0, 2):
                assert free_orbit_acyclicity(p, m)
                for a in range(-abs(p), abs(p) + 1):
                    assert weight0(a, p, m) == weight0_closed_form(a, p, m), (a, p, m)
        assert build_sigma_complex.cache_info().misses == 2 * 8
        built = [build_sigma_complex(SigmaSpec(-7 * walk + k * walk, t))
                 for k in range(8) for t in (FIXED, FREE)]
        assert [sigmacx._readers[SigmaSpec(-7 * walk + k * walk, t)] for k in range(8)
                for t in (FIXED, FREE)] == built
        differentials = sum(len(c.differentials) for c in built)
        assert len(sweeps) == differentials and len(ranked) == differentials + 7
        assert [(a.rows, a.cols) for a in alone] == [(1, n) if walk == 1 else (n, 1)
                                                     for n in range(1, 8)]
        for n in range(1, 8):
            mirror = sigmacx._readers[SigmaSpec(n * walk, FIXED)]
            assert mirror._twin is build_sigma_complex(SigmaSpec(-n * walk, FIXED))
            assert mirror._lone == ({-1: (2,)} if walk == 1 else {0: (1,)}), n
            assert not sigmacx._readers[SigmaSpec(n * walk, FREE)]._lone

    @pytest.mark.parametrize("p", [3, -4])
    def test_a_map_after_the_group_queries_gets_the_complex_it_names(self, fresh_memos,
                                                                    own_groups, p):
        # the groups at -p are read off the complex at p; the transfer at -p
        # then builds and owns both complexes it names, and is a chain map;
        # the groups at -p are still read off the same reader and do not change
        for n in (p, -p):
            free_orbit_acyclicity(n), free_orbit_acyclicity(n, 2)
            for m in (0, 2):
                for a in range(-abs(n), abs(n) + 1):
                    weight0(a, n, m)
        readers = {t: sigmacx._readers[SigmaSpec(-p, t)] for t in (FIXED, FREE)}
        assert all(c._twin is not None for c in readers.values())
        tr = transfer_map(-p)
        assert tr.target is build_sigma_complex(SigmaSpec(-p, FIXED))
        assert tr.source is build_sigma_complex(SigmaSpec(-p, FREE))
        assert tr.target == build_sigma_complex.__wrapped__(SigmaSpec(-p, FIXED))
        assert tr.source == build_sigma_complex.__wrapped__(SigmaSpec(-p, FREE))
        assert tr.source._twin is None and tr.target._twin is None and tr.validate()
        assert transfer_restriction_check(-p)
        for t, c in readers.items():
            assert sigmacx._readers[SigmaSpec(-p, t)] is c
            assert (all_cohomology(c), all_cohomology(c, 2)) == own_groups[-p, t]
            assert (all_cohomology(build_sigma_complex(SigmaSpec(-p, t))),
                    all_cohomology(build_sigma_complex(SigmaSpec(-p, t)), 2)) == own_groups[-p, t]

    def test_maps_and_cones_register_nothing_for_group_queries(self, fresh_memos):
        # only a group query writes the registry: after a transfer, a
        # restriction and a cone tower it is empty, and the next group query
        # registers the complex that the maps built, without building it again
        transfer_map(3), restriction_map(-3), cone_tower_check(2)
        assert not sigmacx._readers
        misses = build_sigma_complex.cache_info().misses
        weight0(0, -3)
        spec = SigmaSpec(-3, FIXED)
        assert list(sigmacx._readers) == [spec]
        assert sigmacx._readers[spec] is build_sigma_complex(spec)
        assert build_sigma_complex.cache_info().misses == misses

    @pytest.mark.parametrize("side, by_presentation, by_query", [("push", "Z", "0"),
                                                                 ("pull", "0", "Z")])
    def test_a_rotated_band_fails_transfer_restriction(self, monkeypatch, capsys, fresh_memos,
                                                       side, by_presentation, by_query):
        # every push (or pull) source placed in the next subset's band: every
        # build and map certificate passes; at p < 0 the maps and the
        # group queries read the same complexes, but at p = 4 the maps read
        # the complexes they built at 4 and the group query a mirror of the
        # complex at -4, assembled apart, and H^-3 differs
        _rotate_bands(monkeypatch, side)
        assert cli.main(["check", "transfer-restriction", "--p-max", "4"]) == 1
        assert capsys.readouterr().out == (
            "FAIL transfer-restriction: 8/9 cells\n"
            f"  FAIL (p=4): got H^-3 of shift 4 is {by_presentation} by its presentation and "
            f"{by_query} by the group query, expected ok\n")

    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    def test_the_fixed_arity_zero_differential_is_half_the_transpose(self, orbit_type):
        # the duality lemma, entry by entry on the assembled complexes: each
        # differential of C(-p) is the transpose of C(p)'s at the mirrored
        # degree, but half of it at the fixed arity 0
        for p in range(1, 10):
            push, pull = (build_sigma_complex(SigmaSpec(n, orbit_type)) for n in (p, -p))
            for k in range(p):
                d, twin = pull.differential(k), push.differential(-k - 1).transpose()
                half = orbit_type == FIXED and k == 0
                assert (d == twin) != half and d.scale(2 if half else 1) == twin, (p, k)

    @pytest.mark.parametrize("orbit_type", [FIXED, FREE])
    @pytest.mark.parametrize("j", [0, 2])
    def test_negated_push_blocks_of_one_arity_fail_the_first_map(
            self, monkeypatch, fresh_memos, own_groups, orbit_type, j):
        # every push block between arities j and j + 1 negated: d.d = 0 still
        # holds, and the pull blocks are negated with them, so the complexes
        # at +-(j + 1) are isomorphic to the true ones and keep their groups;
        # the first transfer at either sign refuses its commuting square
        _negate_arity(monkeypatch, j, orbit_type)
        assert validate(build_sigma_complex(SigmaSpec(j + 2, orbit_type)))
        for n in (j + 1, -j - 1):
            c = build_sigma_complex(SigmaSpec(n, orbit_type))
            assert validate(c)
            assert (all_cohomology(c), all_cohomology(c, 2)) == own_groups[n, orbit_type], n
            kind = "tr" if n > 0 else "res"
            with pytest.raises(ComplexError, match=re.escape(
                    f"{kind} block does not commute with the push block of slot 0 between "
                    f"arities {j} and {j + 1}")):
                transfer_map(n)

    @pytest.mark.parametrize("orbit_type, suite", [(FIXED, "weight0-integral"),
                                                   (FREE, "free-orbit")])
    def test_a_sign_flipped_arity_is_refused_by_the_first_map_suite(
            self, monkeypatch, capsys, fresh_memos, orbit_type, suite):
        # every sign of the differential from arity 3 flipped, at both signs
        # of the shift: the groups do not change, so the group suite passes,
        # and transfer-restriction stops at its first map, shift -4
        _negate_arity(monkeypatch, 2, orbit_type)
        assert cli.main(["check", suite, "--p-max", "4"]) == 0
        capsys.readouterr()
        assert cli.main(["check", "transfer-restriction", "--p-max", "4"]) == 2
        assert capsys.readouterr().err == ("bredon: error: res block does not commute with the "
                                           "push block of slot 0 between arities 2 and 3\n")

    def test_a_lone_pull_query_with_a_changed_push_block_fails_at_build(self, monkeypatch,
                                                                       fresh_memos):
        _plant(monkeypatch, ("push", 1, (3, FIXED), (2, FIXED)), _bump_first_entry)
        with pytest.raises(ComplexError, match="^push blocks of arity 3 .fixed. fail the coface"):
            weight0(1, -3)
        assert not sigmacx._readers and build_sigma_complex.cache_info().currsize == 0

    def test_an_odd_fixed_arity_zero_push_entry_fails_the_first_fixed_pull_build(
            self, monkeypatch, capsys, fresh_memos):
        # the push block from the fixed arity 1 to 0 planted as [[3]]: d.d = 0
        # cannot see it, arity 0 having one block, and the push coface
        # identity through arity 2 still holds; the pull block, half its
        # transpose, has no integral half, so the first fixed pull build fails
        _plant(monkeypatch, ("push", 0, (1, FIXED), (0, FIXED)),
               lambda block: IntegerMatrix.from_rows([[3]]))
        assert build_sigma_complex(SigmaSpec(-1, FREE)) is not None
        assert validate(build_sigma_complex(SigmaSpec(2, FIXED)))
        message = ("the pull block from the fixed arity 0 to arity 1 (fixed) is half the "
                   "transpose of its push block, which has an odd entry")
        with pytest.raises(ComplexError, match=f"^{re.escape(message)}$"):
            build_sigma_complex(SigmaSpec(-2, FIXED))
        assert cli.main(["weight0", "--a", "0", "--p", "-1"]) == 2
        assert capsys.readouterr().err == f"bredon: error: {message}\n"

    def test_a_lone_group_query_builds_one_complex(self, fresh_memos):
        assert weight0(2, -5) == weight0_closed_form(2, -5)
        assert build_sigma_complex.cache_info().misses == 1
        spec = SigmaSpec(-5, FIXED)
        assert sigmacx._readers == {spec: build_sigma_complex(spec)}

    def test_a_complex_built_through_wrapped_is_not_read(self, fresh_memos):
        # a complex built outside the cache is not held, so the group query
        # at the other sign builds its own complex and sweeps it
        loose = build_sigma_complex.__wrapped__(SigmaSpec(-5, FIXED))
        all_cohomology(loose)
        assert weight0(-2, 5) == weight0_closed_form(-2, 5)
        cached = build_sigma_complex(SigmaSpec(5, FIXED))
        assert build_sigma_complex.cache_info().misses == 1
        assert list(sigmacx._readers.values()) == [cached] and cached._morse is not None

    def test_a_negated_fixed_arity_zero_pull_block_fails_the_first_pull_map(
            self, monkeypatch, capsys, fresh_memos):
        # the derived pull block from the fixed arity 0 to 1 served negated:
        # d.d = 0 holds and the push squares of the dual kind commute, but
        # the pull square at arity 0 does not, so the first map at n < 0
        # fails in one line, and so does the suite
        _plant(monkeypatch, ("pull", 0, (0, FIXED), (1, FIXED)), lambda block: -block)
        assert validate(build_sigma_complex(SigmaSpec(-3, FIXED)))
        message = "tr block does not commute with the pull block of slot 0 between arities 0 and 1"
        with pytest.raises(ComplexError, match=f"^{re.escape(message)}$"):
            transfer_map(-3)
        with pytest.raises(ComplexError, match="^res block does not commute with the pull "):
            restriction_map(-1)
        assert cli.main(["check", "transfer-restriction", "--p-max", "4"]) == 2
        assert capsys.readouterr().err == f"bredon: error: {message}\n"


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

    def test_identification_against_the_label_tuples(self):
        # the integer codes against the tuple labels, and a permutation of the
        # basis at p + 1, through p = 10 (`check all` runs the tower to p = 7)
        for p in range(0, 11):
            perms = cone_identification(p)
            assert perms == reference_identification(p), p
            for j in range(p + 2):
                rank = reference_layout(p + 1, j, FIXED)[2]
                assert sorted(perms[-j]) == list(range(rank)), (p, j)


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
                    for bits in reference_basis(j, orbit_type)]

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
