"""The evaluated cycle complexes along the sign representation.

Everything here is orbit combinatorics.  Sections of the transfer presheaf on
a j-fold product of free orbits, taken at a point, have a basis indexed by
orbits of the flip action on bit strings {0,1}^j (the class of v is {v, v~}
with v~ the complement); at the free orbit one extra coordinate is appended.

Every map between these bases follows one cycle rule (``_orbit_rows``): a
class is the cycle {v, v~}, or the single point () for the fixed arity-0
class; carry each point along a map of points, or take both of its lifts for
a pullback, and the coefficient of a target class is the number of images
equal to its canonical representative.  Pushforward deletes a coordinate,
pullback inserts one, the transfer forgets the free coordinate, the
restriction prepends both values of it, and the involution flips it.  The
complex for a shift by n copies of the sign representation assembles the
pushforwards (n > 0) or pullbacks (n < 0) over the subset lattice of {1..n}
with Koszul signs.  Each basis and each block is built once per process and
kept as nested tuples; complexes and maps are written from them straight
into row dicts, every row listing its columns in the order the blocks meet
them.

Calibration (fixed once, verified in tests): for the two-step shift at the
fixed point the differentials are g(a,b) = (a+b, -a-b) and f(a,b) = 2a+2b on
degrees -2, -1, 0; for the dual complex g(a) = (a,a) and f(a,b) = (a-b, a-b)
on degrees 0, 1, 2.  The Koszul sign for acting in slot s of a subset S is
(-1)^(number of elements of S greater than s).

The per-degree ranks grow like binomial(n, j) * 2^(j-1), so the total rank
about triples per step in n; the default grid bound keeps n at most 8
(total rank 3281 at the fixed point).  Building a complex and its integral
cohomology (one bottom-up sweep, ``chaincx.cohomology``) grow at the same
rate.  At the fixed point, measured in a fresh Python 3.11 process on a
shared 2-core Intel Xeon host: n = 11 takes 1.2-2.2 s of CPU to build and
about 1 s for all integral groups, within 110 MB; n = 12 (total rank
265721, the ``SHIFT_BOUND``) 4-7 s to build and 3 s for its groups, within
300 MB.  Most of a build is the check d.d = 0 that every complex passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Dict, List, Tuple

from .abgrp import FgAbelianGroup, IntegerMatrix, check_modulus
from .chaincx import (ChainMap, CochainComplex, all_cohomology, cohomology, cone, induced_map,
                      unit_complex)

FIXED = "fixed"
FREE = "free"

# total rank grows like 3^|n| (1 + (3^n - 1)/2 at the fixed point); the grid
# default is |n| <= 8 and this soft bound guards accidental blowups.  Raise
# it module-wide for bigger experiments.
SHIFT_BOUND = 12


@dataclass(frozen=True)
class SigmaSpec:
    """A signed shift n along the sign representation, evaluated at an orbit."""

    n: int
    orbit_type: str = FIXED

    def __post_init__(self):
        if self.orbit_type not in (FIXED, FREE):
            raise ValueError(f"orbit_type must be 'fixed' or 'free', got {self.orbit_type!r}")


def canonical_bits(bits: Tuple[int, ...]) -> Tuple[int, ...]:
    """The lexicographically smaller of a bit string and its complement."""
    if bits and bits[0] == 1:
        return tuple(1 - b for b in bits)
    return tuple(bits)


def orbit_basis(j: int, orbit_type: str = FIXED) -> List[Tuple[int, ...]]:
    """Ordered basis labels for arity j sections.

    Fixed point: orbit classes of {0,1}^j, canonical representatives in
    lexicographic order (2^(j-1) classes for j >= 1, one empty class for
    j = 0).  Free orbit: one extra leading coordinate (2^j classes).

    >>> orbit_basis(2)
    [(0, 0), (0, 1)]
    >>> len(orbit_basis(3)), len(orbit_basis(3, FREE))
    (4, 8)
    """
    if j < 0:
        raise ValueError("arity must be nonnegative")
    return list(_basis(j, orbit_type))


@lru_cache(maxsize=None)
def _basis(j: int, orbit_type: str) -> Tuple[Tuple[int, ...], ...]:
    width = j + (1 if orbit_type == FREE else 0)
    return tuple((0,) + bits for bits in product((0, 1), repeat=width - 1)) if width else ((),)


def _arity_size(j: int, orbit_type: str) -> int:
    """The number of orbit classes of arity j, len(orbit_basis(j, orbit_type))."""
    width = j + (1 if orbit_type == FREE else 0)
    return 2 ** (width - 1) if width else 1


# The point rules of the orbit blocks: the images of a point v, given the
# 0-based position of the coordinate that a push deletes or a pull inserts.
_RULES = {
    "push": lambda v, pos: (v[:pos] + v[pos + 1:],),
    "pull": lambda v, pos: (v[:pos] + (0,) + v[pos:], v[:pos] + (1,) + v[pos:]),
    "tr": lambda v, pos: (v[1:],),                    # forget the free bit
    "res": lambda v, pos: ((0,) + v, (1,) + v),       # prepend both free bits
    "flip": lambda v, pos: ((1 - v[0],) + v[1:],),    # flip the free bit
}


@lru_cache(maxsize=None)
def _orbit_rows(kind: str, pos: int, src: Tuple[int, str], tgt: Tuple[int, str]):
    """The block of a map of orbit classes, from the arity and type src to tgt.

    The cycle of a source class is its orbit {v, complement(v)}, or the single
    point () of the fixed arity-0 class.  The rule of kind gives a point's
    images: one for a map of points, both lifts for a pullback.  The
    coefficient of a target class is the number of images equal to its
    canonical representative.  Returns, per target class, its (column,
    coefficient) pairs in the order they first arise; the memo is immutable.
    """
    index = {b: i for i, b in enumerate(_basis(*tgt))}
    rows: List[dict] = [{} for _ in index]
    for col, bits in enumerate(_basis(*src)):
        for point in ((bits, tuple(1 - b for b in bits)) if bits else ((),)):
            for q in _RULES[kind](point, pos):
                if q in index:
                    row = rows[index[q]]
                    row[col] = row.get(col, 0) + 1
    return tuple(tuple(row.items()) for row in rows)


def _subset_blocks(n: int, j: int) -> List[Tuple[int, ...]]:
    """Size-j subsets of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), j))


def _component_layout(n: int, j: int, orbit_type: str):
    """Offsets of the subset blocks inside the degree component."""
    blocks = _subset_blocks(n, j)
    size = _arity_size(j, orbit_type)
    return blocks, {s: k * size for k, s in enumerate(blocks)}


@lru_cache(maxsize=None)
def build_sigma_complex(spec: SigmaSpec) -> CochainComplex:
    """The evaluated complex for a shift of n copies of the sign representation.

    For n > 0 the complex lives on degrees -n..0 with the degree -j component
    spanned by (subset of size j, orbit class of arity j) pairs and the
    differential given by signed pushforwards; for n < 0 it lives on degrees
    0..-n built dually from pullbacks; n = 0 is the unit complex.

    >>> build_sigma_complex(SigmaSpec(1)).differential(-1).to_rows()
    [[2]]
    >>> [build_sigma_complex(SigmaSpec(2)).rank(d) for d in (-2, -1, 0)]
    [2, 2, 1]
    """
    n, orbit_type = spec.n, spec.orbit_type
    if abs(n) > SHIFT_BOUND:
        raise ValueError(
            f"shift {n} exceeds the configured bound {SHIFT_BOUND} "
            "(ranks grow like 3^n; raise sigmacx.SHIFT_BOUND to override)")
    if n == 0:
        return unit_complex()
    m, push = abs(n), n > 0
    comps = {(-j if push else j): comb(m, j) * _arity_size(j, orbit_type) for j in range(m + 1)}
    first = 1 if orbit_type == FREE else 0
    diffs: Dict[int, IntegerMatrix] = {}
    for j in range(m):
        # d joins arity j + 1 and arity j: slot idx of the larger subset has
        # j - idx elements above it, so its Koszul sign is (-1)^(j - idx)
        _, small_off = _component_layout(m, j, orbit_type)
        big_size = _arity_size(j + 1, orbit_type)
        upper, lower = (j + 1, orbit_type), (j, orbit_type)
        kind, ends = ("push", (upper, lower)) if push else ("pull", (lower, upper))
        blocks = [_orbit_rows(kind, first + idx, *ends) for idx in range(j + 1)]
        src, tgt = (-(j + 1), -j) if push else (j, j + 1)
        rows: List[dict] = [{} for _ in range(comps[tgt])]
        for k, big in enumerate(combinations(range(1, m + 1), j + 1)):
            for idx, block in enumerate(blocks):
                small = small_off[big[:idx] + big[idx + 1:]]
                row, col = (small, k * big_size) if push else (k * big_size, small)
                sign = -1 if (j - idx) % 2 else 1
                for r, entries in enumerate(block, row):
                    rows[r].update([(col + c, sign * v) for c, v in entries])
        diffs[src] = IntegerMatrix.from_row_dicts(rows, comps[src])
    return CochainComplex(comps, diffs)


def weight0(a: int, p: int, m: int = 0) -> FgAbelianGroup:
    """Weight-0 equivariant cohomology in cohomological index a + p*sigma.

    Computed directly as H^a of the fixed-point complex for the shift by
    p*sigma, integrally (m = 0) or with Z/2 coefficients (m = 2).

    >>> print(weight0(0, 1))
    Z/2
    >>> print(weight0(-2, 2))
    Z
    >>> print(weight0(1, -1))
    0
    """
    check_modulus(m)
    lo, hi = (-p, 0) if p >= 0 else (0, -p)
    if a < lo or a > hi:
        return FgAbelianGroup.zero()
    c = build_sigma_complex(SigmaSpec(p, FIXED))
    return cohomology(c, a, m)


# ---------------------------------------------------------------------------
# Transfer and restriction
# ---------------------------------------------------------------------------

def _per_arity_map(n: int, orbit_type_src: str, orbit_type_tgt: str,
                   kind: str) -> Dict[int, IntegerMatrix]:
    """Assemble a degreewise map from the orbit block of kind (same subset layout)."""
    m = abs(n)
    maps = {}
    for j in range(m + 1):
        block = _orbit_rows(kind, 0, (j, orbit_type_src), (j, orbit_type_tgt))
        size = _arity_size(j, orbit_type_src)
        cols = comb(m, j) * size
        maps[-j if n > 0 else j] = IntegerMatrix.from_row_dicts(
            [{off + c: v for c, v in entries} for off in range(0, cols, size) for entries in block],
            cols)
    return maps


def transfer_map(p: int) -> ChainMap:
    """The transfer from the free-orbit complex to the fixed-point complex.

    Orbit sum: forget the free bit.
    """
    free_cx = build_sigma_complex(SigmaSpec(p, FREE))
    fixed_cx = build_sigma_complex(SigmaSpec(p, FIXED))
    return ChainMap(free_cx, fixed_cx, _per_arity_map(p, FREE, FIXED, "tr"))


def restriction_map(p: int) -> ChainMap:
    """The restriction from the fixed-point complex to the free-orbit complex.

    Orbit expansion: prepend a free bit 0 and 1.
    """
    free_cx = build_sigma_complex(SigmaSpec(p, FREE))
    fixed_cx = build_sigma_complex(SigmaSpec(p, FIXED))
    return ChainMap(fixed_cx, free_cx, _per_arity_map(p, FIXED, FREE, "res"))


def involution_map(p: int) -> ChainMap:
    """The free-coordinate flip on the free-orbit complex."""
    free_cx = build_sigma_complex(SigmaSpec(p, FREE))
    return ChainMap(free_cx, free_cx, _per_arity_map(p, FREE, FREE, "flip"))


class CheckFailure(AssertionError):
    """A structural check that did not hold, with a location report."""


def free_orbit_acyclicity(p: int, m: int = 0) -> bool:
    """The free-orbit complex has the coefficient group at degree -p only.

    >>> free_orbit_acyclicity(1)
    True
    """
    check_modulus(m)
    c = build_sigma_complex(SigmaSpec(p, FREE))
    expected = FgAbelianGroup.free(1) if m == 0 else FgAbelianGroup.cyclic(m)
    lo, hi = c.support()
    for a in range(lo, hi + 1):
        h = cohomology(c, a, m)
        want = expected if a == -p else FgAbelianGroup.zero()
        if h != want:
            raise CheckFailure(
                f"free-orbit cohomology at (a={a}, p={p}, m={m}) is {h}, expected {want}")
    return True


def transfer_restriction_check(p: int) -> bool:
    """Chain identities for the transfer/restriction pair at shift p.

    Asserts tr . res = 2 id on the fixed-point complex and res . tr = id + t
    with t the free-coordinate involution, then classifies the induced
    endomorphism of every cohomology group as multiplication by 2.
    """
    tr = transfer_map(p)
    res = restriction_map(p)
    tau = involution_map(p)
    fixed_cx, free_cx = tr.target, tr.source
    tr_res = tr.compose(res)
    double = ChainMap.identity(fixed_cx).scale(2)
    for d in sorted(fixed_cx.components):
        if tr_res.component(d) != double.component(d):
            raise CheckFailure(f"tr.res != 2id at degree {d} of shift {p}")
    res_tr = res.compose(tr)
    id_tau = ChainMap.identity(free_cx).add(tau)
    for d in sorted(free_cx.components):
        if res_tr.component(d) != id_tau.component(d):
            raise CheckFailure(f"res.tr != id + flip at degree {d} of shift {p}")
    # the fixed-side composite is the multiplication-by-2 endomorphism;
    # the free-side one is id + involution, which is not 2 id on homology
    lo, hi = fixed_cx.support()
    for a in range(lo, hi + 1):
        ind = induced_map(tr_res, a)
        if not ind.is_multiplication_by(2):
            raise CheckFailure(
                f"induced map of tr.res at degree {a}, shift {p} is not multiplication by 2")
    return True


def cone_identification(p: int):
    """The degreewise basis bijection cone(tr at p) -> complex at p+1.

    Cone basis order per degree: the fixed-point block (subsets of {1..p}),
    then the free block one degree up; target basis: subsets of {1..p+1},
    where a free label (S, (e, v)) corresponds to (S + {p+1}, v*e) with the
    free bit moved last (and canonicalized).  Returns, per degree, the list
    mapping cone basis positions to target positions; each is a permutation.
    """
    m = p
    target_spec = SigmaSpec(p + 1, FIXED)
    perms = {}
    for j in range(m + 2):
        deg = -j
        _, tgt_off = _component_layout(m + 1, j, FIXED)
        tgt_index_arity = {b: i for i, b in enumerate(orbit_basis(j, FIXED))}
        perm = []
        # fixed block: subsets of {1..p} of size j
        if j <= m:
            for subset in _subset_blocks(m, j):
                for bits in orbit_basis(j, FIXED):
                    perm.append(tgt_off[subset] + tgt_index_arity[bits])
        # free block: subsets of size j-1 with the extra factor appended
        if 1 <= j <= m + 1:
            for subset in _subset_blocks(m, j - 1):
                big = subset + (m + 1,)
                for bits in orbit_basis(j - 1, FREE):
                    moved = canonical_bits(bits[1:] + (bits[0],))
                    perm.append(tgt_off[big] + tgt_index_arity[moved])
        if perm:
            perms[deg] = perm
    return perms


def cone_tower_check(p: int) -> bool:
    """cone(transfer at shift p) is the complex at shift p+1.

    The recorded identification is a degreewise basis permutation under which
    the differentials agree exactly; rank equality and cohomology agreement
    in every degree are checked as well.

    >>> cone_tower_check(0)
    True
    """
    tr = transfer_map(p)
    cn = cone(tr)
    target = build_sigma_complex(SigmaSpec(p + 1, FIXED))
    if {d: r for d, r in cn.components.items()} != dict(target.components):
        raise CheckFailure(f"cone ranks at shift {p} do not match shift {p + 1}")
    perms = cone_identification(p)
    for d, r in cn.components.items():
        if len(perms.get(d, [])) != r or sorted(perms[d]) != list(range(r)):
            raise CheckFailure(f"identification at degree {d} is not a bijection")
    for d in sorted(cn.components):
        if d + 1 not in cn.components:
            continue
        pd, pd1 = perms[d], perms[d + 1]
        lhs = cn.differential(d)
        rhs = target.differential(d)
        moved = {(pd1[i], pd[j]): v for (i, j), v in lhs.items()}
        if IntegerMatrix(rhs.rows, rhs.cols, moved) != rhs:
            raise CheckFailure(f"cone differential at degree {d} does not match shift {p + 1}")
    if all_cohomology(cn) != all_cohomology(target):
        raise CheckFailure(f"cone cohomology at shift {p} does not match shift {p + 1}")
    return True
