"""The evaluated cycle complexes along the sign representation.

Everything here is orbit combinatorics.  Sections of the transfer presheaf on
a j-fold product of free orbits, taken at a point, have a basis indexed by
orbits of the flip action on bit strings {0,1}^j (the class of v is {v, v~}
with v~ the complement); at the free orbit one extra coordinate is appended.

Every map between these bases follows one cycle rule (``_orbit_block``): a
class is the cycle {v, v~}, or the single point () for the fixed arity-0
class; carry each point along a map of points, and the coefficient of a
target class is the number of images equal to its canonical
representative.  Pushforward deletes a coordinate, the transfer forgets the
free coordinate, and the involution flips it; the pullback and the
restriction are their duals (the duality lemma below).  The complex for a
shift by n copies of the sign representation assembles the pushforwards
(n > 0) or pullbacks (n < 0) over the subset lattice of {1..n} with Koszul
signs, both from one incidence list per arity (``_faces``).  A class is
coded, everywhere, as the integer of its canonical bit string, so each rule
(and the cone identification) is a shift and a mask.  A component of arity
j is laid out subset by subset, in the lexicographic order of
``_subset_index``, the subset of rank k at column k times the number of
arity-j classes.  Each block is built once per process, as an
``IntegerMatrix``, and every complex or map is assembled by the one block
constructor, ``IntegerMatrix.from_bands``, from its (offset, signed block)
sources: each row is written once, listing its columns in the order the
blocks meet them, and a block that ends past its component or overlaps
another is refused.

Calibration (fixed once, verified in tests): for the two-step shift at the
fixed point the differentials are g(a,b) = (a+b, -a-b) and f(a,b) = 2a+2b on
degrees -2, -1, 0; for the dual complex g(a) = (a,a) and f(a,b) = (a-b, a-b)
on degrees 0, 1, 2.  The Koszul sign for acting in slot s of a subset S is
(-1)^(number of elements of S greater than s).

Complexes and maps are certified by construction rather than validated.
A differential is a sum of slot blocks, each with the sign that
``_koszul_sign`` gives it, placed by the incidence list, so d.d = 0 follows
from the coface identity of the push blocks and of their signs
(``_slot_matrices``) and the simplicial identity of the list (``_faces``;
lemma in ``build_sigma_complex``), and tr, res and the flip commute with d
once their per-arity blocks commute with each push slot block
(``_map_certificate``, lemma in ``_per_arity_map``).  Each certificate is
checked once per process for each arity a build uses, and raises
``ComplexError`` when an identity fails; ``chaincx.validate`` and
``ChainMap.validate`` stay the tests' oracle for both.

Duality lemma (the twins).  The complex at -n is the dual of the one at n,
the cochains of S^(n sigma) against its chains, and the module defines it
so: a pullback block is the transpose of the push block of its slot, and a
restriction block the transpose of the transfer block, each halved where
its source is the fixed arity-0 class.  The halving is the one place where
the cycle rule counts the two directions differently.  Deleting a slot maps
the cycle {x, x~} of a class onto the cycle {y, y~} of one class, one point
onto each, so the push counts 1 for that pair, and inserting both values of
the slot into y and y~ gives four points of which exactly one is x, so a
pullback counts 1 too; but both points of an arity-1 class push onto the
single point () (2), which pulls back to one canonical point (1), and the
transfer and the restriction at arity 0 count 2 and 1 the same way.  An odd
entry there has no half and raises ``ComplexError``.  Both differentials
sum the same slot positions with the same Koszul signs over one incidence
list, so the differential of the complex at -n from degree k is the
transpose of the one at n from degree -k-1, for every k at the free orbit
and for k >= 1 at the fixed point, where the one from degree 0 is half the
transpose.  Nothing on the pull side is certified apart: its cosimplicial
identities and commuting squares are the push side's transposed, the
halvings a common factor of both sides.  The tests keep the pullback rule
as the oracle of the derived blocks.  So a group query builds at most one
complex per pair (``_group_complex``): when its registry holds the
complex at n or at -n, a group of either is read off that complex's Smith
diagonals and Z/2 ranks at the mirrored degrees (``chaincx.cohomology``),
and the other side is only its components and, at the fixed point, its
arity-0 differential, assembled alone; when it holds neither, the query
builds the complex it names.  ``_group_complex`` is the one writer of that
registry: maps, cones and ``--explain`` build the complexes they name
through the cache of ``build_sigma_complex`` and register nothing, and a
complex built through ``build_sigma_complex.__wrapped__`` is not held.

The per-degree ranks grow like binomial(n, j) * 2^(j-1), so the total rank
about triples per step in n; the default grid bound keeps n at most 8
(total rank 3281 at the fixed point).  Building a complex and its integral
cohomology (one bottom-up sweep, ``chaincx.cohomology``) grow at the same
rate.  Measured in a fresh Python 3.11 process on a shared 2-core Intel
Xeon host (medians of three): at n = 11 the fixed-point complex takes
0.17 s of CPU to build and about 0.6 s for all integral groups, within
115 MB, and the free-orbit one 0.3 s and 1.2 s within 200 MB; n = 12 (the
``SHIFT_BOUND``) takes 0.5 s and 2.0 s within 290 MB at the fixed point
(total rank 265721), and 1.2 s and 4.1 s within 555 MB at the free orbit.
About half of each build is its certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, List, Tuple

from .abgrp import FgAbelianGroup, IntegerMatrix, check_modulus
from .chaincx import (ChainMap, CochainComplex, ComplexError, all_cohomology, cohomology, cone,
                      induced_map, unit_complex)

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


def _width(j: int, orbit_type: str) -> int:
    """The number of coordinates of an arity-j class: j, and the free bit at the free orbit."""
    return j + (1 if orbit_type == FREE else 0)


def _arity_size(j: int, orbit_type: str) -> int:
    """The number of orbit classes of arity j: 2^(width - 1), as the
    canonical codes are the integers below it, or 1 at width 0."""
    width = _width(j, orbit_type)
    return 1 << (width - 1) if width else 1


# the dual of each kind that has one: a pull or res block is derived from
# its dual's block, and a map at n < 0 is certified through its dual's square
_DUAL = {"pull": "push", "tr": "res", "res": "tr", "flip": "flip"}


@lru_cache(maxsize=None)
def _orbit_block(kind: str, pos: int, src: Tuple[int, str], tgt: Tuple[int, str]) -> IntegerMatrix:
    """The block of a map of orbit classes, from the arity and type src to tgt.

    A point of width w is its bit string read as an integer, coordinate 0
    the top bit, so a class's canonical representative is the one below
    2^(w-1), and that integer is the class's code: its column in a subset's
    block, classes in lexicographic order of their representatives.  The
    cycle of a source class q is its orbit {q, complement(q)}.  A push (or
    the transfer, at the free bit) deletes the coordinate at pos, and the
    flip complements the free bit; the coefficient of a target class is the
    number of images equal to it.  A pull (or the restriction) is the
    transpose of the push (or transfer) block from tgt to src, halved where
    src is the fixed arity-0 class (the duality lemma of the module); an odd
    entry there raises ComplexError.  Each row lists its columns in
    ascending order.  Memoised, so once per process; the matrix is never
    mutated.
    """
    if kind in ("pull", "res"):
        block = _orbit_block(_DUAL[kind], pos, tgt, src).transpose()
        if src != (0, FIXED):
            return block
        if any(v % 2 for _, v in block.items()):
            raise ComplexError(f"the {kind} block from the fixed arity 0 to arity {tgt[0]} "
                               f"({tgt[1]}) is half the transpose of its {_DUAL[kind]} block, "
                               f"which has an odd entry")
        return IntegerMatrix(block.rows, block.cols, {k: v // 2 for k, v in block.items()})
    width, cols = _width(*src), range(_arity_size(*src))
    full, half = (1 << width) - 1, _arity_size(*tgt)   # a target point q is canonical iff q < half
    if kind == "flip":
        top = 1 << (width - 1)
        images = [(col, x ^ top) for col in cols for x in (col, col ^ full)]
    else:                                               # push, tr
        low = (1 << (width - 1 - pos)) - 1              # the coordinates after pos
        images = [(col, x >> 1 & ~low | x & low) for col in cols for x in (col, col ^ full)]
    rows: List[dict] = [{} for _ in range(half)]
    for col, q in images:
        if q < half:
            row = rows[q]
            row[col] = row.get(col, 0) + 1
    return IntegerMatrix.from_row_dicts(rows, len(cols))


def _subset_index(m: int, j: int) -> Dict[Tuple[int, ...], int]:
    """The size-j subsets of {1..m}, each with its rank in lexicographic order.
    In a component of arity j, the block of a subset of rank k starts at
    column k * _arity_size(j, orbit_type)."""
    return {s: k for k, s in enumerate(combinations(range(1, m + 1), j))}


@lru_cache(maxsize=None)
def _faces(m: int, j: int) -> Tuple[Tuple[int, ...], ...]:
    """The incidence list between the size-(j + 1) and size-j subsets of
    {1..m}: for each size-(j + 1) subset T, in rank order, the ranks of T
    minus its slot 0, 1, ..., j.  A push differential groups it by the
    smaller subset, a pull differential by the larger.

    ``_subset_index(m, j)``, which gives the ranks, is checked to rank its
    C(m, j) subsets 0, 1, ... in its own order, and each row is certified
    against ``_faces(m, j - 1)``, which certifies the arities below: for
    slots a < c, deleting c then a equals deleting a then c - 1 (the
    simplicial identity on subsets), and deleting a leaves a later subset
    than deleting c, so each row lists its faces in slot order, which the
    identity alone cannot see at j = 1.  Raises ComplexError.  Memoised, so
    once per process; the tuples are immutable.
    """
    smalls = _subset_index(m, j)
    if list(smalls.values()) != list(range(comb(m, j))):
        raise ComplexError(f"the arity-{j} subset layout of {{1..{m}}} does not rank its "
                           f"{comb(m, j)} subsets 0, 1, ... in order")
    below = _faces(m, j - 1) if j else ()
    pairs, faces = list(combinations(range(j + 1), 2)), []
    for big in combinations(range(1, m + 1), j + 1):
        row = tuple(smalls[big[:idx] + big[idx + 1:]] for idx in range(j + 1))
        for a, c in pairs:
            if not (row[a] > row[c] and below[row[c]][a] == below[row[a]][c - 1]):
                raise ComplexError(f"the faces of {big} in {{1..{m}}} fail the simplicial "
                                   f"identity at slots {a} < {c}")
        faces.append(row)
    return tuple(faces)


def _koszul_sign(j: int, idx: int) -> int:
    """The sign of slot idx in the differential between arities j + 1 and j:
    the slot has j - idx elements above it, so (-1)^(j - idx)."""
    return -1 if (j - idx) % 2 else 1


@lru_cache(maxsize=None)
def _slot_matrices(kind: str, j: int, orbit_type: str) -> Tuple[IntegerMatrix, ...]:
    """The blocks of the differential between arities j + 1 and j, one per
    slot idx = 0..j of the larger subset: a push from arity j + 1 to j
    deleting the coordinate first + idx, where the free orbit's first
    coordinate is its free bit, or a pull from j to j + 1, its transpose
    (``_orbit_block``).  Each push block is checked to fit its shape, and
    the push blocks are certified to satisfy the coface identity through
    arity k = j + 1 against ``_slot_matrices("push", j - 1)``, which
    certifies the arities below; the pull blocks of an arity are read only
    once the push blocks they transpose are certified.  Raises
    ComplexError.  Memoised, so each arity is certified once per process.

    With D_i the push deleting slot i, the blocks of the two differentials
    between arities k and k - 2 must satisfy, for slots a < c of the size-k
    subset,

        D_a . D_c = D_(c-1) . D_a     (delete c then a, or a then c - 1)

    the simplicial identity (Weibel, *An Introduction to Homological
    Algebra*, section 8.1), and their Koszul signs must be opposite:
    sign(k - 2, a) sign(k - 1, c) = -sign(k - 2, c - 1) sign(k - 1, a).  The
    pull blocks satisfy its transpose, the cosimplicial identity, the
    halving at the fixed arity 0 a factor of both sides.
    """
    first = 1 if orbit_type == FREE else 0
    upper, lower = (j + 1, orbit_type), (j, orbit_type)
    if kind == "pull":
        _slot_matrices("push", j, orbit_type)
        return tuple(_orbit_block(kind, first + idx, lower, upper) for idx in range(j + 1))
    rows, cols = _arity_size(*lower), _arity_size(*upper)
    high = tuple(_orbit_block(kind, first + idx, upper, lower) for idx in range(j + 1))
    for idx, block in enumerate(high):
        if (block.rows, block.cols) != (rows, cols):
            raise ComplexError(f"the {kind} slot {idx} block between arities {j} and {j + 1} "
                               f"({orbit_type}) does not fit its {rows} x {cols} shape")
    low = _slot_matrices(kind, j - 1, orbit_type) if j else ()
    for a, c in combinations(range(j + 1), 2):
        same = low[a] @ high[c] == low[c - 1] @ high[a]
        opposite = (_koszul_sign(j - 1, a) * _koszul_sign(j, c)
                    == -_koszul_sign(j - 1, c - 1) * _koszul_sign(j, a))
        if not (same and opposite):
            raise ComplexError(f"{kind} {'blocks' if not same else 'Koszul signs'} of arity "
                               f"{j + 1} ({orbit_type}) fail the coface identity at slots "
                               f"{a} < {c}")
    return high


@lru_cache(maxsize=None)
def build_sigma_complex(spec: SigmaSpec) -> CochainComplex:
    """The evaluated complex for a shift of n copies of the sign representation.

    For n > 0 the complex lives on degrees -n..0 with the degree -j component
    spanned by (subset of size j, orbit class of arity j) pairs and the
    differential given by signed pushforwards; for n < 0 it lives on degrees
    0..-n built dually from pullbacks; n = 0 is the unit complex.

    Lemma (d.d = 0 by construction).  The block of d from the component of
    a subset T of size j + 1 to that of T minus its element in slot idx is
    sign(j, idx) D_idx, with sign(j, idx) = (-1)^(j - idx) from
    ``_koszul_sign``, and no other block is nonzero.  So the block of
    d.d from a subset U of size k = j + 2 to U minus {u_a, u_c}, a < c, is
    a sum over the two orders of deleting u_a and u_c.  Deleting u_a first
    leaves u_c in slot c - 1, with sign (-1)^(j + 1 - a) (-1)^(j - c + 1);
    deleting u_c first leaves u_a in slot a, with sign (-1)^(j + 1 - c)
    (-1)^(j - a).  The signs are opposite, and the blocks are the two sides
    of the coface identity; ``_slot_matrices`` checks both for arity k, the
    signs as the function that the build reads.  The pull case is the
    transpose of the same argument.  So once each arity 2..|n| is certified,
    the complex is built without ``validate``.
    The blocks land where the lemma puts them: each differential is placed
    by the incidence list ``_faces(|n|, j)``, whose rows are the size-(j + 1)
    subsets in rank order, each listing the ranks of its faces in slot
    order, certified by the simplicial identity on subsets, that is, the two
    orders of deleting u_a and u_c above reach one subset; the subset of
    rank k starts at column k * _arity_size(j), ``_slot_matrices`` checks
    that each block fits its shape, and ``IntegerMatrix.from_bands`` that
    no block ends past its component or overlaps another in its band, so
    every entry lies in its subset's block.

    Each differential is one ``from_bands`` call, one band per subset of
    the rows' arity, each with its (offset, signed block) sources, paired
    from the one list: for a push, the band of S gathers the supersets T
    of S in rank order; for a pull, the band of T gathers its slots 0..j.
    Each row lists its columns in that order.  The pull complex at -n is
    so the dual of the push complex at n by construction (module lemma).

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
    m, kind = abs(n), "push" if n > 0 else "pull"
    _slot_matrices(kind, m - 1, orbit_type)   # certifies the arities 2..m
    comps = {(-j if n > 0 else j): comb(m, j) * _arity_size(j, orbit_type) for j in range(m + 1)}
    diffs = {}
    for j in range(m):
        src, d = _differential(n, j, orbit_type)
        diffs[src] = d
    return CochainComplex._certified(comps, diffs)


def _differential(n: int, j: int, orbit_type: str) -> Tuple[int, IntegerMatrix]:
    """The differential of the complex at n between arities j + 1 and j,
    with its source degree: one ``from_bands`` call over its (offset,
    signed slot block) sources, paired from ``_faces(|n|, j)`` (the lemma of
    ``build_sigma_complex``)."""
    m, kind = abs(n), "push" if n > 0 else "pull"
    small_size, big_size = _arity_size(j, orbit_type), _arity_size(j + 1, orbit_type)
    blocks = [block if _koszul_sign(j, idx) == 1 else -block
              for idx, block in enumerate(_slot_matrices(kind, j, orbit_type))]
    height, bands = (small_size, comb(m, j)) if n > 0 else (big_size, comb(m, j + 1))
    sources: List[list] = [[] for _ in range(bands)]
    for k, row in enumerate(_faces(m, j)):
        for small, block in zip(row, blocks):
            band, off = (small, k * big_size) if n > 0 else (k, small * small_size)
            sources[band].append((off, block))
    cols = comb(m, j + 1) * big_size if n > 0 else comb(m, j) * small_size
    d = IntegerMatrix.from_bands(cols, [(height, pairs) for pairs in sources])
    return (-(j + 1) if n > 0 else j), d


# per spec, the complex that its groups are read from: the complex or mirror
# that the first group query of its pair (n, -n) read (see _group_complex),
# its only writer; held strongly, like the cache of build_sigma_complex, and
# emptied with it by the tests' fresh_memos fixture
_readers: Dict[SigmaSpec, CochainComplex] = {}


def _group_complex(spec: SigmaSpec) -> CochainComplex:
    """The complex that a group of spec is read from, so that group queries
    build at most one complex per pair: the one ``_readers`` holds for
    spec; else, when it holds the twin at -n, the mirror of that twin
    (``CochainComplex._mirror``), with the one differential the twin does
    not cover, the fixed arity-0 one, assembled alone; else the complex of
    spec, through the cache of ``build_sigma_complex``.  The one writer of
    ``_readers``: maps, cones and ``--explain`` build through the cache and
    register nothing, so a map's complexes and the groups that a group
    query reads off a mirror are assembled apart."""
    c = _readers.get(spec)
    if c is None:
        twin = _readers.get(SigmaSpec(-spec.n, spec.orbit_type))
        if twin is None:
            return _readers.setdefault(spec, build_sigma_complex(spec))
        lone = [_differential(spec.n, 0, FIXED)] if spec.orbit_type == FIXED else []
        c = _readers.setdefault(spec, CochainComplex._mirror(twin, dict(lone)))
    return c


def weight0(a: int, p: int, m: int = 0) -> FgAbelianGroup:
    """Weight-0 equivariant cohomology in cohomological index a + p*sigma.

    Computed directly as H^a of the fixed-point complex for the shift by
    p*sigma, integrally (m = 0) or with Z/2 coefficients (m = 2), read off
    the complex at -p when the module holds that one instead
    (``_group_complex``).

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
    return cohomology(_group_complex(SigmaSpec(p, FIXED)), a, m)


# ---------------------------------------------------------------------------
# Transfer and restriction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _map_certificate(kind: str, j: int, src_type: str, tgt_type: str, side: str = "push") -> bool:
    """The orbit blocks of kind at arities j and j + 1 fit their shapes and
    commute with every slot block of side between them; raises ComplexError.

    With phi_i the block of kind at arity i and D_idx, D'_idx the push slot
    blocks of the source and target type: phi_j D_idx = D'_idx phi_(j+1);
    with P_idx, P'_idx the pull slot blocks: phi_(j+1) P_idx = P'_idx phi_j.
    Memoised per arity.
    """
    lo, hi = (_orbit_block(kind, 0, (i, src_type), (i, tgt_type)) for i in (j, j + 1))
    for i, block in ((j, lo), (j + 1, hi)):
        rows, cols = _arity_size(i, tgt_type), _arity_size(i, src_type)
        if (block.rows, block.cols) != (rows, cols):
            raise ComplexError(f"the {kind} block of arity {i} does not fit its {rows} x {cols} "
                               f"shape")
    pairs = zip(_slot_matrices(side, j, src_type), _slot_matrices(side, j, tgt_type))
    for idx, (d_src, d_tgt) in enumerate(pairs):
        if (lo @ d_src != d_tgt @ hi) if side == "push" else (hi @ d_src != d_tgt @ lo):
            raise ComplexError(f"{kind} block does not commute with the {side} block of slot "
                               f"{idx} between arities {j} and {j + 1}")
    return True


def _per_arity_map(n: int, orbit_type_src: str, orbit_type_tgt: str,
                   kind: str) -> ChainMap:
    """The chain map that the orbit block of kind gives on each subset's
    component (same subset layout on both sides), built after its certificate,
    between the complexes that ``build_sigma_complex`` caches; it registers
    neither for group queries (``_group_complex``).

    Lemma (a chain map by construction).  The map is block-diagonal over the
    subsets, with the block phi_j of kind on each subset of size j.  For a
    push, the block from T to T minus its slot idx of f.d is
    phi_j (-1)^(j - idx) D_idx, and that of d.f is (-1)^(j - idx) D'_idx
    phi_(j+1): the same sign and the same position, so f.d = d.f once
    ``_map_certificate`` holds for every arity j < |n|.  For a pull, the
    square phi_(j+1) P_idx = P'_idx phi_j is the transpose of the push
    square of the dual kind (tr and res, the flip its own), with the source
    and target types swapped: the pull blocks and the dual blocks are the
    push blocks and phi transposed, and where one side is halved at the
    fixed arity 0 so is the other.  So at n < 0 the dual kind is certified,
    and so, on the derived blocks themselves, is the pull square at arity 0,
    where the halving makes the pull side more than a transpose.
    """
    m, types = abs(n), (orbit_type_src, orbit_type_tgt)
    source, target = (build_sigma_complex(SigmaSpec(n, orbit_type)) for orbit_type in types)
    for j in range(m):
        _map_certificate(kind if n > 0 else _DUAL[kind], j, *(types if n > 0 else types[::-1]))
    if n < 0:
        _map_certificate(kind, 0, *types, "pull")
    blocks = _map_blocks(kind, m, orbit_type_src, orbit_type_tgt)
    return ChainMap._certified(source, target,
                               {(-j if n > 0 else j): a for j, a in enumerate(blocks)})


@lru_cache(maxsize=None)
def _map_blocks(kind: str, m: int, src_type: str, tgt_type: str) -> Tuple[IntegerMatrix, ...]:
    """Per arity j = 0..m, the block-diagonal matrix with the orbit block of
    kind on each of the C(m, j) subsets.  The maps at n and -n share them,
    since only their degrees differ; memoised, and never mutated."""
    out = []
    for j in range(m + 1):
        block, size = _orbit_block(kind, 0, (j, src_type), (j, tgt_type)), _arity_size(j, src_type)
        cols = comb(m, j) * size
        out.append(IntegerMatrix.from_bands(cols, [(_arity_size(j, tgt_type), [(off, block)])
                                                   for off in range(0, cols, size)]))
    return tuple(out)


def transfer_map(p: int) -> ChainMap:
    """The transfer from the free-orbit complex to the fixed-point complex.

    Orbit sum: forget the free bit.
    """
    return _per_arity_map(p, FREE, FIXED, "tr")


def restriction_map(p: int) -> ChainMap:
    """The restriction from the fixed-point complex to the free-orbit complex.

    Orbit expansion: prepend a free bit 0 and 1.
    """
    return _per_arity_map(p, FIXED, FREE, "res")


def involution_map(p: int) -> ChainMap:
    """The free-coordinate flip on the free-orbit complex."""
    return _per_arity_map(p, FREE, FREE, "flip")


class CheckFailure(AssertionError):
    """A structural check that did not hold, with a location report."""


def free_orbit_acyclicity(p: int, m: int = 0) -> bool:
    """The free-orbit complex has the coefficient group at degree -p only.

    Its groups are read like those of ``weight0``, off the free-orbit
    complex at -p when the module holds that one instead.

    >>> free_orbit_acyclicity(1)
    True
    """
    check_modulus(m)
    c = _group_complex(SigmaSpec(p, FREE))
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
    endomorphism of every cohomology group as multiplication by 2.  Each
    group that the induced map acts on, from the presentation of the map's
    own complex, is held against ``weight0`` at the same cell, which reads
    the complex that the first group query of the pair read.  Once the
    queries at -p have run, as the suite's upward walk runs them, that is a
    mirror of the complex at -p, so the two groups come from complexes
    assembled apart, and a misplaced push or pull block shows as a
    mismatch.
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
        group = weight0(a, p)
        if ind.source_group != group:
            raise CheckFailure(f"H^{a} of shift {p} is {ind.source_group} by its presentation "
                               f"and {group} by the group query")
        if not ind.is_multiplication_by(2):
            raise CheckFailure(
                f"induced map of tr.res at degree {a}, shift {p} is not multiplication by 2")
    return True


def cone_identification(p: int):
    """The degreewise basis bijection cone(tr at p) -> complex at p+1, p >= 0.

    Cone basis order per degree -j: the fixed-point block (the size-j
    subsets S of {1..p}, each with its classes), then the free block one
    degree up (the size-(j-1) subsets).  A fixed class x of S keeps its code
    at S.  A free class x of S, its free bit 0, goes to S + {p+1} with the
    free bit moved last: its code is y = x << 1, complemented to the
    canonical class when y's top bit is set.  Returns, per degree, the list
    mapping cone basis positions to target positions; each is a permutation.
    """
    perms = {}
    for j in range(p + 2):
        index, size = _subset_index(p + 1, j), _arity_size(j, FIXED)
        perm = [index[s] * size + x for s in _subset_index(p, j) for x in range(size)]
        if j:
            full = (1 << j) - 1
            for s in _subset_index(p, j - 1):
                for y in (x << 1 for x in range(_arity_size(j - 1, FREE))):
                    perm.append(index[s + (p + 1,)] * size + (y ^ full if y >> (j - 1) else y))
        perms[-j] = perm
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
