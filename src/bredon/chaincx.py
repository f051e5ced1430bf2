"""Bounded cochain complexes of free finitely generated abelian groups.

A complex stores ranks per degree and integer differentials d^i: C^i -> C^{i+1}
with d^{i+1} @ d^i = 0.  Provided operations: validation, tensor product with
Koszul signs, mapping cones, cohomology (integral or mod a prime), induced
maps on cohomology with classification flags, and Euler characteristics.

Sign conventions are calibrated once and fixed:

* tensor: d(x (x) y) = dx (x) y + (-1)^p x (x) dy for x of degree p, with the
  summands C^p (x) D^q at total degree n concatenated in decreasing order of
  p (increasing homological degree of the first factor);
* cone(f: S -> T): Cone^i = T^i (+) S^{i+1} with block differential
  [[d_T, f], [0, -d_S]], so that cone(2: Z -> Z) lives on degrees -1, 0.

>>> zz = two_term_complex(2)     # Z --2--> Z on degrees -1, 0
>>> print(cohomology(zz, 0))
Z/2
>>> sq = tensor(zz, zz)
>>> [sq.rank(i) for i in (-2, -1, 0)]
[1, 2, 1]
>>> print(cohomology(sq, -1))    # the naive tensor square is NOT torsion-free
Z/2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .abgrp import (
    CohomologyPresentation,
    FgAbelianGroup,
    IntegerMatrix,
    PresentedGroup,
    cohomology_at,  # unused here; the benchmark tracer pins chaincx.cohomology_at as an alias
    cohomology_presentation,
    is_exact_at,
    map_is_injective,
    map_is_multiplication_by,
    map_is_surjective,
    map_is_zero,
    map_on_cohomology,
    window_cohomology,
)


class ComplexError(ValueError):
    """A violated complex or chain-map invariant, naming the failing square."""


class CochainComplex:
    """A bounded complex of free abelian groups with integer differentials.

    Every complex is validated once, when it is built (shapes and d.d = 0,
    raising ComplexError), so nothing that reads its windows checks again.
    """

    __slots__ = ("components", "differentials", "_pres_cache")

    def __init__(self, components: Dict[int, int], differentials: Dict[int, IntegerMatrix]):
        self.components = {d: r for d, r in components.items() if r}
        self.differentials = {d: m for d, m in differentials.items() if not m.is_zero()}
        self._pres_cache: Dict[tuple[int, int], CohomologyPresentation] = {}
        validate(self)

    # -- shape -----------------------------------------------------------
    def rank(self, degree: int) -> int:
        return self.components.get(degree, 0)

    def degrees(self) -> list:
        return sorted(self.components)

    def support(self) -> tuple[int, int]:
        ds = self.degrees()
        if not ds:
            return (0, -1)
        return (ds[0], ds[-1])

    def differential(self, degree: int) -> IntegerMatrix:
        d = self.differentials.get(degree)
        if d is None:
            return IntegerMatrix.zeros(self.rank(degree + 1), self.rank(degree))
        return d

    def total_rank(self) -> int:
        return sum(self.components.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CochainComplex):
            return NotImplemented
        if self.components != other.components:
            return False
        lo, hi = min(self.support()[0], other.support()[0]), max(self.support()[1], other.support()[1])
        return all(self.differential(i) == other.differential(i) for i in range(lo, hi + 1))

    def __repr__(self) -> str:
        ranks = ", ".join(f"{d}:{r}" for d, r in sorted(self.components.items()))
        return f"CochainComplex({{{ranks}}})"

    def shift(self, n: int) -> "CochainComplex":
        """C[n]^i = C^{i+n}, with differential (-1)^n d."""
        comps = {d - n: r for d, r in self.components.items()}
        sign = -1 if n % 2 else 1
        diffs = {d - n: (m if sign == 1 else -m) for d, m in self.differentials.items()}
        return CochainComplex(comps, diffs)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "components": {str(d): r for d, r in sorted(self.components.items())},
            "differentials": {str(d): m.entries for d, m in sorted(self.differentials.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "CochainComplex":
        comps = {int(d): int(r) for d, r in data["components"].items()}
        diffs = {}
        for d, flat in data["differentials"].items():
            d = int(d)
            rows = comps.get(d + 1, 0)
            cols = comps.get(d, 0)
            diffs[d] = IntegerMatrix.from_flat(rows, cols, flat)
        return cls(comps, diffs)

    def _presentation(self, degree: int, m: int = 0) -> CohomologyPresentation:
        pres = self._pres_cache.get((degree, m))
        if pres is None:
            pres = cohomology_presentation(self.differential(degree - 1),
                                           self.differential(degree), m)
            self._pres_cache[(degree, m)] = pres
        return pres


def validate(c: CochainComplex) -> bool:
    """Check matrix shapes and d.d = 0; raises ComplexError at the first bad square."""
    for d, m in c.differentials.items():
        if m.rows != c.rank(d + 1) or m.cols != c.rank(d):
            raise ComplexError(
                f"differential at degree {d} has shape {m.rows}x{m.cols}, "
                f"expected {c.rank(d + 1)}x{c.rank(d)}")
    for d in sorted(c.differentials):
        nxt = c.differentials.get(d + 1)
        if nxt is not None and not (nxt @ c.differentials[d]).is_zero():
            raise ComplexError(f"d.d != 0 at degrees {d} -> {d + 2}")
    return True


def unit_complex() -> CochainComplex:
    """Z concentrated in degree 0."""
    return CochainComplex({0: 1}, {})


def two_term_complex(n: int, low: int = -1) -> CochainComplex:
    """Z --n--> Z on degrees (low, low+1)."""
    return CochainComplex({low: 1, low + 1: 1}, {low: IntegerMatrix.from_rows([[n]])})


def euler_characteristic(c: CochainComplex) -> int:
    return sum((-1) ** (d % 2) * r for d, r in c.components.items())


def cohomology(c: CochainComplex, degree: int, m: int = 0) -> FgAbelianGroup:
    """H^degree(C) with Z (m = 0) or Z/m (m prime) coefficients.

    C was verified when it was built, so no product d.d is formed here.
    """
    return window_cohomology(c.differential(degree - 1), c.differential(degree), m)


def all_cohomology(c: CochainComplex, m: int = 0) -> Dict[int, FgAbelianGroup]:
    lo, hi = c.support()
    out = {}
    for degree in range(lo, hi + 1):
        g = cohomology(c, degree, m)
        if not g.is_trivial():
            out[degree] = g
    return out


# ---------------------------------------------------------------------------
# Tensor product
# ---------------------------------------------------------------------------

def _tensor_blocks(c: CochainComplex, d: CochainComplex, n: int) -> list:
    """Summands (p, q) with p+q = n, in decreasing order of p."""
    out = []
    for p in sorted(c.components, reverse=True):
        q = n - p
        if d.rank(q):
            out.append((p, q))
    return out


def tensor(c: CochainComplex, d: CochainComplex) -> CochainComplex:
    """Tensor product complex with the Koszul sign rule.

    The basis of (C (x) D)^n over the block (p, q) is e_i (x) f_j ordered with
    the C-index major.

    >>> t = tensor(two_term_complex(2), unit_complex())
    >>> t == two_term_complex(2)
    True
    """
    comps: Dict[int, int] = {}
    degrees = set()
    for p in c.components:
        for q in d.components:
            degrees.add(p + q)
    for n in degrees:
        comps[n] = sum(c.rank(p) * d.rank(q) for p, q in _tensor_blocks(c, d, n))

    def offsets(n):
        off = {}
        k = 0
        for p, q in _tensor_blocks(c, d, n):
            off[(p, q)] = k
            k += c.rank(p) * d.rank(q)
        return off

    diffs: Dict[int, IntegerMatrix] = {}
    for n in sorted(degrees):
        if (n + 1) not in comps:
            tgt_off = {}
        else:
            tgt_off = offsets(n + 1)
        src_off = offsets(n)
        entries: dict = {}
        for (p, q), base in src_off.items():
            rc, rd = c.rank(p), d.rank(q)
            # dx (x) y lands in block (p+1, q)
            dc = c.differentials.get(p)
            if dc is not None and (p + 1, q) in tgt_off:
                tbase = tgt_off[(p + 1, q)]
                for (ti, si), v in dc.items():
                    for j in range(rd):
                        entries[(tbase + ti * rd + j, base + si * rd + j)] = v
            # (-1)^p x (x) dy lands in block (p, q+1)
            dd = d.differentials.get(q)
            if dd is not None and (p, q + 1) in tgt_off:
                sign = -1 if p % 2 else 1
                tbase = tgt_off[(p, q + 1)]
                rd1 = d.rank(q + 1)
                for (tj, sj), v in dd.items():
                    for i in range(rc):
                        key = (tbase + i * rd1 + tj, base + i * rd + sj)
                        entries[key] = entries.get(key, 0) + sign * v
        if entries:
            diffs[n] = IntegerMatrix.from_entries(comps.get(n + 1, 0), comps[n], entries)
    return CochainComplex(comps, diffs)


# ---------------------------------------------------------------------------
# Chain maps and cones
# ---------------------------------------------------------------------------

class ChainMap:
    """A degreewise map f: source -> target commuting with the differentials."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 maps: Dict[int, IntegerMatrix], check: bool = True):
        self.source = source
        self.target = target
        self.maps = {d: m for d, m in maps.items() if not m.is_zero()}
        if check:
            self.validate()

    def component(self, degree: int) -> IntegerMatrix:
        m = self.maps.get(degree)
        if m is None:
            return IntegerMatrix.zeros(self.target.rank(degree), self.source.rank(degree))
        return m

    def validate(self) -> bool:
        lo = min(self.source.support()[0], self.target.support()[0])
        hi = max(self.source.support()[1], self.target.support()[1])
        for d, m in self.maps.items():
            if m.rows != self.target.rank(d) or m.cols != self.source.rank(d):
                raise ComplexError(f"chain map component at degree {d} has wrong shape")
        for d in range(lo, hi + 1):
            left = self.component(d + 1) @ self.source.differential(d)
            right = self.target.differential(d) @ self.component(d)
            if left != right:
                raise ComplexError(f"chain map does not commute with d at degree {d}")
        return True

    @classmethod
    def identity(cls, c: CochainComplex) -> "ChainMap":
        return cls(c, c, {d: IntegerMatrix.identity(r) for d, r in c.components.items()},
                   check=False)

    @classmethod
    def zero(cls, source: CochainComplex, target: CochainComplex) -> "ChainMap":
        return cls(source, target, {}, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self . other (other applied first)."""
        if other.target is not self.source and other.target.components != self.source.components:
            raise ComplexError("composition mismatch")
        maps = {}
        for d in set(self.maps) | set(other.maps):
            maps[d] = self.component(d) @ other.component(d)
        return ChainMap(other.source, self.target, maps, check=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        maps = {}
        for d in set(self.maps) | set(other.maps):
            maps[d] = self.component(d) + other.component(d)
        return ChainMap(self.source, self.target, maps, check=False)

    def scale(self, n: int) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {d: m.scale(n) for d, m in self.maps.items()}, check=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        degrees = set(self.maps) | set(other.maps)
        return all(self.component(d) == other.component(d) for d in degrees)


def cone(f: ChainMap) -> CochainComplex:
    """Mapping cone with Cone^i = target^i (+) source^{i+1}.

    >>> acyclic = cone(ChainMap.identity(unit_complex()))
    >>> all_cohomology(acyclic)
    {}
    """
    s, t = f.source, f.target
    comps: Dict[int, int] = {}
    for d, r in t.components.items():
        comps[d] = comps.get(d, 0) + r
    for d, r in s.components.items():
        comps[d - 1] = comps.get(d - 1, 0) + r
    diffs: Dict[int, IntegerMatrix] = {}
    for d in sorted(comps):
        rows = comps.get(d + 1, 0)
        cols = comps[d]
        entries: dict = {}
        t_rows, t_cols = t.rank(d + 1), t.rank(d)
        for (i, j), v in t.differential(d).items():
            entries[(i, j)] = v
        for (i, j), v in f.component(d + 1).items():
            entries[(i, t_cols + j)] = v
        for (i, j), v in s.differential(d + 1).items():
            entries[(t_rows + i, t_cols + j)] = -v
        if entries:
            diffs[d] = IntegerMatrix.from_entries(rows, cols, entries)
    return CochainComplex(comps, diffs)


def cone_inclusion(f: ChainMap, c: CochainComplex) -> ChainMap:
    """The inclusion target -> cone(f) (identity onto the first block)."""
    maps = {}
    for d, r in f.target.components.items():
        entries = {(i, i): 1 for i in range(r)}
        maps[d] = IntegerMatrix.from_entries(c.rank(d), r, entries)
    return ChainMap(f.target, c, maps, check=False)


def cone_projection(f: ChainMap, c: CochainComplex) -> ChainMap:
    """The projection cone(f) -> source[1] (onto the second block)."""
    shifted = f.source.shift(1)
    maps = {}
    for d in c.components:
        t_cols = f.target.rank(d)
        s_rank = f.source.rank(d + 1)
        entries = {(i, t_cols + i): 1 for i in range(s_rank)}
        maps[d] = IntegerMatrix.from_entries(s_rank, c.rank(d), entries)
    return ChainMap(c, shifted, maps, check=False)


# ---------------------------------------------------------------------------
# Induced maps on cohomology
# ---------------------------------------------------------------------------

@dataclass
class InducedMap:
    """The map H^i(source) -> H^i(target) on canonical generators."""

    degree: int
    source_group: FgAbelianGroup
    target_group: FgAbelianGroup
    matrix: IntegerMatrix
    source: PresentedGroup
    target: PresentedGroup

    def is_zero(self) -> bool:
        return map_is_zero(self.matrix, self.target)

    def is_injective(self) -> bool:
        return map_is_injective(self.matrix, self.source, self.target)

    def is_surjective(self) -> bool:
        return map_is_surjective(self.matrix, self.target)

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def is_multiplication_by(self, n: int) -> bool:
        """True when source and target forms agree and the map is x -> n x."""
        return map_is_multiplication_by(self.matrix, n, self.source, self.target)


def induced_map(f: ChainMap, degree: int, m: int = 0) -> InducedMap:
    """The induced map on cohomology at the given degree, over Z or Z/m.

    >>> c = two_term_complex(2)
    >>> induced_map(ChainMap.identity(c), 0).is_multiplication_by(1)
    True
    >>> induced_map(ChainMap.identity(c).scale(0), 0).is_zero()
    True
    """
    return _induced(f.component(degree), degree, f.source._presentation(degree, m),
                    f.target._presentation(degree, m))


def _induced(component: IntegerMatrix, degree: int, sp: CohomologyPresentation,
             tp: CohomologyPresentation) -> InducedMap:
    mat = map_on_cohomology(component, sp, tp)
    return InducedMap(degree, sp.group, tp.group, mat, PresentedGroup.of(sp), PresentedGroup.of(tp))


# ---------------------------------------------------------------------------
# Long exact sequence of a cone
# ---------------------------------------------------------------------------

def check_cone_les(f: ChainMap) -> bool:
    """Exactness of H^i(T) -> H^i(cone f) -> H^{i+1}(S) -> H^{i+1}(T) at all nodes.

    Verified on canonical forms via lattice containments; raises ComplexError
    at the first inexact node.
    """
    cn = cone(f)
    incl = cone_inclusion(f, cn)
    proj = cone_projection(f, cn)
    shifted = proj.target
    lo = min(cn.support()[0], f.target.support()[0], shifted.support()[0]) - 1
    hi = max(cn.support()[1], f.target.support()[1], shifted.support()[1]) + 1
    seq = []
    for i in range(lo, hi + 1):
        seq.append(("T", i, induced_map(incl, i)))
        seq.append(("C", i, induced_map(proj, i)))
        # connecting map H^i(S[1]) = H^{i+1}(S) --f--> H^{i+1}(T), expressed on
        # the same presentations the neighbouring maps use
        conn = _induced(f.component(i + 1), i, shifted._presentation(i),
                        f.target._presentation(i + 1))
        seq.append(("S", i, conn))
    for k in range(1, len(seq)):
        _, i1, g1 = seq[k - 1]
        node, i2, g2 = seq[k]
        if g1.target != g2.source:
            raise ComplexError(f"node mismatch at {node} degree {i2}")
        if not is_exact_at(g1.matrix, g2.matrix, g1.target, g2.target):
            raise ComplexError(f"cone sequence inexact at {node} in degree {i2}")
    return True
