"""Bounded cochain complexes of free finitely generated abelian groups.

A complex stores ranks per degree and integer differentials d^i: C^i -> C^{i+1}
with d^{i+1} @ d^i = 0.  Provided operations: validation, mapping cones,
cohomology (over Z or Z/2), and induced maps on integral cohomology with a
multiplication-by-n test.

Sign conventions are calibrated once and fixed:

* cone(f: S -> T): Cone^i = T^i (+) S^{i+1} with block differential
  [[d_T, f], [0, -d_S]], so that cone(2: Z -> Z) lives on degrees -1, 0;
* the Morse retraction: the sweep of a complex C (``abgrp.MorseRecord``)
  leaves a complex M with chain maps f: C -> M and g: M -> C, f.g = 1 on M.
  With U_k d^k V_k the unit phase of d^k and (B_k, A_k) the rows and
  columns of its unit pivots, each +1 after the logged negations, the
  homotopy is h^{k+1} = -V_k[:, A_k] U_k[B_k, :]: C^{k+1} -> C^k, so that
  g.f = 1 + d h + h d, and h.h = 0, f.h = 0 and h.g = 0.

The coefficients are Z and Z/2, each with one engine.  A group of C is
read from the Smith diagonals (over Z) or the ranks over Z/2 of C's
differentials, C's own or its linked twin's.  Over Z each diagonal is
one 1 per unit pivot of the sweep, then the diagonal of the differential
of M that the record takes once, as ``explain`` reads it, and a chain map
phi: S -> T induces the map of f_T phi g_S on H^k(M_S) -> H^k(M_T).  Over
Z/2 the ranks are those of the differentials themselves, each taken once
by the bitset kernel ``abgrp.rank_mod`` and kept on the complex; this path
uses neither the integral engine nor M, so it stays an independent check
of the universal-coefficient result over Z.

A twin of C is a complex T whose differential from degree -k-1 is the
transpose of C's d^k, for every k but at most one, the uncovered degree;
T's components are then those of C in the opposite degrees, as for the
dual complex Hom(C, Z).  A transpose has the Smith diagonal and the ranks
of the matrix, so a group of C can be read off T's record and ranks.  Two
complexes are linked (``_link_twin``) only where they are twins by
construction, as the orbit complexes at n and -n (``sigmacx``).

>>> zz = CochainComplex({-1: 1, 0: 1}, {-1: IntegerMatrix.from_rows([[2]])})  # Z --2--> Z
>>> print(cohomology(zz, 0))
Z/2
>>> print(cohomology(zz, 0, 2), cohomology(zz, -1, 2))   # over Z/2 both degrees survive
Z/2 Z/2
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .abgrp import (
    CohomologyPresentation,
    FgAbelianGroup,
    IntegerMatrix,
    MorseRecord,
    check_modulus,
    cohomology_at,  # unused here; the benchmark tracer pins chaincx.cohomology_at as an alias
    cohomology_presentation,
    is_exact_at,
    map_is_multiplication_by,
    map_on_cohomology,
    rank_mod,
    snf_diagonal,
)


class ComplexError(ValueError):
    """A violated complex or chain-map invariant, naming the failing square."""


class CochainComplex:
    """A bounded complex of free abelian groups with integer differentials.

    Every complex is proven a complex once, when it is built, so nothing
    that reads its windows checks again.  The constructor validates (shapes
    and d.d = 0, raising ComplexError), and so does every complex built from
    caller data, by ``unit_complex`` or ``shift``.  Two constructions are
    certified instead, and skip only the validation, through the private
    ``_certified``: the orbit complexes of ``sigmacx.build_sigma_complex``,
    after the coface certificate of their slot blocks, and ``cone`` of a map
    known to be a chain map, by the cone lemma in its docstring.  A complex owns one ``MorseRecord`` of its
    differentials, from its lowest degree to its highest, made when
    something first sweeps it, and the rank over Z/2 of each differential,
    taken when a group mod 2 first needs it.  A complex may be linked once
    to a twin, and then keeps the Smith diagonal it reduced alone, of the
    one differential the twin does not cover.
    """

    __slots__ = ("components", "differentials", "_pres_cache", "_morse", "_mod2_ranks",
                 "_twin", "_lone", "__weakref__")

    def __init__(self, components: Dict[int, int], differentials: Dict[int, IntegerMatrix]):
        self._adopt(components, differentials)
        validate(self)

    @classmethod
    def _certified(cls, components: Dict[int, int],
                   differentials: Dict[int, IntegerMatrix]) -> "CochainComplex":
        """The complex of ``__init__``, without ``validate``: only for a
        construction whose certificate has proven d.d = 0."""
        c = cls.__new__(cls)
        c._adopt(components, differentials)
        return c

    def _adopt(self, components: Dict[int, int], differentials: Dict[int, IntegerMatrix]):
        self.components = {d: r for d, r in components.items() if r}
        self.differentials = {d: m for d, m in differentials.items() if not m.is_zero()}
        self._pres_cache: Dict[int, CohomologyPresentation] = {}
        self._morse: Optional[MorseRecord] = None
        self._mod2_ranks: Dict[int, int] = {}
        self._twin: Optional[Tuple["CochainComplex", Optional[int]]] = None
        self._lone: Optional[tuple] = None

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

    def _record(self) -> MorseRecord:
        if self._morse is None:
            lo, hi = self.support()
            self._morse = MorseRecord([self.differential(k) for k in range(lo, hi + 1)])
        return self._morse

    def _model(self, degree: int) -> tuple:
        """(d_M^(k-1), d_M^k, f^k, g^k) of the Morse model at degree k."""
        return self._record().window(degree - self.support()[0])

    def _presentation(self, degree: int) -> CohomologyPresentation:
        """H^degree(M) over Z, which is H^degree(C) read through f and g."""
        pres = self._pres_cache.get(degree)
        if pres is None:
            d_in, d_out, _, _ = self._model(degree)
            pres = self._pres_cache[degree] = cohomology_presentation(d_in, d_out)
        return pres

    def _link_twin(self, twin: "CochainComplex", lone: Optional[int]):
        """Read groups through twin from now on: twin's d^(-k-1) is the
        transpose of this d^k for every k but lone (None when the twin
        covers every degree), by the construction of both.  The twin reads
        through this complex too, unless it is linked already.  Each link
        is set once."""
        self._twin = (twin, lone)
        if twin._twin is None:
            twin._twin = (self, None if lone is None else -lone - 1)

    def _diagonal(self, degree: int) -> tuple:
        """The Smith diagonal of d^degree, empty for a zero differential.

        From this complex's own record if it has one; else, when a linked
        twin has a record, from the twin's, or by reducing d^degree alone
        if the twin does not cover it; else this complex sweeps itself.
        """
        d = self.differentials.get(degree)
        if d is None:
            return ()
        if self._morse is None and self._twin is not None:
            twin, lone = self._twin
            if twin._morse is not None:
                if degree != lone:
                    return twin._morse.diagonal(-degree - 1 - twin.support()[0])
                if self._lone is None:
                    self._lone = tuple(snf_diagonal(d))
                return self._lone
        return self._record().diagonal(degree - self.support()[0])

    def _rank_mod2(self, degree: int) -> int:
        """The rank of d^degree over Z/2, by the bitset kernel, once per
        differential and twin: this complex's own, else a linked twin's if
        the twin has taken it, else taken and kept here."""
        d = self.differentials.get(degree)
        if d is None:
            return 0
        r = self._mod2_ranks.get(degree)
        if r is None and self._twin is not None:
            twin, lone = self._twin
            if degree != lone:
                r = twin._mod2_ranks.get(-degree - 1)
        if r is None:
            r = self._mod2_ranks[degree] = rank_mod(d)
        return r


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


def cohomology(c: CochainComplex, degree: int, m: int = 0) -> FgAbelianGroup:
    """H^degree(C) with Z (m = 0) or Z/2 (m = 2) coefficients.

    C was verified when it was built, so no product d.d is formed here.
    The group is read from the Smith diagonals and Z/2 ranks of C's
    differentials, its own or its linked twin's.  Over Z it is
    Z^(rank C^k - r(k-1) - r(k)), with r(i) the length of the Smith
    diagonal of d^i, plus a Z/e for each entry e > 1 of the diagonal of
    d^(k-1).  The diagonals come from C's own Morse record, made by one
    sweep from the lowest degree up, which reduces each differential and
    each d_M once whatever degrees are asked for, in any order; a query
    sweeps through the differential above its degree.  A complex that has
    no record and a linked twin that has one reads the twin's instead,
    and reduces alone only a differential the twin does not cover.  Mod 2
    the group is (Z/2)^n with n = rank C^k - r(k-1) - r(k), where r(i) is
    the rank of d^i over Z/2: each differential is ranked once, by the
    bitset kernel, on C or on its twin, and the rank is kept, so d^k
    serves as d_out at k and as d_in at k + 1 without a second
    elimination.
    """
    check_modulus(m)
    if m == 2:
        n = c.rank(degree) - c._rank_mod2(degree - 1) - c._rank_mod2(degree)
        return FgAbelianGroup(0, (2,) * n)
    below, above = c._diagonal(degree - 1), c._diagonal(degree)
    return FgAbelianGroup.from_cyclic_orders((0,) * (c.rank(degree) - len(below) - len(above))
                                             + below)


def explain(c: CochainComplex, degree: int, m: int = 0) -> List[str]:
    """How H^degree(C) is computed, one line each.

    The ranks of C and of its Morse model M per degree, then the Smith
    diagonals of d_in and d_out, each with the number of unit pivots that
    the sweep took in it and how many of those were free faces, and over
    Z/2 also its rank mod 2.  The diagonal of a differential d of C is one
    1 per unit pivot, then the diagonal of its part d_M on M, as the
    record took it (see ``abgrp.MorseRecord``).  The printed rank mod 2 is
    the complex's own rank of d over Z/2, the one ``cohomology`` uses.
    """
    check_modulus(m)
    lo, hi = c.support()
    swept = c._record().sweep(hi - lo)
    model = {lo + t: g.cols for t, g in enumerate(swept.g)}
    lines = [f"complex: ranks {_by_degree(c.components)} (total {c.total_rank()})",
             f"Morse model: ranks {_by_degree(model)} (total {sum(model.values())})"]
    for name, k in (("d_in", degree - 1), ("d_out", degree)):
        a = c.differential(k)
        units, faces, diag = (swept.units[k - lo], swept.faces[k - lo],
                              c._record().diagonal(k - lo)) if lo <= k <= hi else (0, 0, ())
        runs = ", ".join(f"{v} x {len(list(run))}" for v, run in groupby(diag))
        line = (f"{name} = d^{k} ({a.rows}x{a.cols}): Smith diagonal {runs or 'empty'}; "
                f"{units} unit pivots ({faces} free faces)")
        if m:
            line += f"; rank mod 2 {c._rank_mod2(k)}"
        lines.append(line)
    return lines


def _by_degree(ranks: Dict[int, int]) -> str:
    return " ".join(f"{d}:{r}" for d, r in sorted(ranks.items()))


def all_cohomology(c: CochainComplex, m: int = 0) -> Dict[int, FgAbelianGroup]:
    lo, hi = c.support()
    out = {}
    for degree in range(lo, hi + 1):
        g = cohomology(c, degree, m)
        if not g.is_trivial():
            out[degree] = g
    return out


# ---------------------------------------------------------------------------
# Chain maps and cones
# ---------------------------------------------------------------------------

class ChainMap:
    """A degreewise map f: source -> target commuting with the differentials.

    A map built with ``check=True`` is validated (shapes and every square
    f d = d f).  One fact is recorded: whether the map is known to commute
    with d, because it was validated here or because ``_certified`` built it
    after a certificate; ``cone`` reads it.  A map built with ``check=False``
    from caller data, or by ``compose``, ``add`` or ``scale``, is not known
    to be one.
    """

    __slots__ = ("source", "target", "maps", "_chain")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 maps: Dict[int, IntegerMatrix], check: bool = True):
        self.source = source
        self.target = target
        self.maps = {d: m for d, m in maps.items() if not m.is_zero()}
        if check:
            self.validate()
        self._chain = check

    @classmethod
    def _certified(cls, source: CochainComplex, target: CochainComplex,
                   maps: Dict[int, IntegerMatrix]) -> "ChainMap":
        """A map built with ``check=False`` whose certificate has proven that
        it commutes with d, recorded as a chain map."""
        f = cls(source, target, maps, check=False)
        f._chain = True
        return f

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

    Lemma (Weibel, *An Introduction to Homological Algebra*, section 1.5): with
    D = [[d_T, f], [0, -d_S]], D.D = [[d_T d_T, d_T f - f d_S], [0, d_S d_S]],
    which is zero when S and T are complexes and f is a chain map.  Every
    CochainComplex is a complex once built, so the cone of a map known to be
    a chain map (validated when it was built, or certified) is built without
    validation; the cone of any other map validates.

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
    diffs = {d: IntegerMatrix.from_bands(comps[d], [
        (t.rank(d + 1), [(0, t.differential(d)), (t.rank(d), f.component(d + 1))]),
        (s.rank(d + 2), [(t.rank(d), -s.differential(d + 1))])])
        for d in sorted(comps)}
    return CochainComplex._certified(comps, diffs) if f._chain else CochainComplex(comps, diffs)


def cone_inclusion(f: ChainMap, c: CochainComplex) -> ChainMap:
    """The inclusion target -> cone(f) (identity onto the first block)."""
    maps = {d: IntegerMatrix.from_bands(r, [(r, [(0, IntegerMatrix.identity(r))]),
                                            (f.source.rank(d + 1), [])])
            for d, r in f.target.components.items()}
    return ChainMap(f.target, c, maps, check=False)


def cone_projection(f: ChainMap, c: CochainComplex) -> ChainMap:
    """The projection cone(f) -> source[1] (onto the second block)."""
    maps = {}
    for d in c.components:
        r = f.source.rank(d + 1)
        t = f.target.rank(d)
        maps[d] = IntegerMatrix.from_bands(t + r, [(r, [(t, IntegerMatrix.identity(r))])])
    return ChainMap(c, f.source.shift(1), maps, check=False)


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
    source: tuple    # the orders of the source's canonical generators, 0 for a free one
    target: tuple

    def is_multiplication_by(self, n: int) -> bool:
        """True when source and target forms agree and the map is x -> n x."""
        return map_is_multiplication_by(self.matrix, n, self.source, self.target)


def induced_map(f: ChainMap, degree: int) -> InducedMap:
    """The induced map on integral cohomology at the given degree.

    >>> c = CochainComplex({-1: 1, 0: 1}, {-1: IntegerMatrix.from_rows([[2]])})
    >>> induced_map(ChainMap.identity(c), 0).is_multiplication_by(1)
    True
    >>> induced_map(ChainMap.identity(c).scale(0), 0).is_multiplication_by(0)
    True
    """
    return _induced(f.component(degree), degree, f.source, degree, f.target, degree)


def _induced(component: IntegerMatrix, degree: int, source: CochainComplex, s_degree: int,
             target: CochainComplex, t_degree: int) -> InducedMap:
    """The map on cohomology of ``component``: C^s_degree -> C^t_degree, as f_T . phi . g_S on M."""
    sp, tp = source._presentation(s_degree), target._presentation(t_degree)
    on_model = target._model(t_degree)[2] @ component @ source._model(s_degree)[3]
    mat = map_on_cohomology(on_model, sp, tp)
    return InducedMap(degree, sp.group, tp.group, mat, sp.orders, tp.orders)


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
        conn = _induced(f.component(i + 1), i, shifted, i, f.target, i + 1)
        seq.append(("S", i, conn))
    for k in range(1, len(seq)):
        _, i1, g1 = seq[k - 1]
        node, i2, g2 = seq[k]
        if g1.target != g2.source:
            raise ComplexError(f"node mismatch at {node} degree {i2}")
        if not is_exact_at(g1.matrix, g2.matrix, g1.target, g2.target):
            raise ComplexError(f"cone sequence inexact at {node} in degree {i2}")
    return True
