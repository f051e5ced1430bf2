"""Formal abelian groups under field profiles, and the deduction engine.

Groups appearing in the weight-1 and weight-sigma tables are multisets of
symbolic atoms from a closed vocabulary of seven: Z, Z/2, the unit group k*,
its squares k*2, the square classes k*/k*2, k*2/k*4 and the 2-torsion of the
units.  One table gives their text and canonical order, and a second their
images under - (x) Z/2 and their 2-torsion.  A field profile (quadratically
closed, euclidean, formally real, general) rewrites atoms to their resolved
values in one pass; equality of formal groups is multiset equality after
normalization, i.e. comparison as abstract groups.

The exact-sequence solver consumes finite windows of a long exact sequence
with partially known nodes and tagged arrows and propagates zero flanks,
isomorphisms, multiplication-by-2 decompositions, and named axioms to a
fixed point.  It never guesses: extension problems are resolved only by a
named, cited axiom, and unforced unknowns are reported as unknowns.

One induction step serves both cones of both weights: it solves the window
0 -> B -> B -> k* -> B -> B -> 0 around the units column and derives the next
column from the known one.  One driver seeds a cone with its base columns,
advances it column by column until the requested depth or the first step the
named axioms cannot settle, and reduces mod 2; ``derive_weight1`` and
``derive_weight_sigma`` only supply the seeds.  Every produced table entry
carries its axiom trail.

>>> qc = PROFILES["quadratically_closed"]
>>> print(normalize(FormalGroup.of(KMODSQ), qc))
0
>>> print(tensor_Z2(FormalGroup.of(KSTAR), PROFILES["general"]))
k*/k*2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .abgrp import check_modulus

# ---------------------------------------------------------------------------
# Atoms and formal groups
# ---------------------------------------------------------------------------

# The closed vocabulary: each atom kind and its text, in the canonical order.
# Weights 0 and 1 of a field need no more (Mazza-Voevodsky-Weibel, Lecture
# Notes on Motivic Cohomology, Thm 4.1).
ATOM_TEXT = {"Z": "Z", "Z2": "Z/2", "Kstar": "k*", "Ksq": "k*2", "KmodSq": "k*/k*2",
             "KsqMod4": "k*2/k*4", "Tors2K": "_2k*"}
_RANK = {kind: rank for rank, kind in enumerate(ATOM_TEXT)}


@dataclass(frozen=True)
class Atom:
    """A symbolic direct summand, one of the kinds in ``ATOM_TEXT``."""

    kind: str

    def __post_init__(self):
        if self.kind not in ATOM_TEXT:
            raise ValueError(f"unknown atom kind {self.kind!r}; "
                             f"the kinds are {', '.join(ATOM_TEXT)}")

    def sort_key(self):
        return _RANK[self.kind]

    def render(self) -> str:
        return ATOM_TEXT[self.kind]


ZA = Atom("Z")
Z2 = Atom("Z2")
KSTAR = Atom("Kstar")
KSQ = Atom("Ksq")
KMODSQ = Atom("KmodSq")
KSQMOD4 = Atom("KsqMod4")
TORS2K = Atom("Tors2K")

# each atom's image under - (x) Z/2 and its 2-torsion subgroup: an atom of
# exponent 2 is both; the 2-torsion of k*2, {1, -1} meet k*2, depends on the
# profile (None)
_MOD2 = {ZA: ((Z2,), ()), KSTAR: ((KMODSQ,), (TORS2K,)), KSQ: ((KSQMOD4,), None),
         **{a: ((a,), (a,)) for a in (Z2, KMODSQ, KSQMOD4, TORS2K)}}


@dataclass(frozen=True)
class FormalGroup:
    """A finite multiset of atoms; the zero group is the empty multiset."""

    atoms: Tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms, key=Atom.sort_key)))

    @classmethod
    def of(cls, *atoms: Atom) -> "FormalGroup":
        return cls(tuple(atoms))

    @classmethod
    def zero(cls) -> "FormalGroup":
        return cls(())

    def is_zero(self) -> bool:
        return not self.atoms

    def direct_sum(self, *others: "FormalGroup") -> "FormalGroup":
        atoms = list(self.atoms)
        for o in others:
            atoms.extend(o.atoms)
        return FormalGroup(tuple(atoms))

    def render(self) -> str:
        if not self.atoms:
            return "0"
        return " (+) ".join(a.render() for a in self.atoms)

    def to_json(self) -> dict:
        return {"atoms": [a.render() for a in self.atoms]}

    def __str__(self) -> str:
        return self.render()


ZERO_FG = FormalGroup.zero()


@dataclass(frozen=True)
class ConditionalGroup:
    """A value that depends on whether -1 is a square in the base field.

    Profiles that commit to the predicate resolve it; the general profile
    keeps both branches rather than choosing.
    """

    if_minus_one_square: FormalGroup
    otherwise: FormalGroup

    def resolve(self, profile: "FieldProfile"):
        if profile.minus_one_is_square == "yes":
            return normalize(self.if_minus_one_square, profile)
        if profile.minus_one_is_square == "no":
            return normalize(self.otherwise, profile)
        return self

    def render(self) -> str:
        return (f"{self.if_minus_one_square.render()} if -1 is a square else "
                f"{self.otherwise.render()}")

    def to_json(self) -> dict:
        return {"if_minus_one_square": self.if_minus_one_square.to_json(),
                "otherwise": self.otherwise.to_json()}

    def __str__(self) -> str:
        return self.render()


class FormalRuleError(ValueError):
    """No cited rule resolves an atom under the active profile."""


class FieldProfile:
    """Rewrite rules and predicates attached to a class of base fields.

    All profiles model characteristic-zero fields, so the 2-torsion of the
    unit group is {+1, -1} = Z/2 whenever the profile commits to it.  Each
    rewrite is final: its image holds no atom that the profile rewrites, so
    ``normalize`` needs one pass.
    """

    def __init__(self, name: str, rewrites: Dict[Atom, Tuple[Atom, ...]],
                 minus_one_is_square: str):
        if minus_one_is_square not in ("yes", "no", "unknown"):
            raise ValueError("minus_one_is_square must be yes/no/unknown")
        for atom, image in rewrites.items():
            if any(b in rewrites for b in image):
                raise ValueError(f"profile {name!r} rewrites {atom.render()} to "
                                 "an atom that it rewrites again")
        self.name = name
        self.rewrites = dict(rewrites)
        self.minus_one_is_square = minus_one_is_square

    def __repr__(self):
        return f"FieldProfile({self.name!r})"


PROFILES: Dict[str, FieldProfile] = {
    # every element is a square: k* = k*2 and the square classes vanish
    "quadratically_closed": FieldProfile(
        "quadratically_closed",
        {KMODSQ: (), KSQ: (KSTAR,), KSQMOD4: (), TORS2K: (Z2,)},
        minus_one_is_square="yes"),
    # formally real with exactly two square classes (the real numbers)
    "euclidean": FieldProfile(
        "euclidean",
        {KMODSQ: (Z2,), KSQMOD4: (), TORS2K: (Z2,)},
        minus_one_is_square="no"),
    # -1 is not a sum of squares; square classes stay symbolic but the
    # 2-torsion of the units is still {+1, -1}
    "formally_real": FieldProfile(
        "formally_real",
        {TORS2K: (Z2,)},
        minus_one_is_square="no"),
    "general": FieldProfile("general", {}, minus_one_is_square="unknown"),
}

PROFILE_ALIASES = {
    "qclosed": "quadratically_closed",
    "euclidean": "euclidean",
    "freal": "formally_real",
    "general": "general",
}


def get_profile(name) -> FieldProfile:
    """The profile of a name or alias; a ``FieldProfile`` is returned unchanged."""
    if isinstance(name, FieldProfile):
        return name
    key = PROFILE_ALIASES.get(name, name)
    if key not in PROFILES:
        raise ValueError(f"unknown field profile {name!r}")
    return PROFILES[key]


def normalize(g: FormalGroup, profile: FieldProfile) -> FormalGroup:
    """Apply the profile rewrites, one substitution per atom; ``g`` itself
    when the profile rewrites none of its atoms.

    >>> print(normalize(FormalGroup.of(KSQ, TORS2K), PROFILES["euclidean"]))
    Z/2 (+) k*2
    """
    rewrites = profile.rewrites
    if not any(a in rewrites for a in g.atoms):
        return g
    atoms: List[Atom] = []
    for a in g.atoms:
        rule = rewrites.get(a)
        if rule is None:
            atoms.append(a)
        else:
            atoms.extend(rule)
    return FormalGroup(tuple(atoms))


def tensor_Z2(g: FormalGroup, profile: FieldProfile) -> FormalGroup:
    """G (x) Z/2, atom by atom, then normalized.

    >>> print(tensor_Z2(FormalGroup.of(ZA), PROFILES["general"]))
    Z/2
    """
    atoms: List[Atom] = []
    for a in normalize(g, profile).atoms:
        atoms.extend(_MOD2[a][0])
    return normalize(FormalGroup(tuple(atoms)), profile)


def two_torsion(g: FormalGroup, profile: FieldProfile) -> FormalGroup:
    """The subgroup of elements killed by 2, atom by atom, then normalized.

    >>> print(two_torsion(FormalGroup.of(KSTAR), PROFILES["euclidean"]))
    Z/2
    """
    atoms: List[Atom] = []
    for a in normalize(g, profile).atoms:
        sub = _MOD2[a][1]
        if sub is None:  # k*2: {1, -1} meet k*2
            if profile.minus_one_is_square == "unknown":
                raise FormalRuleError(
                    f"2-torsion of k*2 needs to know whether -1 is a square ({profile.name})")
            sub = (Z2,) if profile.minus_one_is_square == "yes" else ()
        atoms.extend(sub)
    return normalize(FormalGroup(tuple(atoms)), profile)


def universal_coeff(h_a: FormalGroup, h_a_plus_1: FormalGroup,
                    profile: FieldProfile) -> FormalGroup:
    """Mod-2 value from the split universal-coefficient sequence.

    >>> print(universal_coeff(FormalGroup.of(Z2), FormalGroup.of(KMODSQ), PROFILES["general"]))
    Z/2 (+) k*/k*2
    """
    return tensor_Z2(h_a, profile).direct_sum(two_torsion(h_a_plus_1, profile))


# ---------------------------------------------------------------------------
# Motivic oracle and the diagonal decomposition
# ---------------------------------------------------------------------------

# the nonzero groups in weights 0 and 1 by (degree, weight, coefficient):
# Z, the units, and their mod-2 shadows (mu_2 = Z/2 in characteristic 0)
_LOW_WEIGHTS = {(0, 0, 0): ZA, (0, 0, 2): Z2, (1, 1, 0): KSTAR,
                (0, 1, 2): Z2, (1, 1, 2): KMODSQ}


def motivic_cohomology(a: int, w: int, coeff: int = 0) -> FormalGroup:
    """Motivic cohomology of the base field, over Z (0) or Z/2 (2).

    Exact in weights 0 and 1 (Z in degree 0 and the units in degree 1).
    Groups above the weight line, and mod-2 groups in negative degrees,
    vanish; any other group past weight 1 raises ``FormalRuleError``.
    """
    check_modulus(coeff)
    if w in (0, 1):
        atom = _LOW_WEIGHTS.get((a, w, coeff))
        return ZERO_FG if atom is None else FormalGroup.of(atom)
    if w < 0 or a > w or coeff == 2 and a < 0:
        return ZERO_FG
    raise FormalRuleError(f"motivic cohomology in degree {a} and weight {w} "
                          "is outside the atom vocabulary")


def nie_decompose(a: int, q: int, b: int) -> FormalGroup:
    """Decomposition of the integral (a + 2q*sigma, b + q*sigma) group along the diagonal.

    The group splits as q mod-2 motivic pieces plus one integral motivic
    piece.  Valid for b, q >= 0 over characteristic-zero fields.

    >>> print(nie_decompose(0, 1, 0))
    Z/2
    >>> print(nie_decompose(-1, 1, 0))
    k*
    """
    if q < 0 or b < 0:
        raise ValueError("the diagonal decomposition needs b, q >= 0")
    parts = [motivic_cohomology(a + 2 * j, j + b, 2) for j in range(q)]
    return ZERO_FG.direct_sum(*parts, motivic_cohomology(a + 2 * q, b + q, 0))


# ---------------------------------------------------------------------------
# Named axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomInfo:
    """A cited deduction step that the solver may apply by name."""

    id: str
    statement: str
    profiles: Tuple[str, ...] = ()  # empty: valid for every profile

    def admits(self, profile: FieldProfile) -> bool:
        return not self.profiles or profile.name in self.profiles


AXIOMS: Dict[str, AxiomInfo] = {a.id: a for a in [
    AxiomInfo("A-comp",
              "the composite through the free-orbit column (restrict, then"
              " connect) is multiplication by 2 on every group of the table"),
    AxiomInfo("A-alpha",
              "in the positive-cone induction the connecting map from the"
              " units column into a 2-torsion entry is the zero map",
              ("quadratically_closed", "euclidean")),
    AxiomInfo("A-alpha1",
              "in the weight-1 negative-cone induction the restriction map"
              " from a square-class entry to the units column is the zero map",
              ("quadratically_closed", "formally_real", "euclidean")),
    AxiomInfo("A-tau",
              "in the weight-sigma negative-cone induction the restriction"
              " map from a square-class entry to the units column is the"
              " zero map",
              ("quadratically_closed", "formally_real", "euclidean")),
    AxiomInfo("A-delta-sq",
              "the squaring sequence 1 -> {+1,-1} -> k* -> k*2 -> 1 resolves"
              " kernel, image and cokernel of multiplication by 2 on units"),
    AxiomInfo("A-EC2",
              "Borel-column transport: the weight-0 and weight-sigma rows"
              " agree with their Borel counterparts, and weight 1 does off"
              " two middle degrees; with the free-orbit periodicities this"
              " forces the seeded column vanishings"),
    AxiomInfo("A-diag",
              "the restriction of the rank-one free part of the weight-sigma"
              " base column to the units column is the identity map"),
]}

SEEDS: Dict[str, str] = {
    "P-motivic": "weight-1 column at shift 0: the units in degree 1, zero elsewhere",
    "P-prop": "weight-1 column at shift sigma: Z/2 in degree 0, square classes in degree 1",
    "P-sigma": "weight-sigma columns at shifts 0 and sigma: squares of units in"
               " degree 1, and Z/2 in degree 0 one shift up",
    "P-2q": "weight-sigma column at shift 2*sigma from the diagonal decomposition",
    "LES": "exactness in the cofiber-sequence window",
    "UCT": "split universal-coefficient sequence",
}


# ---------------------------------------------------------------------------
# Exact-sequence windows
# ---------------------------------------------------------------------------

FULL = "full"  # sentinel: the whole group at that node
_MAX_PASSES = 50  # solve_window reports a window still changing after this many


@dataclass
class WindowNode:
    label: str
    group: Optional[FormalGroup] = None


@dataclass
class WindowArrow:
    """An arrow with optional tags.

    Tags: ``zero``, ``mult2:Kstar``, ``incl-ksq``, and ``axiom:<id>``
    provenance markers.
    """

    tags: Tuple[str, ...] = ()
    kernel: object = None    # None | FULL | FormalGroup
    image: object = None     # None | FULL | FormalGroup
    cokernel: object = None  # None | FormalGroup


@dataclass
class LesWindow:
    """A finite exact-sequence fragment: nodes joined by consecutive arrows."""

    nodes: List[WindowNode]
    arrows: List[WindowArrow]

    def __post_init__(self):
        if len(self.arrows) != len(self.nodes) - 1:
            raise ValueError("a window needs exactly one arrow between consecutive nodes")

    @classmethod
    def build(cls, spec: List) -> "LesWindow":
        """Build from [node, arrow-tags, node, arrow-tags, ..., node].

        Nodes are (label, group-or-None); arrow tags are tuples of strings.
        """
        nodes = [WindowNode(label, grp) for label, grp in spec[0::2]]
        arrows = [WindowArrow(tuple(tags)) for tags in spec[1::2]]
        return cls(nodes, arrows)


@dataclass
class WindowSolution:
    values: Dict[str, FormalGroup]
    unresolved: List[str]
    contradictions: List[str]
    arrows: List[WindowArrow]

    @property
    def ok(self) -> bool:
        return not self.contradictions


# multiplication by 2 on the units: its kernel, image and cokernel, and the
# group at both of its ends
_MULT2_KSTAR = (FormalGroup.of(TORS2K), FormalGroup.of(KSQ), FormalGroup.of(KMODSQ),
                FormalGroup.of(KSTAR))


def solve_window(window: LesWindow, profile: FieldProfile) -> WindowSolution:
    """Propagate exactness and tags to a fixed point; never guess.

    Groups are normalized once, when they enter: node groups as the window is
    copied in, a tag's slot values as it is applied.  Later steps trust them.
    A window still changing after ``_MAX_PASSES`` passes is reported as a
    contradiction that names it.

    >>> w = LesWindow.build([("0", ZERO_FG), (), ("X", None), (), ("0", ZERO_FG)])
    >>> print(solve_window(w, PROFILES["general"]).values["X"])
    0
    """
    nodes = [WindowNode(n.label, None if n.group is None else normalize(n.group, profile))
             for n in window.nodes]
    arrows = [WindowArrow(a.tags, a.kernel, a.image, a.cokernel) for a in window.arrows]
    contradictions: List[str] = []

    def set_node(k: int, value: FormalGroup):
        if nodes[k].group is None:
            nodes[k].group = value
        elif nodes[k].group != value:
            contradictions.append(
                f"node {nodes[k].label} forced to {value} but holds {nodes[k].group}")

    def merge_slot(k: int, current, incoming):
        """Merge a kernel/image slot at node k; returns the merged value."""
        if incoming is None:
            return current
        if current is None or current == incoming:
            return incoming
        if FULL in (current, incoming):
            # FULL meets a value: the node must BE that value
            other = incoming if current == FULL else current
            set_node(k, other)
            return other
        contradictions.append(
            f"exactness at {nodes[k].label}: image {current} differs from kernel {incoming}")
        return current

    # apply the declared tags once
    for idx, ar in enumerate(arrows):
        for tag in ar.tags:
            if tag == "zero":
                ar.kernel, ar.image = FULL, ZERO_FG
            elif tag == "mult2:Kstar":
                ker, img, cok, on = (normalize(g, profile) for g in _MULT2_KSTAR)
                ar.kernel, ar.image, ar.cokernel = ker, img, cok
                for k in (idx, idx + 1):
                    g = nodes[k].group
                    if g is not None and g != on:
                        contradictions.append(
                            f"{tag} arrow at {nodes[k].label} expects {on}, found {g}")
            elif tag == "incl-ksq":
                ar.kernel, ar.image, ar.cokernel = (
                    ZERO_FG, normalize(FormalGroup.of(KSQ), profile),
                    normalize(FormalGroup.of(KMODSQ), profile))
            elif not tag.startswith("axiom:"):  # axiom tags are provenance, read by _advance
                raise ValueError(f"unknown arrow tag {tag!r}")

    def state():
        return ([n.group for n in nodes], [(a.kernel, a.image, a.cokernel) for a in arrows])

    # The rules below may rewrite a slot to another name for the same
    # subgroup (FULL at a zero node, say, and back to ZERO_FG), so a pass
    # counts as a change only when the state it leaves differs from the one
    # it found.  Passes are deterministic, so that state is the fixed point.
    for _ in range(_MAX_PASSES):
        before = state()
        # zero nodes kill their arrows: a map into 0 has full kernel and zero
        # image, a map out of 0 likewise
        for k, node in enumerate(nodes):
            if node.group is not None and node.group.is_zero():
                for idx in (k - 1, k):
                    if 0 <= idx < len(arrows):
                        arrows[idx].kernel, arrows[idx].image = FULL, ZERO_FG
        # exactness links at interior nodes
        for k in range(1, len(nodes) - 1):
            f, g = arrows[k - 1], arrows[k]
            f.image = g.kernel = merge_slot(k, f.image, g.kernel)
        # value productions
        for k in range(len(nodes)):
            if nodes[k].group is not None:
                continue
            out = arrows[k] if k < len(arrows) else None
            inc = arrows[k - 1] if k > 0 else None
            # injective with known image
            if out is not None and out.kernel == ZERO_FG and isinstance(out.image, FormalGroup):
                set_node(k, out.image)
                continue
            # iso transport, in both directions
            if out is not None and out.kernel == ZERO_FG and out.image == FULL \
                    and nodes[k + 1].group is not None:
                set_node(k, nodes[k + 1].group)
                continue
            if inc is not None and inc.kernel == ZERO_FG and inc.image == FULL \
                    and nodes[k - 1].group is not None:
                set_node(k, nodes[k - 1].group)
                continue
            # surjection whose kernel is the image of a tagged arrow
            if inc is not None and inc.image == FULL and k >= 2:
                prev = arrows[k - 2]
                if prev.cokernel is not None:
                    set_node(k, prev.cokernel)
        if state() == before:
            break
    else:
        contradictions.append(
            f"window {' -> '.join(n.label for n in nodes)}: no fixed point "
            f"after {_MAX_PASSES} passes")

    values = {n.label: n.group for n in nodes if n.group is not None}
    unresolved = [n.label for n in nodes if n.group is None]
    return WindowSolution(values, unresolved, contradictions, arrows)


# ---------------------------------------------------------------------------
# Derivation drivers for the weight-1 and weight-sigma tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableEntry:
    group: Optional[FormalGroup]
    trail: Tuple[str, ...] = ()
    note: str = ""


@dataclass
class DerivedTable:
    """One derived cone table: entries indexed by (a, p) with axiom trails.

    A zero entry is not stored; ``entry`` returns one shared, frozen zero
    entry per column trail.
    """

    weight: str
    columns: Dict[int, Dict[int, TableEntry]] = field(default_factory=dict)
    column_trails: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    _zeros: Dict[Tuple[str, ...], TableEntry] = field(default_factory=dict, init=False,
                                                      repr=False, compare=False)

    def entry(self, a: int, p: int) -> TableEntry:
        col = self.columns.get(p)
        if col is None:
            return TableEntry(None, (), f"column {p} not derived")
        e = col.get(a)
        if e is not None:
            return e
        trail = self.column_trails.get(p, ())
        zero = self._zeros.get(trail)
        if zero is None:
            zero = self._zeros[trail] = TableEntry(ZERO_FG, trail)
        return zero

    def group(self, a: int, p: int) -> Optional[FormalGroup]:
        return self.entry(a, p).group

    def set(self, a: int, p: int, group: FormalGroup, trail: Tuple[str, ...]):
        self.columns.setdefault(p, {})
        if not group.is_zero():
            self.columns[p][a] = TableEntry(group, trail)

    def derived_shifts(self) -> List[int]:
        return sorted(self.columns)


# the free-orbit column in total weight 1: the units at total degree 1
_UNITS = FormalGroup.of(KSTAR)


def _is_two_torsion(g: FormalGroup) -> bool:
    """Nonzero and killed by 2: each atom is its own 2-torsion subgroup."""
    return bool(g.atoms) and all(_MOD2[a][1] == (a,) for a in g.atoms)


def _junction_tags(junction: FormalGroup, recorded: Optional[str],
                   zero_axiom: str, profile: FieldProfile,
                   notes: List[str], where: str) -> Optional[Tuple[str, ...]]:
    """Choose the tag set for the arrow meeting the units column (a normal table entry)."""
    if junction.is_zero():
        return ()
    if recorded == "iso":
        if junction == _UNITS:
            return ("axiom:A-comp", "axiom:A-delta-sq", "mult2:Kstar")
        notes.append(f"{where}: recorded isomorphism but junction {junction} is not the units")
        return None
    if _is_two_torsion(junction):
        ax = AXIOMS[zero_axiom]
        if ax.admits(profile):
            return (f"axiom:{zero_axiom}", "zero")
        notes.append(f"{where}: axiom {zero_axiom} needs one of {ax.profiles}, "
                     f"profile is {profile.name}")
        return None
    notes.append(f"{where}: no cited rule for junction value {junction}")
    return None


def _advance(table: DerivedTable, profile: FieldProfile, p: int, step: int,
             zero_axiom: str, recorded: Optional[str]) -> Tuple[bool, Optional[str]]:
    """One induction step of either cone: derive column ``p + step`` from column ``p``.

    The window is 0 -> B(lo,.) -> B(lo,.) -> k* -> B(hi,.) -> B(hi,.) -> 0,
    the known column first in the positive cone (step 1) and second in the
    negative one (step -1).  The junction tags sit on the arrow between k*
    and the known column.  Returns (ok, recorded) where ``recorded`` is the
    status of the other arrow at k*, which feeds the next step's A-comp check.
    """
    new_p = p + step
    positive = step > 0
    lo = -p if positive else 1 - p
    hi = lo + 1
    junction = table.group(hi if positive else lo, p)
    assert junction is not None
    where = f"weight-{table.weight} step {p} -> {new_p}"
    tags = _junction_tags(junction, recorded, zero_axiom, profile, table.notes, where)
    if tags is None:
        table.notes.append(f"{where}: column {new_p} left unresolved")
        return False, None

    def pair(a: int) -> list:
        known, new = (f"B({a},{p})", table.group(a, p)), (f"B({a},{new_p})", None)
        return [known, (), new] if positive else [new, (), known]

    into_units, out_of_units = ((), tags) if positive else (tags, ())
    sol = solve_window(LesWindow.build(
        [("M0", ZERO_FG), (), *pair(lo), into_units, ("M1", _UNITS),
         out_of_units, *pair(hi), (), ("M2", ZERO_FG)]), profile)
    if not sol.ok:
        table.notes.append(f"{where}: contradiction: {'; '.join(sol.contradictions)}")
        return False, None
    if sol.unresolved:
        table.notes.append(f"{where}: unresolved nodes {sol.unresolved}")
        return False, None

    window_axioms = tuple(t.split(":", 1)[1] for t in tags if t.startswith("axiom:"))
    feeders = table.entry(lo, p).trail + table.entry(hi, p).trail
    for a in (lo, hi):
        table.set(a, new_p, sol.values[f"B({a},{new_p})"],
                  tuple(dict.fromkeys(feeders + window_axioms + ("LES",))))
    # the rest of the column transports along isomorphisms (zero flanks)
    for a, src in sorted(table.columns[p].items()):
        if a not in (lo, hi):
            table.set(a, new_p, src.group, tuple(dict.fromkeys(src.trail + ("LES",))))
    table.column_trails[new_p] = tuple(dict.fromkeys(table.column_trails.get(p, ()) + ("LES",)))
    other = sol.arrows[2 if positive else 3]
    return True, "iso" if other.kernel == ZERO_FG and other.image == FULL else None


def _apply_uct(table: DerivedTable, profile: FieldProfile) -> DerivedTable:
    out = DerivedTable(table.weight, notes=list(table.notes))
    # the columns transport along isomorphisms, so the same pairs of groups recur
    values: Dict[Tuple[FormalGroup, FormalGroup], FormalGroup] = {}
    for p in table.derived_shifts():
        out.column_trails[p] = tuple(dict.fromkeys(table.column_trails.get(p, ()) + ("UCT",)))
        out.columns[p] = {}
        col = table.columns[p]
        degrees = set(col) | {a - 1 for a in col}
        for a in sorted(degrees):
            lo = table.entry(a, p)
            hi = table.entry(a + 1, p)
            val = values.get((lo.group, hi.group))
            if val is None:
                try:
                    val = values[lo.group, hi.group] = universal_coeff(lo.group, hi.group,
                                                                       profile)
                except FormalRuleError as exc:
                    out.columns[p][a] = TableEntry(None, (), str(exc))
                    out.notes.append(f"mod-2 entry (a={a}, p={p}): {exc}")
                    continue
            trail = tuple(dict.fromkeys(lo.trail + hi.trail + ("UCT",)))
            if not val.is_zero():
                out.columns[p][a] = TableEntry(val, trail)
    return out


def _derive(weight: str, profile: FieldProfile, n_max: int, coeff: int,
            cones: Dict[str, tuple]) -> Dict[str, DerivedTable]:
    """Seed each cone, induct from its farthest column until ``n_max`` or the
    first stop, keep the columns with |p| <= ``n_max``, and reduce mod 2
    when ``coeff`` is 2.

    ``cones`` maps each cone to its seed columns (shift, {degree: group},
    trail), the axiom that zeroes a 2-torsion junction, the status recorded
    before the first step, and the notes its table starts with.
    """
    check_modulus(coeff)
    if n_max < 0:
        raise ValueError(f"the depth n_max must be at least 0, not {n_max}")
    tables = {}
    for cone, (seeds, zero_axiom, recorded, notes) in cones.items():
        table = DerivedTable(weight, notes=notes)
        for p, entries, trail in seeds:
            table.columns[p] = {}
            table.column_trails[p] = trail
            for a, g in entries.items():
                table.set(a, p, normalize(g, profile), trail)
        step = 1 if cone == "positive" else -1
        p = max(table.columns) if step > 0 else min(table.columns)
        ok = p != 0  # the negative induction needs a seeded column -1
        while ok and abs(p) < n_max:
            ok, recorded = _advance(table, profile, p, step, zero_axiom, recorded)
            p += step
        for p in [p for p in table.columns if abs(p) > n_max]:  # seeds past the depth
            del table.columns[p]
            del table.column_trails[p]
        tables[cone] = _apply_uct(table, profile) if coeff == 2 else table
    return tables


def derive_weight1(profile: FieldProfile, n_max: int, coeff: int = 0) -> Dict[str, DerivedTable]:
    """Replay the weight-1 inductions; returns positive and negative cone tables.

    The positive cone needs a quadratically closed or euclidean profile; the
    negative cone also admits formally real fields.  Entries carry axiom
    trails; obstructions are reported in the table notes instead of raised.
    """
    profile = get_profile(profile)
    units = (0, {1: _UNITS}, ("P-motivic",))
    return _derive("1", profile, n_max, coeff, {
        "positive": ([units, (1, {0: FormalGroup.of(Z2), 1: FormalGroup.of(KMODSQ)},
                              ("P-prop",))], "A-alpha", None, []),
        "negative": ([units, (-1, {}, ("A-EC2", "P-sigma", "LES"))], "A-alpha1", None, []),
    })


def derive_weight_sigma(profile: FieldProfile, n_max: int, coeff: int = 0) -> Dict[str, DerivedTable]:
    """Replay the weight-sigma inductions; see ``derive_weight1``.

    The base columns are the diagonal decomposition at shift 2*sigma and the
    squares-of-units identification at shift 0; the negative cone starts from
    a window whose restriction arrow is the inclusion of the squares.
    """
    profile = get_profile(profile)
    squares = (0, {1: FormalGroup.of(KSQ)}, ("P-sigma", "A-delta-sq"))
    negative, notes = [squares], []
    if n_max >= 1:
        base = LesWindow.build([
            ("M0", ZERO_FG), (),
            ("B(1,-1)", ZERO_FG), (),
            ("B(1,0)", FormalGroup.of(KSQ)),
            ("axiom:A-diag", "axiom:A-delta-sq", "incl-ksq"),
            ("M1", _UNITS), (),
            ("B(2,-1)", None), (),
            ("B(2,0)", ZERO_FG), (),
            ("M2", ZERO_FG)])
        sol = solve_window(base, profile)
        if not sol.ok or "B(2,-1)" not in sol.values:
            notes.append("base window for the first negative column failed: "
                         + "; ".join(sol.contradictions))
        else:
            negative.append((-1, {2: sol.values["B(2,-1)"]},
                             ("P-sigma", "A-EC2", "A-diag", "A-delta-sq", "LES")))
    positive = [squares, (1, {0: FormalGroup.of(Z2)}, ("P-sigma",)),
                (2, {a: nie_decompose(a, 1, 0) for a in (-1, 0)}, ("P-2q",))]
    # the units entry of the base column restricts by the identity
    return _derive("sigma", profile, n_max, coeff, {
        "positive": (positive, "A-alpha", "iso", []),
        "negative": (negative, "A-tau", None, notes),
    })
