"""Closed-form tables, grids and exports, and the comparison suites (``checks``).

The case tables live as data files under ``fixtures/`` (override the
directory with the BREDON_FIXTURE_DIR environment variable).  Each row
carries a predicate over the bidegree, a group value, and a human-readable
source note; the loader refuses fixtures with missing source notes or with
a key that it does not read, and a mechanical checker verifies that the
rows of a table are pairwise disjoint over the declared range.  Coverage is
not checked: a cell that no row matches falls through to the catch-all row.
Each predicate is checked whole against a small grammar when it is loaded
(see ``Predicate``).

A table compiles all its predicates into one function of (a, p), and
resolves each cell once: the row that holds at (a, p), and that row's value
under each field profile, are memoised on the table the first time they are
asked for.  A closed form reads the fixture directory on every call, and
takes a table that is already loaded from that directory without loading it
again.

Rendering grammar for exact groups: ``0``, ``Z``, ``Z^r``, ``Z/d``, joined
by `` (+) ``; formal atoms render as ``k*``, ``k*2``, ``k*/k*2``,
``k*2/k*4``, ``_2k*``.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..abgrp import COEFF_TEXT, FgAbelianGroup, check_modulus
from ..formal import (
    ATOM_TEXT,
    Atom,
    ConditionalGroup,
    FieldProfile,
    FormalGroup,
    PROFILES,
    derive_weight1,
    derive_weight_sigma,
    get_profile,
    normalize,
)

FIXTURE_ENV = "BREDON_FIXTURE_DIR"
_DEFAULT_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


class FixtureError(ValueError):
    """A malformed fixture: bad predicate, missing source note, bad group."""


def _typed(obj: dict, key: str, kind: type, default=None):
    """obj[key], or ``default`` when one is given and the key is absent, of type ``kind``."""
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not kind:
        raise FixtureError(f"the key {key!r} must hold {kind.__name__}, not {type(value).__name__}")
    return value


def _known(obj: dict, keys: tuple, where: str) -> dict:
    """obj, refused when it holds a key that the loader does not read."""
    for key in obj:
        if key not in keys:
            raise FixtureError(f"{where} holds the key {key!r}, which nothing reads; "
                               f"the keys read there are {', '.join(keys)}")
    return obj


_SHIFT_TEXT = re.compile(r"0|-?[1-9][0-9]*")  # str(p) of an integer p


def _profile_lists(obj: dict, key: str, required: tuple = ()) -> dict:
    """obj[key], or {} when it is absent: an object that maps the keys in
    ``required``, or shifts (the texts of integers) when none are, to lists of
    names from ``PROFILES``."""
    value = _typed(obj, key, dict, {})
    keys_hold = (set(required) == set(value) if required
                 else all(type(k) is str and _SHIFT_TEXT.fullmatch(k) for k in value))
    if not (keys_hold and all(
            type(names) is list and all(type(n) is str and n in PROFILES for n in names)
            for names in value.values())):
        raise FixtureError(f"the key {key!r} must map {', '.join(required) or 'shifts'} "
                           "to lists of the profiles " + ", ".join(PROFILES))
    return value


class TheoremRangeError(ValueError):
    """The requested bidegree/profile lies outside every stated case table."""


# ---------------------------------------------------------------------------
# Predicates and group parsing
# ---------------------------------------------------------------------------

# the whole predicate grammar: the names a and p, int and bool constants,
# + - * % //, unary -, not/and/or and the six comparisons
_GRAMMAR = (ast.Expression, ast.Name, ast.Load, ast.Constant,
            ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.FloorDiv,
            ast.UnaryOp, ast.USub, ast.Not, ast.BoolOp, ast.And, ast.Or,
            ast.Compare, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
_NAMES = ("a", "p")


def _compiled(texts, where: str):
    """One function of (a, p) that returns the values of the predicate texts,
    in order, as a tuple; Python evaluates it with no builtins."""
    # each text ends its own line, so a trailing comment cannot swallow the rest
    source = "lambda a, p: (" + "".join(f"({text}\n)," for text in texts) + ")"
    return eval(compile(source, where, "eval"), {"__builtins__": {}})


class Predicate:
    """A whitelisted arithmetic/boolean expression over the integers a and p.

    The whole tree is checked against the grammar once, at construction.
    A ``FixtureTable`` evaluates its predicates together in one function;
    a predicate called on its own compiles its text the same way, alone, on
    the first call.
    """

    def __init__(self, text: str):
        self.text = text
        try:
            for node in ast.walk(ast.parse(text, mode="eval")):
                if (not isinstance(node, _GRAMMAR)
                        or isinstance(node, ast.Name) and node.id not in _NAMES
                        or isinstance(node, ast.Constant) and not isinstance(node.value, int)):
                    what = ast.unparse(node) or type(node).__name__
                    raise FixtureError(
                        f"predicate {text!r}: {what} is outside the predicate grammar")
        except (SyntaxError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise FixtureError(f"predicate {text!r} is outside the predicate grammar: "
                               f"{getattr(exc, 'msg', exc)}") from None

    @functools.cached_property
    def _truth(self):
        return _compiled((self.text,), "<predicate>")

    def __call__(self, a: int, p: int) -> bool:
        try:
            return bool(self._truth(a, p)[0])
        except ArithmeticError as exc:
            raise FixtureError(f"predicate {self.text!r} fails at (a={a}, p={p}): {exc}") from None

    def __repr__(self):
        return f"Predicate({self.text!r})"


# a summand of an exact group: Z, Z^r with r >= 1, or Z/d with d >= 2
_SUMMAND = re.compile(r"Z(?:\^([1-9][0-9]*)|/([2-9]|[1-9][0-9]+))?")


def parse_exact_group(text: str) -> FgAbelianGroup:
    """Parse the fixed grammar for exact groups.

    >>> parse_exact_group("Z^2 (+) Z/2").to_json()
    {'rank': 2, 'torsion': [2]}
    """
    text = text.strip()
    if text == "0":
        return FgAbelianGroup.zero()
    free, orders = 0, []
    for part in text.split("(+)"):
        part = part.strip()
        match = _SUMMAND.fullmatch(part)
        if match is None:
            raise FixtureError(f"cannot parse exact group {text!r}: {part!r} is not "
                               "Z, Z^r with r >= 1 or Z/d with d >= 2")
        rank, order = match.groups()
        if order:
            orders.append(int(order))
        else:
            free += int(rank or 1)  # counted, not listed: Z^r costs nothing for any r
    return FgAbelianGroup(free, FgAbelianGroup.from_cyclic_orders(orders).invariant_factors)


def parse_formal_group(text: str) -> FormalGroup:
    """Parse the fixed grammar for formal groups.

    >>> print(parse_formal_group("Z/2 (+) k*/k*2"))
    Z/2 (+) k*/k*2
    """
    text = text.strip()
    if text == "0":
        return FormalGroup.zero()
    kinds = {shown: kind for kind, shown in ATOM_TEXT.items()}
    atoms = []
    for part in text.split("(+)"):
        part = part.strip()
        if part not in kinds:
            raise FixtureError(f"cannot parse formal atom {part!r}")
        atoms.append(Atom(kinds[part]))
    return FormalGroup(tuple(atoms))


# ---------------------------------------------------------------------------
# Fixture tables
# ---------------------------------------------------------------------------

@dataclass
class FixtureRow:
    predicate: Optional[Predicate]  # None for the catch-all row
    value: Union[FgAbelianGroup, FormalGroup, ConditionalGroup]
    source: str


_TABLE_KEYS = ("table", "kind", "range", "cone_profiles", "shift_profiles", "rows")
_BRANCHES = ("if_minus_one_square", "otherwise")  # of a conditional row's value


class FixtureTable:
    """An ordered case table whose rows are checked for disjointness.

    Coverage is checked for disjointness only: a cell that no row matches
    falls through to the final catch-all row, which every table must have.

    All guarded predicates are compiled into one function that returns their
    truth values, so a cell costs one call.  The row that holds at each
    (a, p) and the value of each row under each profile are memoised on the
    table; both derive from its immutable rows, so the memos are idempotent.
    An overlap is never stored and raises on every call.
    """

    def __init__(self, data: dict):
        _known(data, _TABLE_KEYS, "the document")
        self.table_id = _typed(data, "table", str)
        self.kind = _typed(data, "kind", str)
        if self.kind not in ("exact", "formal"):
            raise FixtureError(f"the key 'kind' must hold 'exact' or 'formal', not {self.kind!r}")
        self.range = _known(_typed(data, "range", dict, {}), _NAMES, "the key 'range'")
        for bounds in self.range.values():
            if type(bounds) is not list or len(bounds) != 2 or {type(b) for b in bounds} != {int}:
                raise FixtureError("the key 'range' must map each variable to [low, high] integers")
        self.cone_profiles = None if "cone_profiles" not in data else _profile_lists(
            data, "cone_profiles", ("positive", "negative", "zero"))
        self.shift_profiles = {int(shift): names for shift, names
                               in _profile_lists(data, "shift_profiles").items()}
        self.rows: List[FixtureRow] = []
        parse = parse_exact_group if self.kind == "exact" else parse_formal_group
        for i, row in enumerate(data["rows"]):
            source = _typed(row, "source", str, "").strip()
            if not source:
                raise FixtureError(f"{self.table_id}: fixture row lacks a source note")
            if "conditional" in row:
                cond = _known(_typed(row, "conditional", dict), _BRANCHES,
                              f"the conditional of row {i}")
                value = ConditionalGroup(*(parse_formal_group(_typed(cond, k, str))
                                           for k in _BRANCHES))
            else:
                value = parse(_typed(row, "group", str))
            otherwise = _typed(row, "otherwise", bool, False)
            _known(row, ("source", "otherwise", "conditional" if "conditional" in row else "group")
                   + (() if otherwise else ("when",)), f"row {i}")
            pred = None if otherwise else Predicate(_typed(row, "when", str))
            self.rows.append(FixtureRow(pred, value, source))
        if not self.rows or self.rows[-1].predicate is not None:
            raise FixtureError(f"{self.table_id}: final row must be the catch-all")
        self._guarded = [i for i, r in enumerate(self.rows) if r.predicate is not None]
        self._truths = _compiled((self.rows[i].predicate.text for i in self._guarded),
                                 f"<{self.table_id} predicates>")
        self._row_at: Dict[Tuple[int, int], int] = {}
        self._resolved: Dict[Tuple[int, Optional[FieldProfile]], tuple] = {}

    def profiles_for(self, p: int) -> Optional[List[str]]:
        if self.cone_profiles is None:
            return None
        shift = self.shift_profiles.get(p)
        if shift is not None:
            return shift
        cone = "positive" if p > 0 else "negative" if p < 0 else "zero"
        return self.cone_profiles[cone]

    def _matching(self, a: int, p: int) -> List[int]:
        """The indices of the rows, catch-all excluded, whose predicate holds at (a, p)."""
        try:
            truths = self._truths(a, p)
        except ArithmeticError:
            # row by row, so that the error names the failing predicate and the point
            truths = [self.rows[i].predicate(a=a, p=p) for i in self._guarded]
        return [i for i, holds in zip(self._guarded, truths) if holds]

    def _row_index(self, a: int, p: int) -> int:
        """The index of the row that holds at (a, p), a cell not yet in the
        memo; stored unless rows overlap there."""
        matched = self._matching(a, p)
        if len(matched) > 1:
            raise FixtureError(
                f"{self.table_id}: rows overlap at (a={a}, p={p}): "
                + "; ".join(self.rows[i].source for i in matched))
        index = self._row_at[(a, p)] = matched[0] if matched else len(self.rows) - 1
        return index

    def lookup(self, a: int, p: int, profile: Optional[FieldProfile] = None):
        allowed = self.profiles_for(p)
        if allowed is not None:
            if profile is None:
                raise TheoremRangeError(f"{self.table_id} needs a field profile")
            if profile.name not in allowed:
                raise TheoremRangeError(
                    f"{self.table_id} at shift {p} is stated only for {allowed}, "
                    f"not {profile.name}")
        index = self._row_at.get((a, p))
        if index is None:
            index = self._row_index(a, p)
        cell = self._resolved.get((index, profile))
        if cell is None:
            row = self.rows[index]
            value = row.value
            if isinstance(value, ConditionalGroup) and profile is not None:
                value = value.resolve(profile)
            if isinstance(value, FormalGroup) and profile is not None:
                value = normalize(value, profile)
            cell = self._resolved[(index, profile)] = (value, row.source)
        return cell

    def coverage_findings(self) -> List[str]:
        """Mechanically check disjointness over the declared range."""
        findings = []
        (a_lo, a_hi) = self.range.get("a", [-12, 12])
        (p_lo, p_hi) = self.range.get("p", [-8, 8])
        for p in range(p_lo, p_hi + 1):
            for a in range(a_lo, a_hi + 1):
                hits = self._matching(a, p)
                if len(hits) > 1:
                    findings.append(
                        f"{self.table_id}: overlap at (a={a}, p={p}): "
                        + " | ".join(self.rows[i].source for i in hits))
        return findings


# keyed by (directory, file name), so BREDON_FIXTURE_DIR takes effect mid-process
_CACHE: Dict[Tuple[str, str], FixtureTable] = {}
_CELL_CACHE: Dict[Tuple[str, str], list] = {}


def fixture_dir() -> str:
    return os.environ.get(FIXTURE_ENV, _DEFAULT_DIR)


def _read_fixture(key: Tuple[str, str], build, entries: str):
    """``build`` applied to the data of the fixture file ``key``, an object whose
    key ``entries`` holds a list of objects; each fault names the file."""
    path = os.path.join(*key)
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc.strerror} "
                           f"(the directory comes from {FIXTURE_ENV} when it is set)") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FixtureError(f"fixture {path} must hold an object, not {type(data).__name__}")
    try:
        listed = data[entries]
        if not isinstance(listed, list) or not all(isinstance(e, dict) for e in listed):
            raise FixtureError(f"the key {entries!r} must hold a list of objects")
        return build(data)
    except KeyError as exc:
        raise FixtureError(f"fixture {path} lacks the key {exc.args[0]!r}") from None
    except FixtureError as exc:
        raise FixtureError(f"fixture {path}: {exc}") from None


def load_table(name: str) -> FixtureTable:
    key = (fixture_dir(), name)
    table = _CACHE.get(key)
    if table is None:
        table = _CACHE[key] = _read_fixture(key, FixtureTable, "rows")
    return table


_CELL_KEYS = {"weight": str, "a": int, "p": int, "coeff": str, "group": str, "source": str}


def _cells(data: dict) -> list:
    """The cells, each refused here, not in a suite, when it lacks a key or a
    source note, holds a key of a wrong type, or names a weight, coefficient
    or group that the suite cannot read; every value keeps its text."""
    _known(data, ("table", "cells"), "the document")
    cells = []
    for i, cell in enumerate(data["cells"]):
        _known(cell, tuple(_CELL_KEYS), f"cell {i}")
        if not _typed(cell, "source", str, "").strip():
            raise FixtureError(f"{data['table']}: cell lacks a source note")
        cells.append({k: _typed(cell, k, kind) for k, kind in _CELL_KEYS.items()})
        for key, known in (("weight", DERIVED_WEIGHTS), ("coeff", COEFF_TEXT.values())):
            if cell[key] not in known:
                raise FixtureError(f"cell {i} holds the {key} {cell[key]!r}; use "
                                   + " or ".join(map(repr, known)))
        parse_formal_group(cell["group"])
    return cells


def load_cells(name: str) -> list:
    key = (fixture_dir(), name)
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = _read_fixture(key, _cells, "cells")
    return _CELL_CACHE[key]


# (table, coefficient) -> fixture file: the weight-0, weight-1 and sign-weight
# tables and the topological fixed-point table, over Z (0) and Z/2 (2)
_TABLE_FILES = {
    ("point", 0): "point_integral.json", ("point", 2): "point_mod2.json",
    ("0", 0): "weight0_integral.json", ("0", 2): "weight0_mod2.json",
    ("1", 0): "weight1_integral.json", ("1", 2): "weight1_mod2.json",
    ("sigma", 0): "weight_sigma_integral.json", ("sigma", 2): "weight_sigma_mod2.json",
}
ALL_TABLE_FILES = list(_TABLE_FILES.values())


def _table(table: str, coeff: int) -> FixtureTable:
    """The table of a closed form, from the fixture directory of this call;
    the coefficient rule is checked only for a key that names no table."""
    try:
        name = _TABLE_FILES[(table, coeff)]
    except (KeyError, TypeError):
        check_modulus(coeff)
        raise
    found = _CACHE.get((fixture_dir(), name))
    return found if found is not None else load_table(name)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def bredon_point_closed_form(a: int, p: int, coeff: int = 0) -> FgAbelianGroup:
    """The topological fixed-point table.

    >>> print(bredon_point_closed_form(-2, 4))
    Z/2
    >>> print(bredon_point_closed_form(3, -5))
    Z/2
    >>> print(bredon_point_closed_form(0, 0))
    Z
    """
    return _table("point", coeff).lookup(a, p)[0]


def weight0_closed_form(a: int, p: int, coeff: int = 0) -> FgAbelianGroup:
    """The weight-0 case table (computed cones and the mod-2 band).

    >>> print(weight0_closed_form(-3, 3))
    0
    >>> print(weight0_closed_form(5, -6))
    Z/2
    >>> print(weight0_closed_form(2, -2, coeff=2))
    Z/2
    """
    return _table("0", coeff).lookup(a, p)[0]


def weight1_closed_form(a: int, p: int, coeff: int = 0,
                        profile: Union[str, FieldProfile] = "general"):
    """The weight-1 case tables under the stated field hypotheses.

    Raises TheoremRangeError outside the stated hypotheses; never
    extrapolates.

    >>> print(weight1_closed_form(0, 1, profile="general"))
    Z/2
    """
    return _table("1", coeff).lookup(a, p, get_profile(profile))[0]


def weight_sigma_closed_form(a: int, p: int, coeff: int = 0,
                             profile: Union[str, FieldProfile] = "general"):
    """The sign-weight case tables under the stated field hypotheses.

    >>> print(weight_sigma_closed_form(1, 0, profile="general"))
    k*2
    """
    return _table("sigma", coeff).lookup(a, p, get_profile(profile))[0]


# each derived weight, with the derivation that replays its table and its closed form
DERIVED_WEIGHTS = {"1": (derive_weight1, weight1_closed_form),
                   "sigma": (derive_weight_sigma, weight_sigma_closed_form)}


# ---------------------------------------------------------------------------
# Grids, rendering, export
# ---------------------------------------------------------------------------

@dataclass
class GridSpec:
    weight: str = "0"          # "0" or a key of DERIVED_WEIGHTS
    coeff: int = 0             # a key of COEFF_TEXT
    p_range: int = 3
    a_min: Optional[int] = None
    a_max: Optional[int] = None
    profile: str = "general"
    # "computed" | "fixture" | "derived"; None picks computed for weight 0, fixture otherwise
    source: Optional[str] = None

    def __post_init__(self):
        if self.weight not in ("0", *DERIVED_WEIGHTS):
            raise ValueError(f"unknown weight {self.weight!r}; use '0', "
                             + " or ".join(map(repr, DERIVED_WEIGHTS)))
        if self.source not in (None, "computed", "fixture", "derived"):
            raise ValueError(f"unknown source {self.source!r}; "
                             "use 'computed', 'fixture' or 'derived'")
        if self.source is None:
            self.source = "computed" if self.weight == "0" else "fixture"
        # only weight 0 is computed from complexes, only the others are derived
        if self.source == "computed" and self.weight != "0":
            raise ValueError(f"weight {self.weight} has no computed source; "
                             "use source 'fixture' or 'derived'")
        if self.source == "derived" and self.weight == "0":
            raise ValueError("weight 0 has no derived source; use source 'computed' or 'fixture'")
        check_modulus(self.coeff)
        if self.p_range < 0:
            raise ValueError(f"the p-range must be at least 0, not {self.p_range}")
        lo, hi = self.a_bounds()
        if lo > hi:
            raise ValueError(f"the a-range {lo}..{hi} is empty")

    def a_bounds(self) -> Tuple[int, int]:
        lo = self.a_min if self.a_min is not None else -self.p_range
        hi = self.a_max if self.a_max is not None else self.p_range
        return lo, hi


def grid_cells(spec: GridSpec) -> List[dict]:
    """Evaluate a grid; each cell follows the export schema."""
    from .. import sigmacx

    a_lo, a_hi = spec.a_bounds()
    prof = get_profile(spec.profile)
    cells = []
    derived = None
    if spec.source == "derived":
        derived = DERIVED_WEIGHTS[spec.weight][0](prof, spec.p_range + 1, coeff=spec.coeff)
    for p in range(-spec.p_range, spec.p_range + 1):
        for a in range(a_lo, a_hi + 1):
            citation = ""
            if spec.source == "computed":
                group = sigmacx.weight0(a, p, spec.coeff)
            elif spec.source == "derived":
                cone = derived["positive"] if p >= 0 else derived["negative"]
                group = cone.entry(a, p).group
                citation = ", ".join(cone.entry(a, p).trail)
            else:
                try:
                    group, citation = _table(spec.weight, spec.coeff).lookup(a, p, prof)
                except TheoremRangeError as exc:
                    group, citation = None, str(exc)
            cells.append({
                "a": a, "p": p, "weight": spec.weight, "coeff": COEFF_TEXT[spec.coeff],
                "group": group.to_json() if group is not None else None,
                "rendered": group.render() if group is not None else "?",
                "source": spec.source,
                "citation": citation,
            })
    return cells


def render_grid(spec: GridSpec, fmt: str = "text") -> str:
    """Render a grid as text, json, or csv (deterministic, bit-stable)."""
    cells = grid_cells(spec)
    if fmt == "json":
        return json.dumps(cells, indent=2, sort_keys=True) + "\n"
    a_lo, a_hi = spec.a_bounds()
    by_key = {(c["p"], c["a"]): c["rendered"] for c in cells}
    rows = []
    header = ["p\\a"] + [str(a) for a in range(a_lo, a_hi + 1)]
    for p in range(-spec.p_range, spec.p_range + 1):
        rows.append([str(p)] + [by_key[(p, a)] for a in range(a_lo, a_hi + 1)])
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(f'"{v}"' if "," in v else v for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "text":
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                 for r in [header] + rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def export_grid(spec: GridSpec, fmt: str, path: Optional[str] = None) -> str:
    text = render_grid(spec, fmt)
    if path:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    return text
