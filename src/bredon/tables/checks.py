"""Comparison suites: every headline identity, checked cell by cell.

Each suite returns a CheckReport whose cells carry both computed and
expected values together with the fixture source note, so a failure is a
reportable finding rather than a bare assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from inspect import signature
from typing import Callable, Dict, List

from .. import sigmacx
from ..abgrp import COEFF_TEXT, FgAbelianGroup, tensor_Z2_group, two_torsion_group
# derive_weight1 is unused here; the benchmark tracer pins tables.checks.derive_weight1
from ..formal import Z2, ZA, FormalGroup, derive_weight1
from . import (
    ALL_TABLE_FILES,
    DERIVED_WEIGHTS,
    TheoremRangeError,
    bredon_point_closed_form,
    load_cells,
    load_table,
    weight0_closed_form,
)


@dataclass
class CellResult:
    key: str
    ok: bool
    got: str
    expected: str
    citation: str = ""


@dataclass
class CheckReport:
    suite: str
    cells: List[CellResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every cell holds, and there is at least one: a suite that checked nothing fails."""
        return bool(self.cells) and all(c.ok for c in self.cells)

    @property
    def failures(self) -> List[CellResult]:
        return [c for c in self.cells if not c.ok]

    def add(self, key: str, got, expected, citation: str = ""):
        got_s = got if isinstance(got, str) else got.render()
        exp_s = expected if isinstance(expected, str) else expected.render()
        self.cells.append(CellResult(key, got_s == exp_s, got_s, exp_s, citation))

    def add_flag(self, key: str, ok: bool, detail: str = ""):
        self.cells.append(CellResult(key, ok, detail if not ok else "ok", "ok"))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite}: {len(self.cells) - len(self.failures)}/{len(self.cells)} cells"


# the cyclic order of each atom that has an exact group: Z is 0, Z/2 is 2
_EXACT_ORDER = {ZA: 0, Z2: 2}


def _formal_as_exact(g: FormalGroup) -> FgAbelianGroup:
    """A fully resolved formal group (only Z and Z/2 atoms) as an exact group."""
    if any(atom not in _EXACT_ORDER for atom in g.atoms):
        raise ValueError(f"formal group {g} is not fully resolved")
    return FgAbelianGroup.from_cyclic_orders(_EXACT_ORDER[atom] for atom in g.atoms)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def check_fixture_coverage() -> CheckReport:
    """Disjointness of every fixture table over its declared range."""
    report = CheckReport("fixture-coverage")
    for name in ALL_TABLE_FILES:
        table = load_table(name)
        findings = table.coverage_findings()
        report.add_flag(table.table_id, not findings, "; ".join(findings[:3]))
    return report


# the degrees a that the weight-0 suites check at every shift: |a| <= 12
_A_RANGE = range(-12, 13)


def _weight0_three_way(suite: str, fixture: str, m: int, other: str, second: Callable,
                       p_max: int) -> CheckReport:
    """At each (a, p) with |p| <= p_max and a in _A_RANGE, the computed weight-0
    group over the coefficient m equals that of the table in ``fixture`` and
    second(a, p), which the cell reports as ``other``."""
    report = CheckReport(suite)
    table = load_table(fixture)
    for p in range(-p_max, p_max + 1):
        for a in _A_RANGE:
            got, also = sigmacx.weight0(a, p, m), second(a, p)
            expected, source = table.lookup(a, p)
            report.cells.append(CellResult(
                f"(a={a}, p={p})", got == expected == also, got.render(),
                f"{expected.render()} / {other} {also.render()}", source))
    return report


def check_weight0_integral(p_max: int = 8) -> CheckReport:
    """Chain-level weight-0 groups equal both closed-form tables exactly."""
    return _weight0_three_way("weight0-integral", "weight0_integral.json", 0, "point",
                              bredon_point_closed_form, p_max)


def check_weight0_mod2(p_max: int = 8) -> CheckReport:
    """Direct mod-2 groups equal the universal-coefficient combination and the band table."""
    return _weight0_three_way(
        "weight0-mod2", "weight0_mod2.json", 2, "uct",
        lambda a, p: tensor_Z2_group(sigmacx.weight0(a, p, 0)).direct_sum(
            two_torsion_group(sigmacx.weight0(a + 1, p, 0))), p_max)


def _structural(suite: str, check: Callable, cases: Dict[str, tuple]) -> CheckReport:
    """One flag per case: ok when ``check(*args)`` returns, failed with the
    ``CheckFailure`` text when it raises one."""
    report = CheckReport(suite)
    for key, args in cases.items():
        try:
            check(*args)
            report.add_flag(key, True)
        except sigmacx.CheckFailure as exc:
            report.add_flag(key, False, str(exc))
    return report


def check_free_orbit(p_max: int = 8) -> CheckReport:
    """Free-orbit complexes carry the coefficient group at degree -p only."""
    return _structural("free-orbit", sigmacx.free_orbit_acyclicity, {
        f"(p={p}, m={m})": (p, m) for p in range(-p_max, p_max + 1) for m in (0, 2)})


def check_transfer(p_max: int = 8) -> CheckReport:
    """Transfer/restriction composites: 2*id, id + involution, induced maps."""
    return _structural("transfer-restriction", sigmacx.transfer_restriction_check,
                       {f"(p={p})": (p,) for p in range(-p_max, p_max + 1)})


def check_cone_tower(p_max: int = 7) -> CheckReport:
    """cone(transfer at p) matches the complex at p+1 for 0 <= p <= p_max."""
    return _structural("cone-tower", sigmacx.cone_tower_check,
                       {f"(p={p})": (p,) for p in range(0, p_max + 1)})


def _compare_derived(report: CheckReport, weight: str, profile_name: str,
                     n_max: int, coeff: int, cones: tuple):
    deriver, closed = DERIVED_WEIGHTS[weight]
    tables = deriver(profile_name, n_max, coeff=coeff)
    for cone in cones:
        table = tables[cone]
        shifts = table.derived_shifts()
        farthest = max(shifts, key=abs, default=None)
        if farthest is None or abs(farthest) < n_max:
            report.add_flag(f"{weight}/{profile_name}/{cone}: columns", False,
                            f"only derived up to {farthest}; "
                            + "; ".join(table.notes[-2:]))
            continue
        for p in shifts:
            for a in range(-n_max - 2, n_max + 3):
                entry = table.entry(a, p)
                if entry.group is None:
                    report.add_flag(f"{weight}/{profile_name} (a={a}, p={p})", False,
                                    entry.note)
                    continue
                expected = closed(a, p, coeff=coeff, profile=profile_name)
                ok = entry.group == expected
                if not entry.group.is_zero() and not entry.trail:
                    ok = False
                report.cells.append(CellResult(
                    f"{weight}/{profile_name} coeff={coeff} (a={a}, p={p})", ok,
                    entry.group.render(), expected.render(),
                    ", ".join(entry.trail)))


def _check_derived(suite: str, weight: str, n_max: int) -> CheckReport:
    report = CheckReport(suite)
    for prof in ("quadratically_closed", "euclidean"):
        for coeff in (0, 2):
            _compare_derived(report, weight, prof, n_max, coeff, ("positive", "negative"))
    _compare_derived(report, weight, "formally_real", n_max, 0, ("negative",))
    return report


def check_weight1_derived(n_max: int = 16) -> CheckReport:
    """Derived weight-1 tables vs the stated case tables, integrally and mod 2."""
    return _check_derived("weight1-derived", "1", n_max)


def check_weight_sigma_derived(n_max: int = 16) -> CheckReport:
    """Derived sign-weight tables vs the stated case tables."""
    return _check_derived("weight-sigma-derived", "sigma", n_max)


def check_qclosed_coincidence(n_max: int = 16) -> CheckReport:
    """Over a quadratically closed field the mod-2 tables collapse to the point
    table and to each other, and integral weight 0 is the point table over
    every field."""
    report = CheckReport("qclosed-coincidence")
    mod2 = {weight: partial(closed, coeff=2, profile="quadratically_closed")
            for weight, (_, closed) in DERIVED_WEIGHTS.items()}
    # (key, how far a runs past n_max, got, expected, citation)
    comparisons = [(f"weight {weight}", 2, lambda a, p, f=f: _formal_as_exact(f(a, p)),
                    partial(bredon_point_closed_form, coeff=2),
                    "mod-2 coincidence with the point table") for weight, f in mod2.items()]
    comparisons += [("weights " + " vs ".join(mod2), 2, *mod2.values(),
                     "mod-2 coincidence of the two cones"),
                    ("weight 0", 4, weight0_closed_form, bredon_point_closed_form,
                     "weight-0 integral coincidence with the point table")]
    for key, margin, got, expected, citation in comparisons:
        for p in range(-n_max, n_max + 1):
            for a in range(-n_max - margin, n_max + margin + 1):
                report.add(f"{key} (a={a}, p={p})", got(a, p), expected(a, p), citation)
    return report


def check_corner_values() -> CheckReport:
    """The four diagonal corner values, integrally and mod 2."""
    report = CheckReport("corner-values")
    modulus = {text: m for m, text in COEFF_TEXT.items()}
    for cell in load_cells("corner_values.json"):
        closed = DERIVED_WEIGHTS[cell["weight"]][1]
        try:  # the general profile
            got = closed(cell["a"], cell["p"], coeff=modulus[cell["coeff"]])
        except TheoremRangeError as exc:  # a cell outside the table's stated range fails
            got = str(exc)
        report.add(f"{cell['weight']} (a={cell['a']}, p={cell['p']}, {cell['coeff']})",
                   got, cell["group"], cell["source"])
    return report


SUITES: Dict[str, Callable[..., CheckReport]] = {
    "fixture-coverage": check_fixture_coverage,
    "weight0-integral": check_weight0_integral,
    "weight0-mod2": check_weight0_mod2,
    "free-orbit": check_free_orbit,
    "transfer-restriction": check_transfer,
    "cone-tower": check_cone_tower,
    "weight1-derived": check_weight1_derived,
    "weight-sigma-derived": check_weight_sigma_derived,
    "qclosed-coincidence": check_qclosed_coincidence,
    "corner-values": check_corner_values,
}


def check(suite: str, **options) -> List[CheckReport]:
    """Run one suite (or 'all'), passing each suite the options its signature
    names; unknown suite names raise KeyError, and an option that no suite
    takes raises TypeError."""
    names = {name for fn in SUITES.values() for name in signature(fn).parameters}
    unknown = sorted(set(options) - names)
    if unknown:
        raise TypeError(f"check() got unknown options {', '.join(unknown)}; "
                        f"the suites take {', '.join(sorted(names))}")
    if suite != "all" and suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}, all")
    chosen = SUITES.values() if suite == "all" else [SUITES[suite]]
    return [fn(**{k: v for k, v in options.items() if k in signature(fn).parameters})
            for fn in chosen]
