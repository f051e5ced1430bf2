"""Fixture tables, closed forms, grids, and exports."""

import importlib.util
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

from bredon import tables
from bredon.tables import checks
from bredon.abgrp import FgAbelianGroup
from bredon.formal import (ATOM_TEXT, PROFILES, Atom, ConditionalGroup, FormalGroup, KMODSQ,
                           KSQ, KSTAR, Z2, ZA, ZERO_FG, get_profile, normalize)
from bredon.tables import (
    ALL_TABLE_FILES,
    FixtureError,
    FixtureTable,
    GridSpec,
    Predicate,
    TheoremRangeError,
    bredon_point_closed_form,
    export_grid,
    fixture_dir,
    grid_cells,
    load_cells,
    parse_exact_group,
    parse_formal_group,
    render_grid,
    weight0_closed_form,
    weight1_closed_form,
    weight_sigma_closed_form,
)

Z = FgAbelianGroup.free(1)
C2 = FgAbelianGroup.cyclic(2)
ZERO = FgAbelianGroup.zero()


class TestPredicate:
    def test_arithmetic_and_parity(self):
        p = Predicate("p > 0 and p % 2 == 0 and -p < a <= 0 and a % 2 == 0")
        assert p(a=-2, p=4) and not p(a=-1, p=4) and not p(a=-2, p=3)

    def test_rejects_calls_and_names(self):
        with pytest.raises(FixtureError):
            Predicate("__import__('os').system('true')")
        with pytest.raises(FixtureError):
            Predicate("q + 1 == 2")

    @pytest.mark.parametrize("text", ["a > 0 and q == 1", "a > 0 and len(a) == 1",
                                      "a > 0 and a ** 2 == 1", "a > 0 and a.real == 1",
                                      "a > 0 and a == 1.5", "a >"])
    def test_checks_the_whole_tree_at_construction(self, text):
        # all but the last evaluate cleanly at a = p = 0, where `and` short-circuits
        with pytest.raises(FixtureError, match="outside the predicate grammar") as info:
            Predicate(text)
        assert repr(text) in str(info.value)

    def test_arithmetic_error_names_predicate_and_point(self):
        pred = Predicate("a % (p - p) == 0")
        with pytest.raises(FixtureError, match=r"'a % \(p - p\) == 0' fails at \(a=3, p=-1\)"):
            pred(a=3, p=-1)


class TestGroupGrammar:
    def test_exact(self):
        assert parse_exact_group("0") == ZERO
        assert parse_exact_group("Z (+) Z/2") == FgAbelianGroup(1, (2,))
        assert parse_exact_group("Z^3") == FgAbelianGroup.free(3)
        with pytest.raises(FixtureError):
            parse_exact_group("Q")

    def test_formal(self):
        assert parse_formal_group("k*/k*2 (+) Z/2") == FormalGroup.of(KMODSQ, Z2)
        with pytest.raises(FixtureError):
            parse_formal_group("k***")


class TestPointClosedForm:
    def test_contract_examples(self):
        assert bredon_point_closed_form(-2, 4, 0) == C2
        assert bredon_point_closed_form(3, -5, 0) == C2
        assert bredon_point_closed_form(0, 0, 0) == Z

    def test_mod2_band(self):
        assert bredon_point_closed_form(-3, 5, 2) == C2
        assert bredon_point_closed_form(2, -2, 2) == C2
        assert bredon_point_closed_form(1, 4, 2) == ZERO


class TestWeight0ClosedForm:
    def test_contract_examples(self):
        assert weight0_closed_form(-3, 3, 0) == ZERO
        assert weight0_closed_form(5, -6, 0) == C2
        assert weight0_closed_form(2, -2, 2) == C2

    def test_matches_point_table_everywhere(self):
        for p in range(-10, 11):
            for a in range(-12, 13):
                assert weight0_closed_form(a, p, 0) == bredon_point_closed_form(a, p, 0)
                assert weight0_closed_form(a, p, 2) == bredon_point_closed_form(a, p, 2)


class TestWeightOneAndSigma:
    def test_contract_examples(self):
        assert weight1_closed_form(0, 1, 0, "general") == FormalGroup.of(Z2)
        assert weight_sigma_closed_form(1, 0, 0, "general") == FormalGroup.of(KSQ)
        # negative-cone mod 2, euclidean, shift 3 at an interior degree
        got = weight_sigma_closed_form(2, -3, 2, "euclidean")
        assert got == FormalGroup.of(Z2, Z2)

    def test_out_of_theorem_range(self):
        with pytest.raises(TheoremRangeError):
            weight1_closed_form(0, 4, 0, "general")
        with pytest.raises(TheoremRangeError):
            weight1_closed_form(0, 4, 0, "formally_real")
        with pytest.raises(TheoremRangeError):
            weight_sigma_closed_form(2, -3, 2, "formally_real")
        # the negative cone does admit formally real fields integrally
        assert weight_sigma_closed_form(2, -3, 0, "formally_real") == FormalGroup.of(KMODSQ)

    def test_profile_resolution(self):
        assert weight1_closed_form(-1, 2, 0, "qclosed") == FormalGroup.of(KSTAR)
        assert weight1_closed_form(1, 2, 0, "qclosed") == ZERO_FG       # square classes die
        assert weight1_closed_form(1, 2, 0, "euclidean") == FormalGroup.of(Z2)

    def test_conditional_zero_column(self):
        cond = weight_sigma_closed_form(0, 0, 2, "general")
        assert cond.resolve(load_profile("qclosed")) == FormalGroup.of(Z2)
        assert cond.resolve(load_profile("euclidean")) == ZERO_FG
        assert weight_sigma_closed_form(0, 0, 2, "qclosed") == FormalGroup.of(Z2)
        assert weight_sigma_closed_form(0, 0, 2, "euclidean") == ZERO_FG


def load_profile(name):
    from bredon.formal import get_profile
    return get_profile(name)


class TestGridAndExport:
    def test_csv_has_one_row_per_shift(self):
        text = render_grid(GridSpec(weight="0", coeff=0, p_range=3), "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 8  # header + 7 shifts
        assert lines[0].startswith("p\\a")

    def test_json_schema(self):
        cells = grid_cells(GridSpec(weight="0", coeff=2, p_range=1))
        for cell in cells:
            assert set(cell) == {"a", "p", "weight", "coeff", "group", "rendered",
                                 "source", "citation"}
            assert cell["coeff"] == "Z/2"
        nonzero = [c for c in cells if c["rendered"] != "0"]
        assert {(c["a"], c["p"]) for c in nonzero} == {(0, 0), (0, 1), (-1, 1)}

    def test_export_deterministic(self, tmp_path):
        spec = GridSpec(weight="0", coeff=0, p_range=2)
        one = export_grid(spec, "json", str(tmp_path / "grid.json"))
        two = export_grid(spec, "json")
        assert one == two
        assert (tmp_path / "grid.json").read_text() == one

    def test_derived_grid_source(self):
        cells = grid_cells(GridSpec(weight="1", coeff=0, p_range=2,
                                    profile="euclidean", source="derived"))
        lookup = {(c["a"], c["p"]): c for c in cells}
        assert lookup[(-1, 2)]["rendered"] == "k*"
        assert lookup[(-1, 2)]["citation"]  # derived cells carry their trail

    def test_conditional_cell_exports_both_branches(self):
        # the general profile keeps both branches; the cell used to export "group": null
        spec = GridSpec(weight="sigma", coeff=2, p_range=0, source="fixture")
        cell = {(c["a"], c["p"]): c for c in grid_cells(spec)}[(0, 0)]
        assert cell["rendered"] == "Z/2 if -1 is a square else 0"
        assert cell["group"] == {"if_minus_one_square": {"atoms": ["Z/2"]},
                                 "otherwise": {"atoms": []}}
        assert ConditionalGroup(FormalGroup.of(Z2), ZERO_FG).to_json() == cell["group"]


    @pytest.mark.parametrize("spec", [{"coeff": 3},
                                      {"weight": "1", "coeff": 3, "source": "fixture"},
                                      {"weight": "0", "coeff": -2, "source": "fixture"}])
    def test_rejects_coefficients_without_a_table(self, spec):
        # Z/3 groups must not be computed and labelled Z/2, nor fail with a bare KeyError
        with pytest.raises(ValueError, match=f"coefficient {spec['coeff']} "):
            grid_cells(GridSpec(**spec))

    def test_rejects_an_empty_a_range(self):
        with pytest.raises(ValueError, match="a-range 3..-3 is empty"):
            GridSpec(a_min=3, a_max=-3)
        with pytest.raises(ValueError, match="a-range 2..1 is empty"):
            GridSpec(p_range=1, a_min=2)
        assert len(grid_cells(GridSpec(p_range=0, a_min=0, a_max=0))) == 1


class TestGridSpecSource:
    def test_default_source_follows_the_weight(self):
        assert GridSpec().source == "computed"
        assert GridSpec(weight="1").source == "fixture"
        assert GridSpec(weight="sigma", coeff=2).source == "fixture"
        assert grid_cells(GridSpec(weight="1", p_range=0, a_min=0, a_max=0))[0]["source"] \
            == "fixture"

    @pytest.mark.parametrize("spec", [
        ({"weight": "1", "source": "computed"}, "has no"),
        ({"weight": "sigma", "source": "computed"}, "has no"),
        ({"weight": "0", "source": "derived"}, "has no"),
        # these used to end in a bare KeyError, in sign-weight cells labelled
        # weight "2", and in fixture cells labelled source "bogus"
        ({"weight": "2", "p_range": 0}, "^unknown weight '2'; use '0', '1' or 'sigma'$"),
        ({"weight": "2", "source": "derived", "p_range": 0}, "^unknown weight '2';"),
        ({"source": "bogus", "p_range": 0},
         "^unknown source 'bogus'; use 'computed', 'fixture' or 'derived'$"),
        # this used to give no cells, and a grid of only its header
        ({"p_range": -1, "a_min": 0, "a_max": 0}, "^the p-range must be at least 0, not -1$"),
    ])
    def test_explicit_invalid_source_still_raises(self, spec):
        kwargs, error = spec
        with pytest.raises(ValueError, match=error):
            grid_cells(GridSpec(**kwargs))


class TestEmptyReports:
    @pytest.mark.parametrize("suite, p_max", [
        (checks.check_weight0_integral, -2), (checks.check_weight0_mod2, -1),
        (checks.check_free_orbit, -1), (checks.check_transfer, -1),
        (checks.check_cone_tower, -1)])
    def test_a_suite_that_checked_nothing_fails(self, suite, p_max):
        # these used to report "PASS ...: 0/0 cells"
        report = suite(p_max=p_max)
        assert not report.cells and not report.passed
        assert report.summary() == f"FAIL {report.suite}: 0/0 cells"


class TestDerivedSuites:
    def test_stopped_negative_cone_names_its_farthest_column(self):
        report = checks.CheckReport("derived")
        checks._compare_derived(report, "1", "general", 4, 0, ("negative",))
        [cell] = report.cells
        assert cell.key == "1/general/negative: columns" and not cell.ok
        assert cell.got.startswith("only derived up to -3; ")

    def test_stopped_positive_cone_names_its_farthest_column(self):
        report = checks.CheckReport("derived")
        checks._compare_derived(report, "sigma", "general", 4, 0, ("positive",))
        [cell] = report.cells
        assert cell.got.startswith("only derived up to 3; ")

    def test_both_suites_keep_their_names_and_cells(self):
        one = checks.check_weight1_derived(n_max=2)
        sigma = checks.check_weight_sigma_derived(n_max=2)
        assert (one.suite, sigma.suite) == ("weight1-derived", "weight-sigma-derived")
        assert one.passed and sigma.passed
        for report, weight in ((one, "1"), (sigma, "sigma")):
            runs = list(dict.fromkeys(c.key.split(" (")[0] for c in report.cells))
            assert runs == [f"{weight}/{prof} coeff={coeff}" for prof, coeff in (
                ("quadratically_closed", 0), ("quadratically_closed", 2),
                ("euclidean", 0), ("euclidean", 2), ("formally_real", 0))]


class TestFormalAsExact:
    def test_z_and_z2_atoms_map_to_their_cyclic_groups(self):
        assert checks._formal_as_exact(FormalGroup.of(ZA, Z2, ZA)) == FgAbelianGroup(2, (2,))
        assert checks._formal_as_exact(ZERO_FG) == ZERO

    @pytest.mark.parametrize("kind", [k for k in ATOM_TEXT if Atom(k) not in (ZA, Z2)])
    def test_every_other_atom_is_refused(self, kind):
        with pytest.raises(ValueError, match="is not fully resolved$"):
            checks._formal_as_exact(FormalGroup.of(Z2, Atom(kind)))


class TestCoefficients:
    @pytest.mark.parametrize("closed_form", [bredon_point_closed_form, weight0_closed_form,
                                             weight1_closed_form, weight_sigma_closed_form])
    @pytest.mark.parametrize("coeff", [3, 1, -2])
    def test_only_z_and_z2_have_tables(self, closed_form, coeff):
        # the mod-2 table used to answer for every nonzero coefficient
        with pytest.raises(ValueError, match=f"coefficient {coeff} "):
            closed_form(0, 1, coeff=coeff)

    def test_each_coefficient_reads_its_own_table(self):
        assert weight0_closed_form(0, 1, coeff=2) == C2
        assert weight0_closed_form(-1, 1, coeff=0) == ZERO
        assert weight0_closed_form(-1, 1, coeff=2) == C2


class TestFixtureHygiene:
    def test_missing_source_note_rejected(self):
        data = {"table": "t", "kind": "exact", "rows": [
            {"when": "a == 0", "group": "Z", "source": ""},
            {"otherwise": True, "group": "0", "source": "x"}]}
        with pytest.raises(FixtureError):
            FixtureTable(data)

    def test_final_row_must_be_catch_all(self):
        data = {"table": "t", "kind": "exact", "rows": [
            {"when": "a == 0", "group": "Z", "source": "x"}]}
        with pytest.raises(FixtureError):
            FixtureTable(data)

    def test_overlap_is_reported(self):
        data = {"table": "t", "kind": "exact", "range": {"a": [0, 1], "p": [0, 0]},
                "rows": [
                    {"when": "a >= 0", "group": "Z", "source": "one"},
                    {"when": "a == 0", "group": "Z", "source": "two"},
                    {"otherwise": True, "group": "0", "source": "rest"}]}
        table = FixtureTable(data)
        findings = table.coverage_findings()
        assert findings and "overlap" in findings[0]

    def test_env_var_override(self, tmp_path, monkeypatch):
        src = fixture_dir()
        for name in os.listdir(src):
            shutil.copy(os.path.join(src, name), tmp_path / name)
        # corrupt one cell of the weight-0 table
        path = tmp_path / "weight0_integral.json"
        data = json.loads(path.read_text())
        data["rows"][0]["group"] = "Z/2"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("BREDON_FIXTURE_DIR", str(tmp_path))
        assert fixture_dir() == str(tmp_path)
        assert weight0_closed_form(-2, 2, 0) == C2  # the corrupted corner
        monkeypatch.delenv("BREDON_FIXTURE_DIR")
        assert weight0_closed_form(-2, 2, 0) == Z


def _row_by_row(table, a, p, profile):
    """The (value, source) of a cell from each row's own Predicate, with no memo."""
    matched = [r for r in table.rows if r.predicate is not None and r.predicate(a=a, p=p)]
    assert len(matched) <= 1, f"{table.table_id}: overlap at (a={a}, p={p})"
    row = matched[0] if matched else table.rows[-1]
    value = row.value
    if profile is not None:
        if isinstance(value, ConditionalGroup):
            value = value.resolve(profile)
        if isinstance(value, FormalGroup):
            value = normalize(value, profile)
    return value, row.source


def _table_data(*whens):
    rows = [{"when": when, "group": "Z", "source": f"row {i}"} for i, when in enumerate(whens)]
    return {"table": "t", "kind": "exact",
            "rows": rows + [{"otherwise": True, "group": "0", "source": "rest"}]}


class TestCellMemo:
    @pytest.mark.parametrize("name", ALL_TABLE_FILES)
    def test_memoised_lookup_matches_row_by_row_evaluation(self, name):
        with open(os.path.join(fixture_dir(), name)) as f:
            table = FixtureTable(json.load(f))  # a fresh table, so its memos start empty
        (a_lo, a_hi), (p_lo, p_hi) = table.range["a"], table.range["p"]
        for p in range(p_lo, p_hi + 1):
            allowed = table.profiles_for(p)
            profiles = ([None] + list(PROFILES.values()) if allowed is None
                        else [get_profile(n) for n in allowed])
            for a in range(a_lo, a_hi + 1):
                for profile in profiles:
                    expected = _row_by_row(table, a, p, profile)
                    assert table.lookup(a, p, profile) == expected
                    assert table.lookup(a, p, profile) == expected

    def test_overlap_raises_on_every_call(self):
        table = FixtureTable(_table_data("a >= 0", "a == 0"))
        for _ in range(2):
            with pytest.raises(FixtureError, match=r"rows overlap at \(a=0, p=0\): row 0; row 1"):
                table.lookup(0, 0)
        assert table.lookup(1, 0) == (Z, "row 0")
        assert table.lookup(-1, 0) == (ZERO, "rest")

    def test_arithmetic_error_names_predicate_and_point_on_every_call(self):
        table = FixtureTable(_table_data("a == 0", "a % (p - p) == 0"))
        for _ in range(2):
            with pytest.raises(FixtureError,
                               match=r"'a % \(p - p\) == 0' fails at \(a=3, p=-1\)"):
                table.lookup(3, -1)

    def test_a_trailing_comment_ends_with_its_predicate(self):
        table = FixtureTable(_table_data("a == 0  # the first row", "a == 1"))
        assert table.lookup(0, 0) == (Z, "row 0")
        assert table.lookup(1, 0) == (Z, "row 1")
        assert table.lookup(2, 0) == (ZERO, "rest")


def test_derive_requests_evaluate_each_cell_once(monkeypatch):
    # the benchmark's derive requests at n_max 6: the derivations and the
    # closed-form sweeps, which ask for many cells more than once
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    derive = workloads.WORKLOADS["derive"]

    monkeypatch.setattr(tables, "_CACHE", {})  # fresh tables, so every memo starts empty
    evaluations, matching = Counter(), FixtureTable._matching

    def counted(table, a, p):
        evaluations[(table.table_id, a, p)] += 1
        return matching(table, a, p)

    monkeypatch.setattr(FixtureTable, "_matching", counted)
    size = {"n_max": 6}
    fixtures = {"corner_values.json": load_cells("corner_values.json")}
    for request in derive.plan(size, fixtures):
        for cell in derive.run(request, size, fixtures):
            assert cell.ok, cell
    assert evaluations and max(evaluations.values()) == 1
