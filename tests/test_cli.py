"""The command-line surface: outputs, formats, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bredon import sigmacx, tables
from bredon.cli import main
from bredon.formal import PROFILES
from bredon.tables.checks import SUITES


SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args):
    """Run ``python -m bredon`` with the given arguments in a fresh interpreter."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "bredon", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_weight0_single_value(capsys):
    code, out = run(capsys, "weight0", "--a", "-2", "--p", "2")
    assert code == 0 and out.strip() == "Z"
    code, out = run(capsys, "weight0", "--a", "0", "--p", "1", "--coeff", "2")
    assert code == 0 and out.strip() == "Z/2"


def test_weight0_explain_names_ranks_model_and_diagonals(capsys):
    code, out = run(capsys, "weight0", "--a", "0", "--p", "8", "--explain")
    lines = out.strip().split("\n")
    assert code == 0 and lines[0] == "Z/2"
    assert ("complex: ranks -8:128 -7:512 -6:896 -5:896 -4:560 -3:224 -2:56 -1:8 0:1 "
            "(total 3281)") in lines
    assert "Morse model: ranks " + " ".join(f"{d}:1" for d in range(-8, 1)) + " (total 9)" in lines
    assert "d_in = d^-1 (1x8): Smith diagonal 2 x 1; 0 unit pivots (0 free faces)" in lines
    assert "d_out = d^0 (0x1): Smith diagonal empty; 0 unit pivots (0 free faces)" in lines
    assert lines[-1].startswith("provenance: computed")
    code, out = run(capsys, "weight0", "--a", "-3", "--p", "8", "--coeff", "2", "--explain")
    assert code == 0 and out.startswith("Z/2\n")
    assert ("d_out = d^-3 (56x224): Smith diagonal 1 x 48, 2 x 1; 48 unit pivots "
            "(45 free faces); rank mod 2 48") in out.split("\n")


def test_weight0_explain_bad_shift_is_one_line_exit_two(capsys):
    code = main(["weight0", "--a", "0", "--p", "-13", "--explain"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the configured bound" in captured.err


def test_grid_csv_seven_rows(capsys):
    code, out = run(capsys, "grid", "--weight", "0", "--p-range", "3",
                    "--coeff", "Z", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8 and lines[0].startswith("p\\a")


def test_grid_json(capsys):
    code, out = run(capsys, "grid", "--weight", "0", "--p-range", "1",
                    "--format", "json")
    assert code == 0
    cells = json.loads(out)
    assert all({"a", "p", "group", "citation", "source"} <= set(c) for c in cells)


def test_derive_trace(capsys):
    code, out = run(capsys, "derive", "--weight", "1", "--profile", "euclidean",
                    "--n-max", "3", "--trace")
    assert code == 0
    assert "A-comp" in out and "P-prop" in out


def test_derive_prints_no_column_past_the_depth(capsys):
    for weight in ("1", "sigma"):
        for n_max in (0, 1):
            code, out = run(capsys, "derive", "--weight", weight, "--profile", "qclosed",
                            "--n-max", str(n_max))
            shifts = {int(line.split("p=")[1].split(")")[0])
                      for line in out.splitlines() if "p=" in line}
            assert code == 0 and shifts and max(map(abs, shifts)) <= n_max, (weight, n_max)


def test_derive_prints_an_open_mod2_cell_and_its_rule(capsys):
    code, out = run(capsys, "derive", "--weight", "sigma", "--profile", "general",
                    "--coeff", "2")
    lines = out.splitlines()
    assert code == 0
    # once in each cone
    assert lines.count("  (a=+0, p=+0)  ?") == 2
    assert lines.count("  note: mod-2 entry (a=0, p=0): 2-torsion of k*2 needs to know "
                       "whether -1 is a square (general)") == 2


def test_derive_reports_findings(capsys):
    code, out = run(capsys, "derive", "--weight", "1", "--profile", "freal",
                    "--n-max", "3")
    assert code == 0
    assert "note:" in out and "A-alpha" in out


def test_check_pass_exit_zero(capsys):
    code, out = run(capsys, "check", "corner-values", "fixture-coverage")
    assert code == 0
    assert out.count("PASS") == 2


def use_fixture_copy(tmp_path, monkeypatch, name, edit):
    """Point BREDON_FIXTURE_DIR at a copy whose file ``name`` holds ``edit(its text)``."""
    from bredon.tables import fixture_dir
    src = fixture_dir()
    for each in os.listdir(src):
        shutil.copy(os.path.join(src, each), tmp_path / each)
    path = tmp_path / name
    path.write_text(edit(path.read_text()))
    monkeypatch.setenv("BREDON_FIXTURE_DIR", str(tmp_path))
    return path


def use_edited_fixtures(tmp_path, monkeypatch, first_row):
    """Point BREDON_FIXTURE_DIR at a copy whose first weight-0 row is updated."""
    def edit(text):
        data = json.loads(text)
        data["rows"][0].update(first_row)
        return json.dumps(data)
    return use_fixture_copy(tmp_path, monkeypatch, "weight0_integral.json", edit)


def without(*keys):
    """An edit that deletes the key at the end of the path ``keys`` from a fixture."""
    def edit(text):
        data = json.loads(text)
        node = data
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        return json.dumps(data)
    return edit


@pytest.mark.parametrize("name, keys", [
    ("weight0_integral.json", ("rows", 0, "when")),
    ("weight1_integral.json", ("kind",)),
    ("weight_sigma_mod2.json", ("rows",)),
    ("point_integral.json", ("rows", 0, "group")),
    ("corner_values.json", ("cells", 0, "weight")),
])
def test_fixture_without_a_required_key_is_one_line_exit_two(capsys, tmp_path, monkeypatch,
                                                            name, keys):
    path = use_fixture_copy(tmp_path, monkeypatch, name, without(*keys))
    code = main(["check", "fixture-coverage", "corner-values"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"bredon: error: fixture {path} lacks the key {keys[-1]!r}\n"


def test_fixture_that_is_not_json_is_one_line_exit_two(capsys, tmp_path, monkeypatch):
    path = use_fixture_copy(tmp_path, monkeypatch, "weight0_integral.json",
                            lambda text: text[:-40])
    code = main(["grid", "--source", "fixture"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"bredon: error: fixture {path} is not valid JSON: ")


def replacing(*keys_and_value):
    """An edit that sets the key at the end of the path ``keys`` of a fixture to
    the value given last."""
    *keys, value = keys_and_value

    def edit(text):
        data = json.loads(text)
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return json.dumps(data)
    return edit


@pytest.mark.parametrize("name, edit, error", [
    ("weight0_integral.json", replacing("rows", 5), ": the key 'rows' must hold a list of objects"),
    ("weight1_mod2.json", replacing("rows", [{"otherwise": True, "group": "0", "source": "x"}, 3]),
     ": the key 'rows' must hold a list of objects"),
    ("corner_values.json", replacing("cells", {"a": 0}),
     ": the key 'cells' must hold a list of objects"),
    ("point_integral.json", lambda text: "[]", " must hold an object, not list"),
    ("corner_values.json", lambda text: "5", " must hold an object, not int"),
    # each of these used to end in a traceback and exit code 1
    ("weight0_integral.json", replacing("rows", 0, "group", 5),
     ": the key 'group' must hold str, not int"),
    ("weight0_integral.json", replacing("rows", 0, "when", 7),
     ": the key 'when' must hold str, not int"),
    ("weight1_integral.json", replacing("rows", 0, "source", 5),
     ": the key 'source' must hold str, not int"),
    ("point_mod2.json", replacing("range", 5), ": the key 'range' must hold dict, not int"),
    ("point_mod2.json", replacing("range", "a", 5),
     ": the key 'range' must map each variable to [low, high] integers"),
    ("weight1_mod2.json", replacing("rows", 0, "conditional", "x"),
     ": the key 'conditional' must hold dict, not str"),
    ("corner_values.json", replacing("cells", 0, "source", 5),
     ": the key 'source' must hold str, not int"),
    ("corner_values.json", replacing("cells", 0, "a", "x"), ": the key 'a' must hold int, not str"),
    # each of these used to parse, then end in a traceback or in wrong verdicts
    ("point_integral.json", replacing("table", 5), ": the key 'table' must hold str, not int"),
    ("weight0_integral.json", replacing("kind", 5), ": the key 'kind' must hold str, not int"),
    ("weight0_mod2.json", replacing("kind", "cells"),
     ": the key 'kind' must hold 'exact' or 'formal', not 'cells'"),
    ("weight1_mod2.json", replacing("cone_profiles", {"positive": ["general"]}),
     ": the key 'cone_profiles' must map positive, negative, zero to lists of the profiles "
     + ", ".join(PROFILES)),
    ("weight_sigma_integral.json", replacing("cone_profiles", "zero", ["real"]),
     ": the key 'cone_profiles' must map positive, negative, zero to lists of the profiles "
     + ", ".join(PROFILES)),
    ("weight1_integral.json", replacing("shift_profiles", 5),
     ": the key 'shift_profiles' must hold dict, not int"),
    ("weight_sigma_mod2.json", replacing("shift_profiles", "1", "general"),
     ": the key 'shift_profiles' must map shifts to lists of the profiles " + ", ".join(PROFILES)),
    ("point_mod2.json", replacing("rows", -1, "otherwise", 1),
     ": the key 'otherwise' must hold bool, not int"),
    ("point_mod2.json", replacing("rows", []), ": point-mod2: final row must be the catch-all"),
    # each of these used to load silently, though nothing reads the key
    ("weight0_integral.json", replacing("coeff", "Z/2"),
     ": the document holds the key 'coeff', which nothing reads; "
     "the keys read there are table, kind, range, cone_profiles, shift_profiles, rows"),
    ("point_mod2.json", replacing("rows", 0, "colour", "red"),
     ": row 0 holds the key 'colour', which nothing reads; "
     "the keys read there are source, otherwise, group, when"),
    ("point_mod2.json", replacing("rows", -1, "when", "a > 0"),
     ": row 2 holds the key 'when', which nothing reads; "
     "the keys read there are source, otherwise, group"),
    ("weight_sigma_mod2.json", replacing("rows", 4, "conditional", "else", "0"),
     ": the conditional of row 4 holds the key 'else', which nothing reads; "
     "the keys read there are if_minus_one_square, otherwise"),
    ("weight1_mod2.json", replacing("range", "q", [0, 1]),
     ": the key 'range' holds the key 'q', which nothing reads; the keys read there are a, p"),
    ("weight1_integral.json", replacing("cone_profiles", "other", ["general"]),
     ": the key 'cone_profiles' must map positive, negative, zero to lists of the profiles "
     + ", ".join(PROFILES)),
    ("corner_values.json", replacing("kind", "exact"),
     ": the document holds the key 'kind', which nothing reads; the keys read there are table, cells"),
    ("corner_values.json", replacing("cells", 0, "kind", "exact"),
     ": cell 0 holds the key 'kind', which nothing reads; "
     "the keys read there are weight, a, p, coeff, group, source"),
], ids=["rows-int", "rows-item-int", "cells-object", "table-list", "cells-int", "row-group-int",
        "row-when-int", "row-source-int", "range-int", "range-bound-int", "row-conditional-text",
        "cell-source-int", "cell-a-text", "table-int", "kind-int", "kind-cells",
        "cone-profiles-one-cone", "cone-profiles-unknown-name", "shift-profiles-int",
        "shift-profiles-text", "row-otherwise-int", "rows-empty", "table-coeff", "row-unknown-key",
        "catch-all-when", "conditional-unknown-key", "range-unknown-variable",
        "cone-profiles-unknown-cone", "cells-kind", "cell-unknown-key"])
def test_fixture_of_the_wrong_shape_is_one_line_exit_two(capsys, tmp_path, monkeypatch,
                                                       name, edit, error):
    path = use_fixture_copy(tmp_path, monkeypatch, name, edit)
    code = main(["check", "fixture-coverage", "corner-values"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"bredon: error: fixture {path}{error}\n"


def keys_the_loader_reads(data: dict):
    """The key paths of a fixture that the loader reads: each top-level key, each
    range variable, each key of the first row or cell, and each conditional's branches."""
    if "cells" in data:
        yield ("cells",)
        for key in ("weight", "a", "p", "coeff", "group", "source"):
            yield ("cells", 0, key)
        return
    for key in ("table", "kind", "range", "cone_profiles", "shift_profiles", "rows"):
        yield (key,)
    for variable in ("a", "p"):
        yield ("range", variable)
    for key in ("source", "conditional", "group", "otherwise", "when"):
        yield ("rows", 0, key)
    for i, row in enumerate(data["rows"]):
        if "conditional" in row:
            yield ("rows", i, "conditional", "if_minus_one_square")
            yield ("rows", i, "conditional", "otherwise")


def test_every_json_type_in_every_fixture_key(capsys, tmp_path, monkeypatch):
    # a value the loader cannot use is one line naming the file, exit code 2;
    # every value it takes runs every suite to a verdict.  The suites that read
    # the most files for the least work go first and the coverage sweep last,
    # so a refused file stops the run early
    src = tables.fixture_dir()
    for each in os.listdir(src):
        shutil.copy(os.path.join(src, each), tmp_path / each)
    monkeypatch.setenv("BREDON_FIXTURE_DIR", str(tmp_path))
    monkeypatch.setattr(tables, "_CACHE", {})
    monkeypatch.setattr(tables, "_CELL_CACHE", {})
    first, last = ["corner-values", "qclosed-coincidence"], ["fixture-coverage"]
    suites = first + [name for name in SUITES if name not in first + last] + last
    faults, runs = [], 0
    for name in sorted(os.listdir(tmp_path)):
        path = tmp_path / name
        text = path.read_text()
        for keys in keys_the_loader_reads(json.loads(text)):
            for value in (None, True, 5, 1.5, "x", [], {}):
                path.write_text(replacing(*keys, value)(text))
                for cache in (tables._CACHE, tables._CELL_CACHE):  # reload this file only
                    cache.pop((str(tmp_path), name), None)
                runs += 1
                try:
                    code = main(["check", *suites, "--p-max", "1", "--n-max", "1"])
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
                out, err = capsys.readouterr()
                refused = (code == 2 and out == "" and err.count("\n") == 1
                           and err.startswith(f"bredon: error: fixture {path}"))
                if not (refused or code in (0, 1) and err == ""):
                    faults.append(f"{name} {keys} = {value!r}: {code}, {err!r}")
        path.write_text(text)
    assert runs > 700 and not faults, "\n".join(faults)


@pytest.mark.parametrize("text",["Z/0", "Z/-2", "Z^-1", "Z^0", "Z/1"])
def test_bad_exact_group_text_is_one_line_exit_two(capsys, tmp_path, monkeypatch, text):
    # each of these used to parse silently: Z/0 as Z, Z/-2 as Z/2, the others as 0
    path = use_edited_fixtures(tmp_path, monkeypatch, {"group": text})
    code = main(["grid", "--weight", "0", "--source", "fixture"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"bredon: error: fixture {path}: cannot parse exact group {text!r}: "
                            f"{text!r} is not Z, Z^r with r >= 1 or Z/d with d >= 2\n")


def test_check_failure_exit_one(capsys, tmp_path, monkeypatch):
    use_edited_fixtures(tmp_path, monkeypatch, {"group": "Z/2"})  # wrong corner value
    code, out = run(capsys, "check", "weight0-integral", "--p-max", "2")
    assert code == 1
    assert "FAIL" in out


def test_export_writes_file(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _ = run(capsys, "export", "--weight", "0", "--p-range", "2",
                  "--format", "csv", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("p\\a")


def test_export_to_a_missing_directory_is_one_line_exit_two(capsys, tmp_path):
    out_file = tmp_path / "missing" / "grid.json"
    code = main(["export", "--p-range", "1", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("bredon: error: cannot write")
    assert captured.err.count("\n") == 1 and str(out_file) in captured.err


def test_shift_beyond_bound_is_one_line_exit_two(capsys):
    code = main(["weight0", "--a", "0", "--p", "13"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "exceeds the configured bound" in err


def test_unknown_suite_is_one_line_exit_two(capsys):
    code = main(["check", "nosuch"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "unknown suite 'nosuch'" in err


def test_source_must_exist_for_the_weight(capsys):
    code = main(["export", "--weight", "1", "--source", "computed"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "weight 1 has no computed source" in captured.err
    code = main(["grid", "--weight", "0", "--source", "derived"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "weight 0 has no derived source" in captured.err


def test_missing_fixture_directory_is_one_line_exit_two(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "missing"
    monkeypatch.setenv("BREDON_FIXTURE_DIR", str(missing))
    code = main(["grid", "--source", "fixture"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(missing) in err and "BREDON_FIXTURE_DIR" in err


def test_predicate_arithmetic_error_is_one_line_exit_two(capsys, tmp_path, monkeypatch):
    use_edited_fixtures(tmp_path, monkeypatch, {"when": "a % (p - p) == 0"})
    code = main(["grid", "--weight", "0", "--source", "fixture"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("bredon: error:") and captured.err.count("\n") == 1
    assert "a % (p - p) == 0" in captured.err


def test_negative_range_is_one_line_exit_two(capsys):
    for argv, option in (
            (["check", "weight0-integral", "free-orbit", "cone-tower", "--p-max", "-1"],
             "--p-max"),
            (["check", "weight1-derived", "--n-max", "-1"], "--n-max"),
            (["grid", "--p-range", "-2"], "--p-range"),
            (["export", "--p-range", "-1", "--format", "csv"], "--p-range"),
            (["derive", "--weight", "1", "--profile", "euclidean", "--n-max", "-3"], "--n-max")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("bredon: error:") and captured.err.count("\n") == 1, argv
        assert option in captured.err, argv


def test_cone_tower_past_the_shift_bound_fails_before_any_suite(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sigmacx, "cone_tower_check", lambda p: calls.append(p) or True)
    for argv in (["check", "cone-tower", "--p-max", str(sigmacx.SHIFT_BOUND)],
                 ["check", "weight0-integral", "all", "--p-max", "40"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("bredon: error:") and captured.err.count("\n") == 1, argv
        assert "--p-max" in captured.err, argv
    assert calls == []
    # the largest p_max whose towers stay inside the bound runs every tower
    assert main(["check", "cone-tower", "--p-max", str(sigmacx.SHIFT_BOUND - 1)]) == 0
    assert calls == list(range(sigmacx.SHIFT_BOUND))


def test_empty_a_range_is_one_line_exit_two(capsys):
    for argv in (["grid", "--a-min", "3", "--a-max", "-3"],
                 ["export", "--a-min", "3", "--a-max", "-3"],
                 ["grid", "--p-range", "1", "--a-min", "2"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("bredon: error:") and captured.err.count("\n") == 1, argv
        assert "is empty" in captured.err, argv


def test_python_dash_m_runs_the_cli():
    proc = run_module("weight0", "--a", "0", "--p", "1")
    assert proc.returncode == 0 and proc.stdout.strip() == "Z/2", proc.stderr


def test_python_dash_m_passes_the_exit_code_on():
    proc = run_module("weight0", "--a", "0", "--p", "40")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("bredon: error:") and proc.stderr.count("\n") == 1
    assert "exceeds the configured bound" in proc.stderr
