"""Free texts, fuzzed with a fixed seed: group texts, `when` predicates and
CLI argument vectors.

Bad input must end in a ValueError with a one-line message (the parsers and
the fixture table) or, through the CLI, in exactly one ``bredon...: error:``
line and exit code 2; anything else exits 0 or 1.  No input may raise any
other exception.  The CLI vectors keep every shift at |p| <= 3 and
``--n-max`` at 6 or less, and never ask for ``check all``, so the whole file
runs in a few seconds.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, seed, settings
from hypothesis import strategies as st

from bredon.cli import main
from bredon.formal import ATOM_TEXT, PROFILE_ALIASES
from bredon.tables import FixtureError, FixtureTable, parse_exact_group, parse_formal_group
from bredon.tables.checks import SUITES

FUZZ = settings(max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def texts(tokens) -> st.SearchStrategy:
    """Arbitrary short texts, and texts glued from the grammar's own tokens."""
    return st.one_of(st.text(max_size=24),
                     st.lists(st.sampled_from(tokens), max_size=10).map("".join))


def assert_one_line(exc: Exception):
    assert isinstance(exc, ValueError) and "\n" not in str(exc), repr(exc)


# -- group texts ---------------------------------------------------------------

GROUP_TOKENS = (["Z", "Z^", "Z/", "0", "1", "2", "3", "10", "00", "99999999999999999999",
                 "(+)", " (+) ", " ", "^", "/", "-", "+", "*", "\n", "\t"]
                + list(ATOM_TEXT.values()))
# whole summands, valid and not, joined as the grammar joins them
SUMMANDS = ["0", "Z", "Z^1", "Z^2", "Z^0", "Z^-1", "Z/0", "Z/1", "Z/2", "Z/12", "Z/02",
            "Z^" + "9" * 20, "Z/" + "9" * 20, *ATOM_TEXT.values()]


@FUZZ
@seed(20261020)
@given(st.one_of(texts(GROUP_TOKENS),
                 st.lists(st.sampled_from(SUMMANDS), min_size=1, max_size=4).map(" (+) ".join)))
def test_group_texts_parse_or_fail_in_one_line(text):
    for parse in (parse_exact_group, parse_formal_group):
        try:
            group = parse(text)
        except FixtureError as exc:
            assert_one_line(exc)
        else:
            # a text that parses reads back from its own rendering
            assert parse(group.render()) == group, (parse.__name__, text)


# -- when texts ------------------------------------------------------------------

WHEN_TOKENS = ["a", "p", "0", "1", "2", "7", "-", "+", "*", "%", "//", "/", "**", "==",
               "<", "<=", ">", ">=", "!=", " and ", " or ", "not ", " ", "(", ")", "#",
               "\n", "\\", "x", "True", "1.5", "'s'", "[", "]", ",", ":", " if ", " else ",
               "lambda", "__import__", ".real", "9" * 30]


def one_row_table(when: str) -> FixtureTable:
    return FixtureTable({"table": "fuzz", "kind": "exact", "rows": [
        {"when": when, "group": "Z", "source": "the fuzzed row"},
        {"otherwise": True, "group": "0", "source": "the catch-all"}]})


@pytest.mark.filterwarnings("ignore::SyntaxWarning")   # "1.5a" and the like, then refused
@FUZZ
@seed(20261020)
@given(texts(WHEN_TOKENS))
def test_when_texts_build_and_look_up_or_fail_in_one_line(when):
    try:
        table = one_row_table(when)
    except FixtureError as exc:
        assert_one_line(exc)
        return
    for a in (-2, 0, 3):
        for p in (-1, 0, 2):
            try:
                group, _ = table.lookup(a, p)
            except FixtureError as exc:
                assert_one_line(exc)
            else:
                assert group.render() in ("Z", "0")


# -- CLI argument vectors ----------------------------------------------------------

def ints(lo: int, hi: int) -> st.SearchStrategy:
    return st.integers(lo, hi).map(str)


# tokens that are not valid values; none is a number, so no bound above is lifted
JUNK = st.sampled_from(["", "x", "1.5", "--", "-", "Z", "--bogus", "--p", "--help"])
COEFF = st.sampled_from(["Z", "0", "2", "Z/2", "3", "4"])
PROFILE = st.sampled_from([*PROFILE_ALIASES, "quadratically_closed", "real"])
TABLE = {"--weight": st.sampled_from(["0", "1", "sigma", "2"]), "--p-range": ints(-1, 3),
         "--a-min": ints(-15, 15), "--a-max": ints(-15, 15), "--coeff": COEFF,
         "--profile": PROFILE,
         "--source": st.sampled_from(["computed", "fixture", "derived", "formal"]),
         "--format": st.sampled_from(["text", "json", "csv", "tsv"])}
# per subcommand: the options it may get, and the ones it always gets (the
# required ones, and those whose default is past the bounds above)
COMMANDS = {
    "weight0": ({"--coeff": COEFF, "--explain": None},
                {"--a": ints(-15, 15), "--p": ints(-3, 3)}),
    "grid": (TABLE, {}),
    "export": ({**TABLE, "--out": st.sampled_from(["out.txt", "missing/out.txt", "."])}, {}),
    "derive": ({"--coeff": COEFF, "--trace": None},
               {"--weight": st.sampled_from(["1", "sigma", "0"]), "--profile": PROFILE,
                "--n-max": ints(-1, 6)}),
    "check": ({"--verbose": None}, {"--p-max": ints(-1, 3), "--n-max": ints(-1, 6)}),
}
SUITE_NAMES = st.sampled_from(sorted(SUITES) + ["nope", "All"])


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    optional, bounded = COMMANDS[command]
    names = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=5))
    names += list(bounded)
    argv = [] if command != "check" else draw(st.lists(SUITE_NAMES, max_size=3))
    for name in draw(st.permutations(names)):
        strategy = {**optional, **bounded}[name]
        argv.append(name)
        if strategy is not None:
            argv.append(draw(st.one_of(strategy, JUNK) if draw(st.integers(0, 9)) == 0
                             else strategy))
    if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return [command, *argv]


ERROR_LINE = re.compile(r"^bredon[^:]*: error: ", re.MULTILINE)


@FUZZ
@seed(20261020)
@given(argvs())
def test_cli_exits_0_or_1_or_prints_one_error_line(argv):
    assert "all" not in argv
    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(Path(tmp) / v) if v in ("out.txt", "missing/out.txt", ".") else v
                for v in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse: a usage error, or --help
                code = exc.code
    text = out.getvalue() + err.getvalue()
    event(f"{argv[0]} exit {code}")   # the mix shows with --hypothesis-show-statistics
    assert "Traceback" not in text
    if code == 2:
        assert len(ERROR_LINE.findall(err.getvalue())) == 1, (argv, err.getvalue())
        assert ERROR_LINE.match(err.getvalue().splitlines()[-1]), (argv, err.getvalue())
    else:
        assert code in (0, 1), (argv, code)
        assert not ERROR_LINE.search(text), (argv, text)


@pytest.mark.parametrize("text", ["Z^" + "9" * 40, "Z^99999999999 (+) Z/4"])
def test_a_huge_free_rank_is_counted_not_listed(text):
    # Z^r with r past any list length once raised OverflowError or MemoryError
    group = parse_exact_group(text)
    assert parse_exact_group(group.render()) == group and group.free_rank > 10 ** 10


def test_a_deeply_nested_predicate_is_one_line():
    # once a RecursionError from the parser, or from printing the offending node
    for when in ["a" + "+a" * 3000, "a if p else (" + "a+" * 600 + "a)"]:
        with pytest.raises(FixtureError, match="outside the predicate grammar") as info:
            one_row_table(when)
        assert_one_line(info.value)
