"""The CLI's outputs, pinned byte for byte.

Each command below runs in-process through ``bredon.cli.main``.  What it
prints and its exit code must equal the text kept under ``golden/``, one
file per command; a mismatch shows a unified diff.  Running this file as a
script rewrites every golden text from the current code:

    python tests/test_golden.py
"""

import contextlib
import difflib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _commands() -> dict:
    commands = {"check-all": ["check", "all", "--p-max", "6", "--n-max", "8", "--verbose"]}
    for weight in ("1", "sigma"):
        for profile in ("qclosed", "euclidean", "freal", "general"):
            for coeff in ("Z", "2"):
                commands[f"derive-{weight}-{profile}-{coeff}"] = [
                    "derive", "--weight", weight, "--profile", profile, "--coeff", coeff,
                    "--trace"]
    commands["weight0-0-8-explain"] = ["weight0", "--a", "0", "--p", "8", "--explain"]
    commands["weight0-0-m6-mod2-explain"] = ["weight0", "--a", "0", "--p", "-6",
                                             "--coeff", "2", "--explain"]
    for weight in ("0", "1", "sigma"):
        profile = [] if weight == "0" else ["--profile", "qclosed"]
        for fmt in ("text", "json", "csv"):
            commands[f"grid-{weight}-{fmt}"] = ["grid", "--weight", weight, *profile,
                                                "--p-range", "2", "--format", fmt]
    for weight in ("1", "sigma"):
        for fmt in ("text", "json"):
            commands[f"grid-derived-{weight}-{fmt}"] = [
                "grid", "--weight", weight, "--profile", "qclosed", "--source", "derived",
                "--p-range", "3", "--format", fmt]
    return commands


COMMANDS = _commands()


def transcript(argv: list) -> str:
    """The command line, what ``main`` prints to stdout and stderr, and its exit code."""
    from bredon.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"$ bredon {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}exit {code}\n"


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    got = transcript(COMMANDS[name])
    if got != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    got.splitlines(keepends=True),
                                    f"golden/{name}.txt", "now")
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv))
