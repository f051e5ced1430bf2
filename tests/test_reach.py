"""Every function and method of the package is called by some entry point,
or named with its reason in the allow-list of ``scripts/reach.py``.

The trace runs the entry points (the golden CLI commands, ``check all``,
``export``, a failing fixture predicate, the demos and the benchmark
workloads) in one fresh interpreter, with the profiler on before ``bredon``
is imported; what the tests themselves call does not count.
"""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import reach  # noqa: E402


@pytest.fixture(scope="module")
def calls():
    return reach.called(ROOT)


def test_every_function_is_called_or_allowed(calls):
    assert reach.problems(reach.uncalled(ROOT, calls)) == []


def test_a_function_only_a_test_calls_fails(calls, tmp_path):
    # planted after the last line of abgrp.py, so the traced first lines of
    # every other definition still name the same functions in the copy
    package = tmp_path / "src" / "bredon"
    shutil.copytree(ROOT / "src" / "bredon", package)
    with (package / "abgrp.py").open("a") as module:
        module.write("\n\ndef planted(a):\n    return a\n")
    assert reach.problems(reach.uncalled(tmp_path, calls)) == [
        "no entry point calls abgrp.planted (2 lines): delete it, move it into tests/ "
        "or reach it from an entry point"]


def test_a_stale_allow_list_entry_fails():
    name, *others = sorted(reach.ALLOWED)
    assert reach.problems(dict.fromkeys(others, 1)) == [
        f"stale allow-list entry: an entry point calls {name}, or it is gone"]

