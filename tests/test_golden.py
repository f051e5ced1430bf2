"""The CLI's outputs, pinned byte for byte.

Each command of ``GOLDEN`` runs in-process through ``bredon.cli.main``.
The list is kept in ``scripts/reach.py``, whose reachability trace runs the
same commands.  What a command prints and its exit code must equal the text
kept under ``golden/``, one file per command; a mismatch shows a unified
diff.  Running this file as a script rewrites every golden text from the
current code:

    python tests/test_golden.py
"""

import difflib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "scripts"))

from reach import GOLDEN, transcript  # noqa: E402


@pytest.mark.parametrize("name", GOLDEN)
def test_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    got = transcript(GOLDEN[name])
    if got != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    got.splitlines(keepends=True),
                                    f"golden/{name}.txt", "now")
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(transcript(argv))
