"""Which functions of src/bredon the package's entry points call.

    python3 scripts/reach.py [--repo PATH]

Runs every entry point in one fresh interpreter under ``cProfile``, with
the profiler on before ``bredon`` is first imported:

* the CLI commands whose outputs ``tests/test_golden.py`` pins (GOLDEN);
* ``check all`` at its defaults, and two ``export`` runs;
* ``grid`` over a copy of the fixtures whose first weight-0 predicate,
  ``a % (p - p) == 0``, divides by zero: it must end in exit code 2 and one
  ``bredon: error:`` line that names the predicate;
* every script in demos/;
* each benchmark workload at ``--size tiny``, through ``bench/worker.py``.

Every function and method defined in src/bredon (nested ones too) that none
of them calls must be named in ALLOWED, with its reason; dunder methods are
exempt, the language calls them.  The script prints each definition that no
entry point calls and ALLOWED does not name, and each entry of ALLOWED that
the trace does call or that names no definition, and exits 1 if there is
any.  It needs nothing but the standard library: it runs where pytest is
not installed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# definitions that no entry point calls, each kept for its reason; direction 7
# of ROADMAP.md retires the name-wrapping benchmark tracer, and these with it
_TRACER = "until direction 7: bench/spans.py wraps it by name"
_UNDER_TRACER = "until direction 7: only functions that bench/spans.py wraps call it"
ALLOWED = {
    "chaincx.check_cone_les": _TRACER,
    "chaincx.cone_inclusion": _TRACER,
    "chaincx.cone_projection": _TRACER,
    "chaincx.ChainMap.validate": _TRACER,
    "abgrp.is_exact_at": _TRACER,
    "abgrp.map_is_injective": _TRACER,
    "abgrp.map_is_surjective": _TRACER,
    "chaincx.CochainComplex.shift": _UNDER_TRACER,
    "abgrp.kernel_lattice": _UNDER_TRACER,
    "abgrp.lattice_contains": _UNDER_TRACER,
    "abgrp._relations": _UNDER_TRACER,
}


def _golden() -> dict:
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
    # a conditional cell: Z/2 if -1 is a square else 0, at (0, 0)
    for fmt in ("text", "json"):
        commands[f"grid-sigma-general-2-{fmt}"] = [
            "grid", "--weight", "sigma", "--coeff", "2", "--profile", "general",
            "--p-range", "1", "--format", fmt]
    return commands


# name -> argv of each CLI command whose output is pinned under tests/golden/
GOLDEN = _golden()
BAD_PREDICATE = "a % (p - p) == 0"


def transcript(argv: list) -> str:
    """The command line, what ``main`` prints to stdout and stderr, and its exit code."""
    from bredon.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"$ bredon {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}exit {code}\n"


def _bad_predicate_grid(scratch: Path) -> None:
    """``grid`` over a fixture copy whose first weight-0 predicate divides by zero."""
    from bredon.tables import fixture_dir

    folder = scratch / "fixtures"
    shutil.copytree(fixture_dir(), folder)
    path = folder / "weight0_integral.json"
    data = json.loads(path.read_text())
    data["rows"][0]["when"] = BAD_PREDICATE
    path.write_text(json.dumps(data))
    os.environ["BREDON_FIXTURE_DIR"] = str(folder)
    try:
        text = transcript(["grid", "--weight", "0", "--source", "fixture"])
    finally:
        del os.environ["BREDON_FIXTURE_DIR"]
    lines = text.splitlines()
    if not (len(lines) == 3 and lines[1].startswith("bredon: error:")
            and BAD_PREDICATE in lines[1] and lines[2] == "exit 2"):
        raise RuntimeError(f"the failing predicate did not end in one error line:\n{text}")


def _entry_points(repo: Path, scratch: Path) -> None:
    """Run every entry point in this process; raise if one fails."""
    for argv in [*GOLDEN.values(), ["check", "all"],
                 ["export", "--weight", "0", "--p-range", "2"],
                 ["export", "--weight", "1", "--profile", "euclidean", "--format", "csv",
                  "--out", str(scratch / "export.csv")]]:
        text = transcript(argv)
        if not text.endswith("exit 0\n"):
            raise RuntimeError(f"an entry point failed:\n{text[-2000:]}")
    _bad_predicate_grid(scratch)
    for demo in sorted((repo / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    import worker
    from workloads import WORKLOADS

    for name in WORKLOADS:
        request = {"src": str(repo / "src"), "workload": name, "size": "tiny", "seed": 1,
                   "traced": False, "setup_only": False, "launched": time.monotonic()}
        sys.argv[1:] = [json.dumps(request)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            worker.main()
        groups = json.loads(out.getvalue().splitlines()[-1])["groups"]
        if any(group["not_ok"] for group in groups.values()):
            raise RuntimeError(f"the {name} workload failed a cell")


def definitions(repo: Path) -> dict:
    """(module path, first line, name) -> (dotted name, lines) of every
    function and method defined under src/bredon; the first line is that of
    its first decorator, as the code object has it."""
    package = repo / "src" / "bredon"
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        if module.endswith("__init__"):
            module = module.rpartition(".")[0] or "bredon"

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path.relative_to(package).as_posix(), first, child.name)] = (
                        f"{prefix}.{child.name}", child.end_lineno - first + 1)
                    visit(child, f"{prefix}.{child.name}")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), module)
    return found


def _traced_lines(repo: Path) -> set:
    """(module path under src/bredon, first line, name) of each code object
    of the package that the entry points call, traced in this process."""
    package = str(repo / "src" / "bredon") + os.sep
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    profiler = cProfile.Profile(builtins=False)
    with tempfile.TemporaryDirectory() as scratch:
        profiler.enable()
        try:
            _entry_points(repo, Path(scratch))
        finally:
            profiler.disable()
    codes = {entry.code for entry in profiler.getstats()}
    return {(Path(code.co_filename).relative_to(package).as_posix(), code.co_firstlineno,
             code.co_name) for code in codes if code.co_filename.startswith(package)}


def _is_dunder(name: str) -> bool:
    last = name.rpartition(".")[2]
    return last.startswith("__") and last.endswith("__")


def called(repo: Path = HERE) -> set:
    """(module path under src/bredon, first line, name) of each function of
    repo's package that an entry point calls, traced in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("BREDON_FIXTURE_DIR", None)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                           "--repo", str(repo)],
                          cwd=repo, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"the traced entry points failed:\n{proc.stderr[-3000:]}")
    return {tuple(key) for key in json.loads(proc.stdout.splitlines()[-1])}


def uncalled(repo: Path, calls: set) -> dict:
    """{dotted name: lines} of each definition of repo's package, dunders
    left out, that is not among calls."""
    return {name: lines for key, (name, lines) in definitions(repo).items()
            if key not in calls and not _is_dunder(name)}


def allowed(repo: Path = HERE) -> dict:
    """{dotted name: lines} of the definitions of repo's package that ALLOWED names."""
    return {name: lines for name, lines in definitions(repo).values() if name in ALLOWED}


def problems(found: dict) -> list:
    """What the uncalled definitions found break of ALLOWED, one line each."""
    return ([f"no entry point calls {name} ({found[name]} lines): delete it, move it "
             f"into tests/ or reach it from an entry point"
             for name in sorted(set(found) - set(ALLOWED))]
            + [f"stale allow-list entry: an entry point calls {name}, or it is gone"
               for name in sorted(set(ALLOWED) - set(found))])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=HERE,
                        help="the checkout to trace (default: this one)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if args.child:
        print(json.dumps(sorted(_traced_lines(repo))))
        return 0
    start = time.perf_counter()
    found = uncalled(repo, called(repo))
    kept = allowed(repo)
    print(f"{len(definitions(repo))} definitions, {len(found)} uncalled (dunders aside), "
          f"{len(kept)} allowed ({sum(kept.values())} lines), "
          f"traced in {time.perf_counter() - start:.1f} s")
    lines = problems(found)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
