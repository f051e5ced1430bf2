"""Write a BENCH_<n>.json snapshot of one checkout of bredon.

    python3 scripts/bench_snapshot.py --out BENCH_19.json [--repo PATH]

Measures the checkout at --repo (by default the one this script lives in),
every part in a fresh process, one at a time:

* each benchmark workload, by running ``bench/run.py --trace 0`` as a
  subprocess, keeping its result line: the medians of the end-to-end
  metrics, in reference seconds (see bench/README.md);
* the wall time of ``python -m bredon check all`` and of the tier-1 suite;
* the reach rows: for each shift and orbit type, the CPU time of building
  the complex and of all its integral groups (``all_cohomology``), and the
  peak RSS of the process, each the median of REPEAT fresh processes;
* the check rows: for each command line of CHECKS, the wall and CPU time
  of ``bredon check <suites> --<option> <value>``, run through ``bredon.cli``,
  each the median of REPEAT fresh processes;
* the size row: the physical lines and the code lines (the lines that hold
  a token other than a comment, a docstring or layout, by ``tokenize``) of
  each module of src/bredon, and their totals, with the number of functions
  that the allow-list of ``scripts/reach.py`` keeps uncalled and their lines;
* the digest row: one sha256 over every differential of every orbit complex
  with |p| <= DIGEST_SHIFT, fixed and free, and every component of tr, res
  and the flip at those shifts, each matrix by its name, its shape and its
  sorted ``items()``; equal digests mean byte-identical complexes and maps.
  ``sha256_ordered`` hashes the same matrices with ``items()`` in stored
  row order: the sorted digest cannot see the order of a row's keys, and
  the pivot paths of a reduction (so U, V, f, g and induced maps) follow it.

Every reach and check process also times the benchmark's calibration
kernel, so the host's speed at that moment is on record next to the times.

The file also records the machine facts and the git sha of the checkout.
Compare two snapshots taken on the same host, one after the other.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import reach as reachability

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("weight0-grid", "free-orbit", "chain-maps", "derive")
REACH = ((10, "fixed"), (10, "free"), (11, "fixed"), (11, "free"), (12, "fixed"), (12, "free"))
SEED, SECONDS = 7, 10.0   # of each bench/run.py run
REPEAT = 3                # fresh processes per reach or check row
# (suites, option, value) of each check row: the group suites run in one
# process, where every shift meets its twin; the last is the derived
# suites' step of the tier-1 workflow
CHECKS = (("cone-tower", "p-max", 10), ("transfer-restriction", "p-max", 10),
          ("free-orbit weight0-integral weight0-mod2", "p-max", 10),
          ("weight1-derived weight-sigma-derived qclosed-coincidence", "n-max", 32))
DIGEST_SHIFT = 9
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _env(repo: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    env.pop("BREDON_FIXTURE_DIR", None)
    return env


def _timed(cmd: list, repo: Path, timeout: float) -> tuple:
    """(wall seconds, completed process) of one command run in the checkout."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=repo, env=_env(repo), capture_output=True, text=True,
                          timeout=timeout)
    return time.perf_counter() - start, proc


def _machine() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        found = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.M)
        model = found.group(1) if found else None
    return {"nproc": os.cpu_count(), "cpu": model, "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def _git_sha(repo: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"), "tracked_files_modified": bool(status)}


def bench(repo: Path) -> dict:
    out = {}
    for workload in WORKLOADS:
        _, proc = _timed([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(SECONDS)], repo, 600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            out[workload] = {"error": (proc.stderr or proc.stdout)[-500:]}
            continue
        result = json.loads(lines[-1])
        out[workload] = {"correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    return {"seed": SEED, "seconds": SECONDS, "workloads": out}


def check_all(repo: Path) -> dict:
    wall, proc = _timed([sys.executable, "-m", "bredon", "check", "all"], repo, 900)
    return {"wall_s": wall, "exit_code": proc.returncode,
            "passed": sum(line.startswith("PASS") for line in proc.stdout.splitlines())}


def tier1(repo: Path) -> dict:
    wall, proc = _timed(TIER1, repo, 1800)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary, **counts}


def _code_lines(text: str) -> int:
    """The number of lines that hold a token other than a comment, a
    docstring (of a module, class or function) or layout."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def size(repo: Path) -> dict:
    """Physical and code lines of each module of src/bredon, and in total."""
    root = repo / "src" / "bredon"
    modules = {}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        modules[path.relative_to(root).as_posix()] = {"lines": len(text.splitlines()),
                                                      "code_lines": _code_lines(text)}
    kept = reachability.allowed(repo)
    return {"lines": sum(m["lines"] for m in modules.values()),
            "code_lines": sum(m["code_lines"] for m in modules.values()),
            "allowed_uncalled": len(kept), "allowed_uncalled_lines": sum(kept.values()),
            "modules": modules}


def digest_once(repo: Path) -> dict:
    """The digest of every orbit complex and map with |p| <= DIGEST_SHIFT, in this process."""
    sys.path.insert(0, str(repo / "src"))
    from bredon import sigmacx

    digest, ordered, matrices = hashlib.sha256(), hashlib.sha256(), 0
    for p in range(-DIGEST_SHIFT, DIGEST_SHIFT + 1):
        named = [(f"{orbit_type} {p} d^{k}", m)
                 for orbit_type in (sigmacx.FIXED, sigmacx.FREE)
                 for k, m in sorted(sigmacx.build_sigma_complex(
                     sigmacx.SigmaSpec(p, orbit_type)).differentials.items())]
        named += [(f"{name} {p} at {k}", m)
                  for name, make in (("tr", sigmacx.transfer_map), ("res", sigmacx.restriction_map),
                                     ("flip", sigmacx.involution_map))
                  for k, m in sorted(make(p).maps.items())]
        for name, m in named:
            digest.update(f"{name} {m.rows}x{m.cols} {sorted(m.items())}\n".encode())
            ordered.update(f"{name} {m.rows}x{m.cols} {list(m.items())}\n".encode())
        matrices += len(named)
        sigmacx.build_sigma_complex.cache_clear()
    return {"max_shift": DIGEST_SHIFT, "matrices": matrices, "sha256": digest.hexdigest(),
            "sha256_ordered": ordered.hexdigest()}


def digest(repo: Path) -> dict:
    _, proc = _timed([sys.executable, str(Path(__file__).resolve()), "--digest-one",
                      "--repo", str(repo)], repo, 900)
    if proc.returncode != 0:
        raise RuntimeError(f"--digest-one failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reach_once(shift: int, orbit_type: str, repo: Path) -> dict:
    """Build one complex and all its integral groups in this process."""
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    from worker import _calibrate  # the benchmark's fixed kernel

    from bredon.chaincx import all_cohomology
    from bredon.sigmacx import SigmaSpec, build_sigma_complex

    kernel = statistics.median(_calibrate()[1] for _ in range(3))
    start = time.process_time()
    c = build_sigma_complex.__wrapped__(SigmaSpec(shift, orbit_type))
    built = time.process_time()
    groups = all_cohomology(c)
    done = time.process_time()
    rendered = json.dumps({str(k): g.render() for k, g in sorted(groups.items())})
    return {"build_cpu_s": built - start, "h_cpu_s": done - built,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "kernel_cpu_s": kernel,
            "groups_sha256": hashlib.sha256(rendered.encode()).hexdigest()}


def check_once(suites: str, option: str, value: str, repo: Path) -> dict:
    """Run check suites through the command line's entry in this process."""
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    from worker import _calibrate  # the benchmark's fixed kernel

    from bredon.cli import main as bredon

    kernel = statistics.median(_calibrate()[1] for _ in range(3))
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = bredon(["check", *suites.split(), f"--{option}", value])
    return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
            "kernel_cpu_s": kernel, "exit_code": code,
            "summary": "; ".join(out.getvalue().splitlines())}


def _repeated(flag: list, repo: Path, keys: tuple, same: str) -> dict:
    """REPEAT fresh processes of this script with flag: the median and every
    value of each key, and the value of ``same``, which they must agree on."""
    runs = []
    for _ in range(REPEAT):
        _, proc = _timed([sys.executable, str(Path(__file__).resolve()), *flag,
                          "--repo", str(repo)], repo, 900)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(flag)} failed:\n{proc.stderr[-2000:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if len({r[same] for r in runs}) != 1:
        raise RuntimeError(f"the runs of {' '.join(flag)} disagree on {same}")
    row = {"repeat": REPEAT, same: runs[0][same]}
    for key in keys:
        row[key] = statistics.median(r[key] for r in runs)
        row[key + "_all"] = [r[key] for r in runs]
    return row


def reach(repo: Path) -> list:
    return [{"shift": shift, "orbit_type": orbit_type,
             **_repeated(["--reach-one", str(shift), orbit_type], repo,
                         ("build_cpu_s", "h_cpu_s", "peak_rss_mb", "kernel_cpu_s"),
                         "groups_sha256")}
            for shift, orbit_type in REACH]


def checks(repo: Path) -> list:
    return [{"suite": suites, option.replace("-", "_"): value,
             **_repeated(["--check-one", suites, option, str(value)], repo,
                         ("wall_s", "cpu_s", "kernel_cpu_s"), "summary")}
            for suites, option, value in CHECKS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=HERE,
                        help="the checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--reach-one", nargs=2, metavar=("SHIFT", "TYPE"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--check-one", nargs=3, metavar=("SUITES", "OPTION", "VALUE"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--digest-one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if args.reach_one:
        print(json.dumps(reach_once(int(args.reach_one[0]), args.reach_one[1], repo)))
        return 0
    if args.check_one:
        print(json.dumps(check_once(*args.check_one, repo)))
        return 0
    if args.digest_one:
        print(json.dumps(digest_once(repo)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    snapshot = {**_git_sha(repo), "machine": _machine(),
                "taken": time.strftime("%Y-%m-%dT%H:%M:%S")}
    snapshot["bench"] = bench(repo)
    snapshot["check_all"] = check_all(repo)
    snapshot["tier1"] = tier1(repo)
    snapshot["reach"] = reach(repo)
    snapshot["checks"] = checks(repo)
    snapshot["size"] = size(repo)
    snapshot["digest"] = digest(repo)
    snapshot["loadavg_after"] = os.getloadavg()
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
