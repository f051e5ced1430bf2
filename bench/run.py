"""The bredon benchmark: one workload, measured end to end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload one after another, each in a fresh interpreter
(``worker.py``), single-threaded, until the next pass would end after S
seconds (at least MIN_PASSES passes).  The seed permutes the order of the
workload's independent requests and sets the passes' hash seed; no output
may depend on it.

Every cell of every pass is compared against the closed forms, and the
sorted rendered outputs of each cell group against ``expected.json``.  A
cell that fails either counts in ``failed``; the run then still prints its
result line but exits with code 1.

With ``--trace 0`` the result line carries the end-to-end metrics, medians
over the passes.  Times are in reference seconds: measured seconds scaled
by the host's speed, which each pass measures with a fixed calibration
kernel (see worker.py).  The results file keeps the times as measured too.
With ``--trace 1`` untraced and traced passes alternate: the per-layer
metrics are medians over the traced passes, and ``trace.overhead_ratio``
compares the two kinds.  A traced run fails when a
span group the workload must exercise records no call.

Each run writes a results file under ``.bench_results/`` with the machine and
load settings, every pass, and the metrics.  ``--size tiny`` runs the small
sizes the benchmark's tests use; ``--record`` stores the run's outputs as
the expected ones.  See README.md for the choice of workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
RESULTS = ROOT / ".bench_results"

MIN_PASSES = 3
SETUP_ONLY = 2        # extra set-up-only launches after each untraced pass
RUN_LIMIT_S = 170.0   # a run must end within 180 s
LOAD_SETTINGS = "one process, one thread, one run at a time, cold interpreter per run"
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"))


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def _launch(args, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker interpreter and return its JSON result."""
    request = {"src": str(SRC), "workload": args.workload, "size": args.size,
               "seed": args.seed, "traced": traced, "setup_only": setup_only}
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    env.pop("BREDON_FIXTURE_DIR", None)
    request["launched"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {args.workload} did not end within the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"a pass of {args.workload} exited with code {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def _passes(args) -> tuple:
    """Run passes until the next one would end after --seconds.

    Returns the passes and, for an untraced run, the set-up times: every
    pass's, plus SETUP_ONLY launches after each pass that stop once set-up
    is done.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kinds = [False, True] if args.trace else [False]
    minimum = 2 if args.trace else MIN_PASSES
    passes, setups, durations = [], [], {kind: [] for kind in kinds}
    while True:
        traced = kinds[len(passes) % len(kinds)]
        began = time.monotonic()
        passes.append(_launch(args, traced, deadline))
        if not args.trace:
            setups.append(passes[-1]["setup_ref_s"])
            setups.extend(_launch(args, False, deadline, setup_only=True)["setup_ref_s"]
                          for _ in range(SETUP_ONLY))
        durations[traced].append(time.monotonic() - began)
        nxt = kinds[len(passes) % len(kinds)]
        expect = statistics.median(durations[nxt] or durations[traced])
        if len(passes) >= minimum and time.monotonic() - start + expect > args.seconds:
            return passes, setups


def _gate(result: dict, expected: dict) -> tuple:
    """(attempted, failed, problems) of one pass against the recorded outputs."""
    want = expected.get("groups", {})
    got = result["groups"]
    attempted = failed = 0
    problems = []
    for name in sorted(set(want) | set(got)):
        g, w = got.get(name), want.get(name)
        n = max(g["cells"] if g else 0, w["cells"] if w else 0)
        attempted += n
        if g is None or w is None or (g["cells"], g["digest"]) != (w["cells"], w["digest"]):
            failed += n
            problems.append(f"{name}: {g['cells'] if g else 0} cells, digest "
                            f"{g['digest'] if g else None}; recorded {w}")
        else:
            failed += len(g["not_ok"])
            problems.extend(f"{name} {line}" for line in g["not_ok"][:5])
    return attempted, failed, problems


def _record(args, passes: list) -> dict:
    """Store the run's outputs as the expected ones; every cell must have passed."""
    first = passes[0]
    if any(g["not_ok"] for p in passes for g in p["groups"].values()):
        raise BenchError("refusing to record outputs: some cells failed their comparison")
    if len({p["digest"] for p in passes}) != 1:
        raise BenchError("refusing to record outputs: passes disagree")
    entry = {"cells": first["cells"], "digest": first["digest"],
             "groups": {name: {"cells": g["cells"], "digest": g["digest"]}
                        for name, g in first["groups"].items()}}
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded.setdefault(args.workload, {})[args.size] = entry
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return entry


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _metrics(args, passes: list, setups: list, attempted: int, failed: int) -> dict:
    from spans import METRICS

    plain = [p for p in passes if not p["traced"]]
    if not args.trace:
        values = {"wall_s": _median(plain, "wall_ref_s"), "cpu_s": _median(plain, "cpu_ref_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": _median(plain, "peak_rss_mb"),
                  "pass_ratio": (attempted - failed) / attempted}
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    traced = [p for p in passes if p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name, _ in METRICS if name != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = _median(traced, "wall_ref_s") / _median(plain, "wall_ref_s")
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}


def _source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bredon").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    if not (SRC / "bredon" / "__init__.py").is_file():
        print(f"bench: no bredon package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the expected ones")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    try:
        passes, setups = _passes(args)
        expected = (_record(args, passes) if args.record else
                    json.loads(EXPECTED.read_text()).get(args.workload, {}).get(args.size, {}))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    problems = []
    for p in passes:
        a, f, pr = _gate(p, expected)
        attempted, failed = attempted + a, failed + f
        problems.extend(pr)
    missing = sorted({g for p in passes if p["traced"] for g in p["missing_calls"]})
    problems += [f"span group {g} recorded no call" for g in missing]
    metrics = _metrics(args, passes, setups, attempted, failed)
    correct = failed == 0 and not missing

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "size": args.size,
        "parameters": workload.sizes[args.size],
        "trim": workload.trim if args.size == "full" else "",
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform(),
                    "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "load_settings": LOAD_SETTINGS,
        **_source_facts(),
        "passes": [{k: p[k] for k in ("traced", "setup_s", "setup_ref_s", "wall_s", "cpu_s",
                                      "wall_ref_s", "cpu_ref_s", "kernel_wall_s",
                                      "peak_rss_mb", "cells", "digest")}
                   | {"layers": p.get("layers"), "counts": p.get("counts")}
                   for p in passes],
        "correct": correct, "attempted": attempted, "failed": failed,
        "setup_ref_s": setups, "problems": problems[:50], "metrics": metrics,
    }, indent=1) + "\n")

    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    print(f"{args.workload} [{args.size}] seed {args.seed}: {len(passes)} passes, "
          f"{passes[0]['cells']} cells per pass, digest {passes[0]['digest']}, "
          f"median wall {_median(plain, 'wall_s'):.4f} s as measured "
          f"(kernel {_median(plain, 'kernel_wall_s'):.4f} s), results {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
