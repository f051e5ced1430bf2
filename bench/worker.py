"""One pass of one workload, in a fresh interpreter.

Started by ``run.py`` once per pass, so every pass starts cold: the complex
cache, the per-complex presentation caches and the fixture cache are empty,
as they are for every ``bredon`` invocation.  Prints one JSON object with the
pass's timings, its cells grouped for the output gate and, when traced, the
per-layer metrics.

Times are reported twice: as measured, and in reference seconds.  The host
this runs on is shared, and its speed drifts by up to 2x over seconds to
minutes.  So every CALIBRATE_EVERY_S of workload time, the pass stops its
clocks and times a fixed kernel that does not use ``bredon``.  The pass's
wall and CPU times are scaled by CALIBRATION_REF_S over the median kernel
wall and CPU time of the pass.  Set-up is scaled by the median of three
kernel runs right after it.

Usage: python3 bench/worker.py '<json request>'  (see run.py for the fields)
"""

import gc
import json
import random
import statistics
import sys
import time

CALIBRATE_EVERY_S = 0.25
CALIBRATION_REF_S = 0.01   # the kernel's time on the reference host


def _kernel() -> int:
    """Sparse elimination over dicts of ints mod a prime: the engine's mix of work."""
    rng = random.Random(7)
    n, prime = 90, 10007
    rows = [{j: rng.randrange(1, prime) for j in rng.sample(range(n), 6)} for _ in range(n)]
    live = list(range(n))
    for col in range(n):
        pivot = next((i for i in live if col in rows[i]), None)
        if pivot is None:
            continue
        live.remove(pivot)
        prow = rows[pivot]
        inv = pow(prow[col], -1, prime)
        for i in live:
            row = rows[i]
            c = row.get(col)
            if c:
                q = c * inv % prime
                for j, v in prow.items():
                    s = (row.get(j, 0) - q * v) % prime
                    if s:
                        row[j] = s
                    else:
                        row.pop(j, None)
    return len(live)


def _calibrate() -> tuple:
    """(wall, cpu) seconds of one kernel run.

    The cyclic collector is paused so that the kernel's time does not grow
    with the number of objects the workload keeps alive.
    """
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        _kernel()
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()


def main() -> int:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, req["src"])

    import hashlib
    import resource

    from bredon import tables
    from spans import Tracer
    from workloads import WORKLOADS, Cell

    workload = WORKLOADS[req["workload"]]
    tracer = None
    if req["traced"]:
        tracer = Tracer()
        tracer.install()
    fixtures = {name: tables.load_table(name) for name in workload.fixtures}
    fixtures.update({name: tables.load_cells(name) for name in workload.cell_fixtures})
    setup_s = time.monotonic() - req["launched"]
    kernel_s = statistics.median(_calibrate()[0] for _ in range(3))
    out = {"setup_s": setup_s, "setup_ref_s": setup_s * CALIBRATION_REF_S / kernel_s}
    if req["setup_only"]:
        print(json.dumps(out))
        return 0

    requests = workload.requests(req["size"], req["seed"], fixtures)
    size = workload.sizes[req["size"]]
    top_before = tracer.top_s if tracer else 0.0
    cells = []
    wall_s = cpu_s = 0.0
    kernels = [_calibrate()]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for k, request in enumerate(requests, start=1):
        try:
            cells.extend(workload.run(request, size, fixtures))
        except Exception as exc:  # a request that raises is a failed cell, not a lost pass
            cells.append(Cell("raised", repr(request), f"{type(exc).__name__}: {exc}", False))
        wall = time.perf_counter() - wall0
        if wall >= CALIBRATE_EVERY_S or k == len(requests):
            wall_s, cpu_s = wall_s + wall, cpu_s + time.process_time() - cpu0
            kernels.append(_calibrate())
            wall0, cpu0 = time.perf_counter(), time.process_time()
    kernel_wall = statistics.median(w for w, _ in kernels)
    kernel_cpu = statistics.median(c for _, c in kernels)

    groups = {}
    for cell in sorted(cells, key=lambda c: (c.group, c.key)):
        entry = groups.setdefault(cell.group, {"lines": [], "not_ok": []})
        entry["lines"].append(f"{cell.group}\t{cell.key}\t{cell.output}")
        if not cell.ok:
            entry["not_ok"].append(f"{cell.key}: {cell.output}")
    everything = "\n".join(line for g in groups.values() for line in g["lines"])
    out.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wall_ref_s": wall_s * CALIBRATION_REF_S / kernel_wall,
        "cpu_ref_s": cpu_s * CALIBRATION_REF_S / kernel_cpu,
        "kernel_wall_s": kernel_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": len(cells),
        "digest": hashlib.sha256(everything.encode()).hexdigest(),
        "groups": {name: {"cells": len(g["lines"]),
                          "digest": hashlib.sha256("\n".join(g["lines"]).encode()).hexdigest()[:16],
                          "not_ok": g["not_ok"]}
                   for name, g in groups.items()},
    })
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, tracer.top_s - top_before)
        out["group_calls"] = tracer.group_calls()
        out["counts"] = dict(tracer.counts)
        out["missing_calls"] = [g for g in workload.expect_calls
                                if not out["group_calls"].get(g)]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
