"""Tests of the benchmark itself: every workload at a tiny size, through run.py.

Run with ``python -m pytest bench/test_bench.py`` from the repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _tiny(workload, seed, trace):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"digest ([0-9a-f]{64})", lines[-2]).group(1)
    return result, digest


def test_metric_names_and_counts():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in e2e + layers)
    assert len(e2e) <= 16 and len(layers) <= 128
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == METRICS
    assert sorted(WORKLOADS) == sorted(json.loads(run.EXPECTED.read_text()))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_seed_independent(workload):
    first, digest1 = _tiny(workload, 1, 0)
    second, digest2 = _tiny(workload, 2, 0)
    assert digest1 == digest2
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result, _ = _tiny(workload, 3, 1)
    assert result["correct"], result
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_tracer_wraps_names_imported_elsewhere():
    code = """
import bredon, bredon.cli
from bredon import abgrp, chaincx, formal, sigmacx
from bredon.tables import checks
from spans import Tracer
aliases = [(chaincx, "cohomology_at", abgrp), (chaincx, "cohomology_presentation", abgrp),
           (checks, "derive_weight1", formal), (sigmacx, "cohomology", chaincx),
           (bredon, "build_sigma_complex", sigmacx), (bredon, "smith_normal_form", abgrp)]
before = {name: getattr(home, name) for _, name, home in aliases}
Tracer().install()
for user, name, home in aliases:
    assert getattr(user, name) is getattr(home, name) is not before[name], name
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr


def test_gate_counts_changed_and_missing_groups():
    expected = {"groups": {"a": {"cells": 2, "digest": "x"}, "b": {"cells": 3, "digest": "y"}}}
    same = {"groups": {"a": {"cells": 2, "digest": "x", "not_ok": []},
                       "b": {"cells": 3, "digest": "y", "not_ok": ["(a=1): Z"]}}}
    assert run._gate(same, expected)[:2] == (5, 1)
    changed = {"groups": {"a": {"cells": 2, "digest": "z", "not_ok": []}}}
    assert run._gate(changed, expected)[:2] == (5, 5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
