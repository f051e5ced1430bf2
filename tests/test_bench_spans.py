"""The traced benchmark's hooks still resolve against the package.

``bench/spans.py`` wraps named functions and methods of each layer and
counts the reduction engine's runs; its own tests lie outside the default
test paths, so a refactor that renames what it wraps is caught here.
"""

import importlib
import importlib.util
from pathlib import Path

from bredon import abgrp

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_is_callable():
    for group, (module_name, bindings) in _spans().SPAN_GROUPS.items():
        module = importlib.import_module(module_name)
        for binding in bindings:
            owner_name, _, attr = binding.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(getattr(owner, attr, None)), f"{group}: {module_name}.{binding}"


def test_reduction_counter_hooks_exist():
    assert callable(abgrp._Reduction.run)
    red = abgrp._Reduction(abgrp.IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    assert (red.m, red.n) == (2, 2)
    assert red.rows == [{0: 2, 1: 4}, {0: 6, 1: 8}] and red.pivots == []
