"""The traced benchmark's hooks still resolve against the package.

``bench/spans.py`` wraps named functions and methods of each layer and
counts the reduction engine's runs; its own tests lie outside the default
test paths, so a refactor that renames what it wraps is caught here.
"""

import importlib
import importlib.util
from pathlib import Path

import bredon
from bredon import abgrp, chaincx, formal, sigmacx
from bredon.tables import checks

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


def test_names_imported_elsewhere_are_the_home_objects():
    # the tracer rebinds every reference to a wrapped function, so these
    # aliases must stay plain re-imports of the same objects
    aliases = [(chaincx, "cohomology_at", abgrp), (chaincx, "cohomology_presentation", abgrp),
               (sigmacx, "cohomology", chaincx), (checks, "derive_weight1", formal),
               (bredon, "build_sigma_complex", sigmacx), (bredon, "smith_normal_form", abgrp)]
    for user, name, home in aliases:
        assert getattr(user, name) is getattr(home, name), f"{user.__name__}.{name}"
