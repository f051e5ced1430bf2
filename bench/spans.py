"""Layer spans for the traced benchmark run.

The tracer wraps calls into each layer's public functions (module functions
and the methods named below) and keeps, per span group, the call count and
the self time: a span's duration minus the time its child spans cover.  The
wrappers replace every module attribute that refers to the wrapped function,
so callers that imported it by name (``chaincx.cohomology_at``,
``tables.checks.derive_weight1``, the ``bredon`` package re-exports) are
traced as well; ``install`` fails if a reference is left unwrapped.

Counters that repeat exactly come from the inputs and outputs of the same
calls: the reduction engine's input shape, nonzeros and pivots, which
reductions and cohomology requests repeat, how many complexes were built and
how many exact-sequence windows failed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# span group -> (module, bindings); a binding is "function" or "Class.method"
SPAN_GROUPS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "abgrp.diag": ("bredon.abgrp", ("snf_diagonal", "rank")),
    "abgrp.transform": ("bredon.abgrp", ("kernel_basis", "solve", "smith_normal_form",
                                         "cohomology_presentation")),
    "abgrp.rank_mod": ("bredon.abgrp", ("rank_mod",)),
    "abgrp.matmul": ("bredon.abgrp", ("IntegerMatrix.__matmul__",)),
    "abgrp.window": ("bredon.abgrp", ("cohomology_at", "mod_m_cohomology_at",
                                      "map_on_cohomology", "is_exact_at", "map_is_zero",
                                      "map_is_injective", "map_is_surjective",
                                      "map_is_multiplication_by")),
    "chaincx.cohomology": ("bredon.chaincx", ("cohomology", "all_cohomology")),
    "chaincx.validate": ("bredon.chaincx", ("validate", "ChainMap.validate")),
    "chaincx.induced": ("bredon.chaincx", ("induced_map", "check_cone_les")),
    "chaincx.cone": ("bredon.chaincx", ("cone", "cone_inclusion", "cone_projection")),
    "chaincx.chainmap": ("bredon.chaincx", ("ChainMap.compose", "ChainMap.add",
                                            "ChainMap.scale")),
    "sigmacx.build": ("bredon.sigmacx", ("build_sigma_complex",)),
    "sigmacx.maps": ("bredon.sigmacx", ("transfer_map", "restriction_map", "involution_map",
                                        "cone_identification")),
    "sigmacx.checks": ("bredon.sigmacx", ("weight0", "free_orbit_acyclicity",
                                          "transfer_restriction_check", "cone_tower_check")),
    "tables.lookup": ("bredon.tables", ("FixtureTable.lookup",)),
    "tables.closed_form": ("bredon.tables", ("bredon_point_closed_form", "weight0_closed_form",
                                             "weight1_closed_form", "weight_sigma_closed_form")),
    "tables.load": ("bredon.tables", ("load_table", "load_cells")),
    "formal.derive": ("bredon.formal", ("derive_weight1", "derive_weight_sigma")),
    "formal.solve_window": ("bredon.formal", ("solve_window",)),
}

LAYERS = ("abgrp", "chaincx", "sigmacx", "tables", "formal")

# (name, unit) of every per-layer metric, in the order the traced run prints them
METRICS: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("abgrp.diag_s", "s"), ("abgrp.diag_calls", "count"),
       ("abgrp.transform_s", "s"), ("abgrp.transform_calls", "count"),
       ("abgrp.window_s", "s"),
       ("abgrp.reductions", "count"), ("abgrp.reduced_nnz", "count"),
       ("abgrp.max_cols", "count"), ("abgrp.pivots", "count"),
       ("abgrp.repeat_ratio", "ratio"),
       ("abgrp.rank_mod_s", "s"), ("abgrp.rank_mod_calls", "count"),
       ("abgrp.matmul_s", "s"), ("abgrp.matmul_calls", "count"),
       ("chaincx.cohomology_s", "s"), ("chaincx.cohomology_calls", "count"),
       ("chaincx.repeat_ratio", "ratio"),
       ("chaincx.validate_s", "s"), ("chaincx.induced_s", "s"),
       ("chaincx.cone_s", "s"), ("chaincx.chainmap_s", "s"),
       ("sigmacx.build_s", "s"), ("sigmacx.builds", "count"),
       ("sigmacx.built_rank", "count"), ("sigmacx.maps_s", "s"),
       ("sigmacx.checks_s", "s"),
       ("tables.lookup_s", "s"), ("tables.lookups", "count"),
       ("tables.closed_form_s", "s"), ("tables.load_s", "s"),
       ("formal.derive_s", "s"), ("formal.derivations", "count"),
       ("formal.solve_window_s", "s"), ("formal.windows", "count"),
       ("formal.contradictions", "count"),
       ("trace.untraced_s", "s"), ("trace.overhead_ratio", "ratio")])


class BindingError(RuntimeError):
    """A traced function is still reachable through an unwrapped reference."""


class Tracer:
    """Self time and call counts per span group, plus exact counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_s = 0.0            # time inside outermost spans
        self._stack: List[List[float]] = []
        self._seen_reductions = set()
        self._seen_requests = {}    # (id(complex), degree, m) -> complex, kept alive
        self._build_misses = 0

    # -- spans ---------------------------------------------------------------
    def _wrap(self, group: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[group] += 1
                self_s[group] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_s += duration
            if after is not None:
                self._uncounted(after, args, kwargs, result)
            return result

        return traced

    def _uncounted(self, hook: Callable, *args):
        """Run a counter hook; its time counts as a child span of the caller."""
        start = time.perf_counter()
        hook(*args)
        spent = time.perf_counter() - start
        if self._stack:
            self._stack[-1][0] += spent
        else:
            self.top_s += spent

    # -- counter hooks -----------------------------------------------------
    def _on_reduction(self, red):
        items = frozenset((i, j, v) for i, row in enumerate(red.rows) for j, v in row.items())
        key = (red.m, red.n, len(items), hash(items))
        self.counts["reductions"] += 1
        self.counts["reduced_nnz"] += len(items)
        self.counts["max_cols"] = max(self.counts["max_cols"], red.n)
        if key in self._seen_reductions:
            self.counts["repeated_reductions"] += 1
        self._seen_reductions.add(key)

    def _on_cohomology(self, args, kwargs, result):
        c, degree = args[0], args[1]
        m = args[2] if len(args) > 2 else kwargs.get("m", 0)
        key = (id(c), degree, m)
        self.counts["cohomology_requests"] += 1
        if key in self._seen_requests:
            self.counts["repeated_requests"] += 1
        self._seen_requests[key] = c

    def _on_build(self, lru, args, kwargs, result):
        misses = lru.cache_info().misses
        if misses > self._build_misses:
            self._build_misses = misses
            self.counts["builds"] += 1
            self.counts["built_rank"] += result.total_rank()

    def _on_window(self, args, kwargs, result):
        if not result.ok:
            self.counts["contradictions"] += 1

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every binding of SPAN_GROUPS and count the reduction engine's runs."""
        sigmacx = importlib.import_module("bredon.sigmacx")
        hooks = {
            "cohomology": self._on_cohomology,
            "build_sigma_complex": functools.partial(self._on_build,
                                                     sigmacx.build_sigma_complex),
            "solve_window": self._on_window,
        }
        unwrapped = []
        for group, (module_name, bindings) in SPAN_GROUPS.items():
            module = importlib.import_module(module_name)
            for binding in bindings:
                owner_name, _, attr = binding.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapped = self._wrap(group, original, hooks.get(attr))
                if owner_name:
                    setattr(owner, attr, wrapped)
                else:
                    _rebind(original, wrapped)
                    unwrapped.append((binding, original))

        abgrp = importlib.import_module("bredon.abgrp")
        run, counts = abgrp._Reduction.run, self.counts

        @functools.wraps(run)
        def counted_run(red):
            self._uncounted(self._on_reduction, red)
            result = run(red)
            counts["pivots"] += len(red.pivots)
            return result

        abgrp._Reduction.run = counted_run
        for module in _modules():
            for attr, value in vars(module).items():
                for binding, original in unwrapped:
                    if value is original:
                        raise BindingError(
                            f"{module.__name__}.{attr} still refers to unwrapped {binding}")

    # -- results -------------------------------------------------------------
    def metrics(self, window_s: float, top_in_window_s: float) -> Dict[str, float]:
        """Every per-layer metric except the overhead ratio, which needs untraced passes."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for g, v in self_s.items() if g.startswith(layer + "."))
        for group in SPAN_GROUPS:
            out[f"{group}_s"] = self_s[group]
        for group in ("abgrp.diag", "abgrp.transform", "abgrp.rank_mod", "abgrp.matmul"):
            out[f"{group}_calls"] = calls[group]
        reductions, requests = counts["reductions"], counts["cohomology_requests"]
        out.update({
            "abgrp.reductions": reductions,
            "abgrp.reduced_nnz": counts["reduced_nnz"],
            "abgrp.max_cols": counts["max_cols"],
            "abgrp.pivots": counts["pivots"],
            "abgrp.repeat_ratio": counts["repeated_reductions"] / reductions if reductions else 0.0,
            "chaincx.cohomology_calls": requests,
            "chaincx.repeat_ratio": counts["repeated_requests"] / requests if requests else 0.0,
            "sigmacx.builds": counts["builds"],
            "sigmacx.built_rank": counts["built_rank"],
            "tables.lookups": calls["tables.lookup"],
            "formal.derivations": calls["formal.derive"],
            "formal.windows": calls["formal.solve_window"],
            "formal.contradictions": counts["contradictions"],
            "trace.untraced_s": window_s - top_in_window_s,
        })
        return out

    def group_calls(self) -> Dict[str, int]:
        counts = dict(self.calls)
        counts["abgrp.reduction"] = self.counts["reductions"]
        return counts


def _modules() -> List[types.ModuleType]:
    return [m for m in list(sys.modules.values()) if isinstance(m, types.ModuleType)]


def _rebind(original, wrapped):
    """Point every module attribute that refers to ``original`` at ``wrapped``."""
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
