"""The four benchmark workloads, as lists of independent requests.

Each workload turns a size into a list of requests, and each request into
cells: one comparison each, with the rendered output that the output gate
digests.  The seed only permutes the order of the requests; the cells they
produce must not depend on it.

The requests call the package's public functions directly.  The comparison
front ends (``bredon.cli`` and ``bredon.tables.checks``) are not used, so the
order of requests can be permuted and every cell's output recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from bredon import abgrp, formal, sigmacx, tables


@dataclass(frozen=True)
class Cell:
    group: str    # the output gate digests and counts cells per group
    key: str
    output: str   # rendered group (with the axiom trail on derive)
    ok: bool      # the comparison against the closed forms held


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Dict[str, dict]
    fixtures: Tuple[str, ...]        # tables read through tables.load_table
    cell_fixtures: Tuple[str, ...]   # cell lists read through tables.load_cells
    expect_calls: Tuple[str, ...]    # span groups a traced run must see called
    plan: Callable[[dict, dict], list]
    run: Callable[[tuple, dict, dict], List[Cell]]
    trim: str = ""                   # how the full size departs from the acceptance suite

    def requests(self, size: str, seed: int, fixtures: dict) -> list:
        reqs = self.plan(self.sizes[size], fixtures)
        random.Random(seed).shuffle(reqs)
        return reqs


# ---------------------------------------------------------------------------
# weight0-grid: every weight-0 cell, integral, mod 2 direct and through UCT
# ---------------------------------------------------------------------------

def _grid_plan(size: dict, fixtures: dict) -> list:
    p_max, a_max = size["p_max"], size["a_max"]
    return [(coeff, a, p) for coeff in ("Z", "Z/2")
            for p in range(-p_max, p_max + 1) for a in range(-a_max, a_max + 1)]


def _grid_run(req: tuple, size: dict, fixtures: dict) -> List[Cell]:
    coeff, a, p = req
    key = f"(a={a}, p={p})"
    if coeff == "Z":
        got = sigmacx.weight0(a, p, 0)
        expected, _ = fixtures["weight0_integral.json"].lookup(a, p)
        point = tables.bredon_point_closed_form(a, p, 0)
        return [Cell(f"Z p={p}", key, got.render(), got == expected == point)]
    direct = sigmacx.weight0(a, p, 2)
    uct = abgrp.tensor_Z2_group(sigmacx.weight0(a, p, 0)).direct_sum(
        abgrp.two_torsion_group(sigmacx.weight0(a + 1, p, 0)))
    expected, _ = fixtures["weight0_mod2.json"].lookup(a, p)
    return [Cell(f"Z/2 p={p}", key, direct.render(), direct == uct == expected)]


# ---------------------------------------------------------------------------
# free-orbit: acyclicity of the free-orbit complexes over Z and Z/2
# ---------------------------------------------------------------------------

def _free_plan(size: dict, fixtures: dict) -> list:
    return [(p, m) for p in range(-size["p_max"], size["p_max"] + 1) for m in (0, 2)]


def _verdict(check, *args) -> Tuple[str, bool]:
    try:
        check(*args)
    except sigmacx.CheckFailure as exc:
        return str(exc), False
    return "holds", True


def _free_run(req: tuple, size: dict, fixtures: dict) -> List[Cell]:
    p, m = req
    out, ok = _verdict(sigmacx.free_orbit_acyclicity, p, m)
    return [Cell(f"m={m}", f"(p={p}, m={m})", out, ok)]


# ---------------------------------------------------------------------------
# chain-maps: transfer/restriction identities and the cone tower
# ---------------------------------------------------------------------------

def _maps_plan(size: dict, fixtures: dict) -> list:
    return ([("transfer", p) for p in range(-size["p_max"], size["p_max"] + 1)]
            + [("cone", p) for p in range(0, size["cone_max"] + 1)])


def _maps_run(req: tuple, size: dict, fixtures: dict) -> List[Cell]:
    kind, p = req
    check = sigmacx.transfer_restriction_check if kind == "transfer" else sigmacx.cone_tower_check
    out, ok = _verdict(check, p)
    return [Cell(kind, f"(p={p})", out, ok)]


# ---------------------------------------------------------------------------
# derive: weight-1 and sign-weight derivations, coincidences, corner values
# ---------------------------------------------------------------------------

_DERIVATIONS = [(weight, profile, coeff, cones)
                for weight in ("1", "sigma")
                for profile, coeffs, cones in (
                    ("quadratically_closed", (0, 2), ("positive", "negative")),
                    ("euclidean", (0, 2), ("positive", "negative")),
                    ("formally_real", (0,), ("negative",)))
                for coeff in coeffs]


def _derive_plan(size: dict, fixtures: dict) -> list:
    n = size["n_max"]
    reqs = [("derive",) + d for d in _DERIVATIONS]
    for p in range(-n, n + 1):
        reqs += [("coincide", "1", p), ("coincide", "sigma", p),
                 ("1 vs sigma", p), ("weight 0 vs point", p)]
    reqs += [("corner", i) for i in range(len(fixtures["corner_values.json"]))]
    return reqs


def _formal_as_exact(g: formal.FormalGroup) -> abgrp.FgAbelianGroup:
    """A formal group of Z and Z/2 atoms only, as an exact group."""
    orders = []
    for atom in g.atoms:
        if atom.kind not in ("Z", "Z2"):
            raise ValueError(f"formal group {g} is not fully resolved")
        orders.append(0 if atom.kind == "Z" else 2)
    return abgrp.FgAbelianGroup.from_cyclic_orders(orders)


def _closed_form(weight: str):
    return tables.weight1_closed_form if weight == "1" else tables.weight_sigma_closed_form


def _derived_cells(weight, profile_name, coeff, cones, n_max) -> List[Cell]:
    profile = formal.get_profile(profile_name)
    deriver = formal.derive_weight1 if weight == "1" else formal.derive_weight_sigma
    closed = _closed_form(weight)
    derived = deriver(profile, n_max, coeff=coeff)
    cells = []
    for cone in cones:
        table = derived[cone]
        group = f"{weight}/{profile_name}/{coeff}/{cone}"
        shifts = [p for p in table.derived_shifts()
                  if (p >= 0 if cone == "positive" else p <= 0)]
        if max((abs(p) for p in shifts), default=-1) < n_max:
            cells.append(Cell(group, "columns", "; ".join(table.notes[-2:]), False))
            continue
        for p in shifts:
            for a in range(-n_max - 2, n_max + 3):
                entry = table.entry(a, p)
                key = f"(a={a}, p={p})"
                if entry.group is None:
                    cells.append(Cell(group, key, entry.note, False))
                    continue
                expected = closed(a, p, coeff=coeff, profile=profile)
                ok = entry.group == expected and (entry.group.is_zero() or bool(entry.trail))
                cells.append(Cell(group, key,
                                  f"{entry.group.render()} [{', '.join(entry.trail)}]", ok))
    return cells


def _derive_run(req: tuple, size: dict, fixtures: dict) -> List[Cell]:
    kind, n = req[0], size["n_max"]
    if kind == "derive":
        return _derived_cells(*req[1:], n)
    if kind == "corner":
        cell = fixtures["corner_values.json"][req[1]]
        coeff = 0 if cell["coeff"] == "Z" else 2
        got = _closed_form(cell["weight"])(cell["a"], cell["p"], coeff=coeff,
                                           profile=formal.get_profile("general"))
        key = f"{cell['weight']} (a={cell['a']}, p={cell['p']}, {cell['coeff']})"
        return [Cell("corner", key, got.render(), got.render() == cell["group"])]
    qclosed = formal.get_profile("quadratically_closed")
    p, cells = req[-1], []
    if kind == "coincide":
        for a in range(-n - 2, n + 3):
            got = _formal_as_exact(_closed_form(req[1])(a, p, coeff=2, profile=qclosed))
            expected = tables.bredon_point_closed_form(a, p, 2)
            cells.append(Cell(f"{kind} {req[1]}", f"(a={a}, p={p})", got.render(),
                              got == expected))
    elif kind == "1 vs sigma":
        for a in range(-n - 2, n + 3):
            one = tables.weight1_closed_form(a, p, coeff=2, profile=qclosed)
            sig = tables.weight_sigma_closed_form(a, p, coeff=2, profile=qclosed)
            cells.append(Cell(kind, f"(a={a}, p={p})", one.render(), one == sig))
    else:
        for a in range(-n - 4, n + 5):
            got = tables.weight0_closed_form(a, p, 0)
            expected = tables.bredon_point_closed_form(a, p, 0)
            cells.append(Cell(kind, f"(a={a}, p={p})", got.render(), got == expected))
    return cells


# ---------------------------------------------------------------------------

_MATRIX_SPANS = ("abgrp.diag", "abgrp.matmul", "abgrp.reduction",
                 "chaincx.cohomology", "sigmacx.build")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "weight0-grid",
        sizes={"full": {"p_max": 7, "a_max": 12}, "tiny": {"p_max": 3, "a_max": 12}},
        fixtures=("weight0_integral.json", "weight0_mod2.json", "point_integral.json"),
        cell_fixtures=(),
        expect_calls=_MATRIX_SPANS + ("abgrp.rank_mod", "tables.lookup", "tables.closed_form"),
        plan=_grid_plan, run=_grid_run,
        trim="top shift |p| = 8 dropped: the acceptance grid at |p| <= 8 takes about 30 s a pass"),
    Workload(
        "free-orbit",
        sizes={"full": {"p_max": 7}, "tiny": {"p_max": 3}},
        fixtures=(), cell_fixtures=(),
        expect_calls=_MATRIX_SPANS + ("abgrp.rank_mod",),
        plan=_free_plan, run=_free_run),
    Workload(
        "chain-maps",
        sizes={"full": {"p_max": 7, "cone_max": 6}, "tiny": {"p_max": 3, "cone_max": 3}},
        fixtures=(), cell_fixtures=(),
        expect_calls=_MATRIX_SPANS + ("abgrp.transform", "chaincx.validate",
                                      "chaincx.induced", "chaincx.cone", "sigmacx.maps"),
        plan=_maps_plan, run=_maps_run,
        trim="top transfer shift |p| = 8 dropped: with it a pass takes about 11 s"),
    Workload(
        "derive",
        sizes={"full": {"n_max": 16}, "tiny": {"n_max": 4}},
        fixtures=("weight1_integral.json", "weight1_mod2.json",
                  "weight_sigma_integral.json", "weight_sigma_mod2.json",
                  "point_integral.json", "point_mod2.json", "weight0_integral.json"),
        cell_fixtures=("corner_values.json",),
        expect_calls=("formal.derive", "formal.solve_window", "tables.lookup",
                      "tables.closed_form"),
        plan=_derive_plan, run=_derive_run),
)}
