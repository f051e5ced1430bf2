"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion; every comparison is exact (integer arithmetic, no tolerances).
"""

import random
import time

from bredon import abgrp, chaincx, sigmacx
from bredon.tables import checks

from conftest import (
    random_chain_map,
    random_complex,
    tensor,
    tensor_group,
    tor_group,
    two_primary_part,
)
from test_abgrp import assert_snf_contract

SEED = 1729


def _report(name: str, report) -> None:
    print(f"\n{report.summary()}")
    for cell in report.failures[:10]:
        print(f"  FAIL {cell.key}: got {cell.got}, expected {cell.expected}")
    assert report.passed, f"{name}: {len(report.failures)} failing cells"


def test_criterion_1_weight0_integral_grid():
    """Direct chain-level weight-0 groups match both closed forms on 425 cells."""
    start = time.time()
    report = checks.check_weight0_integral(p_max=8)
    elapsed = time.time() - start
    assert len(report.cells) == 17 * 25
    _report("criterion 1", report)
    print(f"  ({elapsed:.1f} s for the 425-cell grid)")
    assert elapsed < 120.0


def test_criterion_2_weight0_mod2_dual_path():
    """Mod-2 homology agrees with the universal-coefficient combination and the band table."""
    report = checks.check_weight0_mod2(p_max=8)
    assert len(report.cells) == 17 * 25
    _report("criterion 2", report)


def test_criterion_3_free_orbit_acyclicity():
    """The free-orbit complexes carry exactly one copy of the coefficients."""
    report = checks.check_free_orbit(p_max=8)
    _report("criterion 3", report)


def test_criterion_4_transfer_restriction_identities():
    """tr.res = 2 id and res.tr = id + involution, with induced maps classified."""
    report = checks.check_transfer(p_max=8)
    _report("criterion 4", report)


def test_criterion_5_cone_tower():
    """cone(transfer at p) matches the next shift for p <= 7, exactly at p = 1."""
    report = checks.check_cone_tower(p_max=7)
    _report("criterion 5", report)
    cn = chaincx.cone(sigmacx.transfer_map(1))
    assert cn.differential(-2).to_rows() == [[1, 1], [-1, -1]]
    assert cn.differential(-1).to_rows() == [[2, 2]]


def test_criterion_6_formal_derivations():
    """Derived weight-1 and sign-weight tables reproduce every stated entry, n <= 16."""
    _report("criterion 6 (weight 1)", checks.check_weight1_derived(n_max=16))
    _report("criterion 6 (sign weight)", checks.check_weight_sigma_derived(n_max=16))


def test_criterion_7_coincidence():
    """Quadratically closed mod-2 tables and the all-field weight-0 table
    coincide with the point tables."""
    _report("criterion 7", checks.check_qclosed_coincidence(n_max=16))


def test_criterion_8_property_suites():
    """1000 random Smith forms, 200 tensor products, 100 mapping cones."""
    rng = random.Random(SEED)
    for _ in range(1000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        matrix = abgrp.IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols)
        assert_snf_contract(matrix)
    print("\nPASS criterion 8a: 1000/1000 Smith normal forms match the minor-gcd oracle")

    for _ in range(200):
        c = random_complex(rng, max_deg=2, max_rank=3, emax=3)
        d = random_complex(rng, max_deg=2, max_rank=3, emax=3)
        t = tensor(c, d)
        chaincx.validate(t)
        lo, hi = t.support()
        c_lo, c_hi = c.support()
        for n in range(lo, hi + 1):
            lhs = chaincx.cohomology(t, n)
            summands = []
            for p in range(c_lo, c_hi + 1):
                hc = chaincx.cohomology(c, p)
                summands.append(tensor_group(hc, chaincx.cohomology(d, n - p)))
                summands.append(tor_group(hc, chaincx.cohomology(d, n - p + 1)))
            rhs = abgrp.FgAbelianGroup.zero().direct_sum(*summands)
            assert lhs.free_rank == rhs.free_rank, (n, lhs, rhs)
            assert two_primary_part(lhs) == two_primary_part(rhs), (n, lhs, rhs)
    print("PASS criterion 8b: 200/200 tensor products satisfy the product formula")

    for _ in range(100):
        f = random_chain_map(rng, random_complex(rng), random_complex(rng))
        assert chaincx.check_cone_les(f)
    print("PASS criterion 8c: 100/100 mapping-cone sequences are exact")
