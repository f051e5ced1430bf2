"""Exact calculator for two-graded equivariant cohomology tables over a field.

Subpackages:

* ``abgrp``   -- Smith normal form and finitely generated abelian groups;
* ``chaincx`` -- bounded cochain complexes, cones, induced maps;
* ``sigmacx`` -- the orbit-combinatorial cycle complexes along the sign
  representation and the weight-0 computation engine;
* ``formal``  -- formal groups under field profiles and the exact-sequence
  deduction engine deriving the weight-1 and sign-weight tables;
* ``tables``  -- closed-form fixtures, comparison suites, rendering and
  export;
* ``cli``     -- the command-line interface.
"""

from .abgrp import FgAbelianGroup, IntegerMatrix, smith_normal_form
from .chaincx import ChainMap, CochainComplex
from .formal import FieldProfile, FormalGroup, PROFILES
from .sigmacx import SigmaSpec, build_sigma_complex, weight0

__all__ = [
    "FgAbelianGroup", "IntegerMatrix", "smith_normal_form",
    "ChainMap", "CochainComplex",
    "FieldProfile", "FormalGroup", "PROFILES",
    "SigmaSpec", "build_sigma_complex", "weight0",
]

__version__ = "0.1.0"
