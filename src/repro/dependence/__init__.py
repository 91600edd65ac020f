"""Data dependence analysis for affine loop nests.

Loop transformations must preserve every data dependence (paper Section
2.1); the optimizer asks two questions of this package:

1. *What dependences does a nest carry?* — :func:`analyze_nest` returns
   :class:`DependenceEdge` objects carrying exact distance vectors (for
   uniform dependences) and direction-vector sign patterns (always).
2. *Is a candidate loop transformation legal?* —
   :func:`repro.dependence.legality.transform_is_legal` checks that every
   dependence remains lexicographically positive after the transform.

Fast independence disproofs (GCD test, Banerjee bounds test) run first;
remaining pairs are resolved exactly on a small instantiation of the
parameters (``depth + 3`` per nest by default).  The small model does
*not* exhibit every direction pattern: ``B(2i, j) = B(3N + 2 - 2i, j)``
carries a dependence only for even N and none at N = 5, so its default
analysis misses the edge and a real run that vectorises on it returns
wrong data (a strict xfail in
``tests/dependence/test_small_model_witness.py``).
"""

from .vectors import DependenceEdge, Direction, direction_of, lex_positive
from .gcd_test import gcd_independent
from .dio_test import diophantine_independent
from .banerjee import banerjee_independent
from .analyzer import analyze_nest, analyze_pairwise
from .legality import transform_is_legal, transformed_distance

__all__ = [
    "DependenceEdge",
    "Direction",
    "direction_of",
    "lex_positive",
    "gcd_independent",
    "diophantine_independent",
    "banerjee_independent",
    "analyze_nest",
    "analyze_pairwise",
    "transform_is_legal",
    "transformed_distance",
]
