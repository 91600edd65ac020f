"""Data dependence analysis for affine loop nests.

Loop transformations must preserve every data dependence (paper Section
2.1); the optimizer asks two questions of this package:

1. *What dependences does a nest carry?* — :func:`analyze_nest` returns
   :class:`DependenceEdge` objects, one per (array, source, sink, kind):
   the exact distance of a uniform dependence, a sign vector per
   direction pattern otherwise.  The patterns are those realised for
   some value of the parameters (:func:`meeting_directions`, one exact
   integer solve and a Fourier–Motzkin check per pattern), so an edge is
   a property of the nest, not of a binding.
2. *Is a candidate loop transformation legal?* —
   :func:`repro.dependence.legality.transform_is_legal` checks that every
   dependence remains lexicographically positive after the transform.
"""

from .vectors import DependenceEdge, Direction, direction_of, lex_positive
from .analyzer import analyze_nest, meeting_directions
from .legality import transform_is_legal, transformed_distance

__all__ = [
    "DependenceEdge",
    "Direction",
    "direction_of",
    "lex_positive",
    "analyze_nest",
    "meeting_directions",
    "transform_is_legal",
    "transformed_distance",
]
