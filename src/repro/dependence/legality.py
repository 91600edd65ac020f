"""Legality of linear loop transformations against dependences.

A transformation ``T`` is legal for a nest iff every dependence distance
``d`` stays lexicographically positive after mapping: ``T·d ≻ 0`` (a
zero vector is fine — statement order within an iteration is untouched).

For *exact* edges the stored distance is the dependence's only one and
the check is exact.  Any other edge stores one sign vector per direction
pattern it realises for some parameter value; the candidate is verified
over each pattern with interval arithmetic (each ``<`` component ranges
over ``[1, ∞)``, each ``>`` over ``(-∞, -1]``), which is the classical
conservative direction-vector test.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..linalg import IMat
from .vectors import DependenceEdge, Direction, lex_positive

_INF = float("inf")


def transformed_distance(t: IMat, d: Sequence[int]) -> tuple[int, ...]:
    return t.matvec(d)


def _interval_for(direction: Direction) -> tuple[float, float]:
    if direction is Direction.LT:
        return (1.0, _INF)
    if direction is Direction.GT:
        return (-_INF, -1.0)
    return (0.0, 0.0)


def _row_interval(
    row: Sequence[int], dirs: Sequence[Direction]
) -> tuple[float, float]:
    lo = hi = 0.0
    for c, dr in zip(row, dirs):
        if c == 0:
            continue  # 0 * ±inf is NaN in float arithmetic; the term is 0
        a, b = _interval_for(dr)
        if c >= 0:
            lo += c * a
            hi += c * b
        else:
            lo += c * b
            hi += c * a
    return lo, hi


def _direction_pattern_legal(t: IMat, dirs: Sequence[Direction]) -> bool:
    """Conservatively check ``T d ≻ 0`` for all d matching the pattern."""
    if all(d is Direction.EQ for d in dirs):
        return True
    for row in t.rows:
        lo, hi = _row_interval(row, dirs)
        if lo > 0:
            return True  # strictly positive leading component
        if lo == 0 and hi == 0:
            continue  # identically zero: look at the next row
        return False  # could be negative (or sign-ambiguous) first
    return False  # all rows identically zero but pattern non-EQ


def transform_is_legal(t: IMat, edges: Iterable[DependenceEdge]) -> bool:
    """True iff ``T`` preserves all the given dependences."""
    for edge in edges:
        for d in edge.distances:
            if not lex_positive(transformed_distance(t, d)):
                return False
        if not edge.exact:
            for dirs in edge.directions:
                if not _direction_pattern_legal(t, dirs):
                    return False
    return True
