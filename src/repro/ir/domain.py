"""A nest's iteration domain as int64 columns, and affine forms over it.

:func:`domain` expands the loops level by level into one ``(points,
depth)`` array (column ``k`` is loop ``k``'s variable, rows in loop
order); :func:`affine` evaluates subscripts, guards and bounds over it
as one integer matrix product.  The interpreter's loop order and the
bounds pass's images and domain sizes read it.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

import numpy as np

from .affine import AffineExpr


def affine(
    exprs: Sequence[AffineExpr],
    names: Sequence[str],
    points: np.ndarray,
    binding: Mapping[str, int],
) -> np.ndarray:
    """``exprs`` at every row of ``points`` (columns ``names``, any other
    name read from ``binding``) as a ``(rows, len(exprs))`` array."""
    coef = np.array([[e.coeff(v) for e in exprs] for v in names], np.int64)
    const = [
        e.const + sum(c * binding[k] for k, c in e.coeffs if k not in names)
        for e in exprs
    ]
    coef = coef.reshape(len(names), len(exprs))
    return points @ coef + np.array(const, np.int64)


def loop_range(loop, names, points, binding) -> tuple[np.ndarray, np.ndarray]:
    """``loop``'s ``(lo, hi)`` at every row of ``points`` (its enclosing
    variables ``names``)."""
    def ends(bounds):
        values = affine([b.expr for b in bounds], names, points, binding)
        return values, np.array([b.divisor for b in bounds], np.int64)

    (lows, ldiv), (highs, hdiv) = ends(loop.lowers), ends(loop.uppers)
    return (-(-lows // ldiv)).max(axis=1), (highs // hdiv).min(axis=1)


def domain(
    nest,
    binding: Mapping[str, int],
    windows: Mapping[str, tuple[int, int]] | None = None,
    pinned: Collection[str] = (),
) -> np.ndarray:
    """The nest's iteration points, clipped to tile ``windows``.  A
    ``pinned`` variable takes one value per row, the midpoint of its
    range there; rows where that range is empty are dropped."""
    points = np.zeros((1, 0), np.int64)
    for k, loop in enumerate(nest.loops):
        lo, hi = loop_range(loop, nest.loop_vars[:k], points, binding)
        if windows and loop.var in windows:
            wlo, whi = windows[loop.var]
            lo, hi = np.maximum(lo, wlo), np.minimum(hi, whi)
        trips = np.maximum(hi - lo + 1, 0)
        if loop.var in pinned:
            points, values = points[trips > 0], ((lo + hi) // 2)[trips > 0]
        else:  # row r's lo_r, lo_r + 1, …: a running count minus r's shift
            shift = np.repeat(np.cumsum(trips) - trips - lo, trips)
            points = np.repeat(points, trips, axis=0)
            values = np.arange(len(shift), dtype=np.int64) - shift
        points = np.column_stack((points, values))
    return points

