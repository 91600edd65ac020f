"""Exact solution of linear Diophantine systems via the Smith normal form.

``A·x = b`` over the integers: with ``S = U·A·V`` diagonal, substitute
``y = V^{-1} x`` to get ``S·y = U·b`` — solvable iff each diagonal entry
divides its right-hand side (and zero rows have zero rhs).  The general
solution is ``x = x0 + lattice(kernel basis)``.

The dependence analyzer solves a reference pair's subscript equalities
with it: no solution proves independence for every parameter value
(coupled subscripts included), and the solution lattice is where the
loop bounds are then checked.  Exposed as public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .hnf import smith_normal_form
from .matrix import IMat


@dataclass(frozen=True)
class DiophantineSolution:
    """``x = particular + Z-combinations of basis`` solves ``A·x = b``."""

    particular: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    def sample(self, coefficients: Sequence[int]) -> tuple[int, ...]:
        if len(coefficients) != len(self.basis):
            raise ValueError(
                f"need {len(self.basis)} coefficients, got {len(coefficients)}"
            )
        out = list(self.particular)
        for c, vec in zip(coefficients, self.basis):
            for i, v in enumerate(vec):
                out[i] += int(c) * v
        return tuple(out)


def solve_diophantine(
    a: IMat, b: Sequence[int]
) -> DiophantineSolution | None:
    """All integer solutions of ``A·x = b``, or None when unsolvable."""
    b = [int(v) for v in b]
    if len(b) != a.nrows:
        raise ValueError(f"rhs size {len(b)} != {a.nrows} rows")
    s, u, v = smith_normal_form(a)
    ub = u.matvec(b)
    rank = min(s.shape)
    y = [0] * a.ncols
    for i in range(a.nrows):
        d = s[i, i] if i < rank else 0
        if d == 0:
            if ub[i] != 0:
                return None
            continue
        if ub[i] % d != 0:
            return None
        if i < a.ncols:
            y[i] = ub[i] // d
    x0 = v.matvec(y)
    basis = tuple(
        v.col(j)
        for j in range(a.ncols)
        if j >= rank or s[j, j] == 0
    )
    return DiophantineSolution(tuple(x0), basis)


def has_integer_solution(a: IMat, b: Sequence[int]) -> bool:
    return solve_diophantine(a, b) is not None
