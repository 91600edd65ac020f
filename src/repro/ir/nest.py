"""Perfectly nested affine loops — the unit the optimizer works on."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from ..linalg import ConstraintSystem, IMat
from .arrays import ArrayRef
from .domain import domain
from .loops import Loop
from .statements import Statement


@dataclass(frozen=True)
class LoopNest:
    """A perfect nest: loops (outermost first) around a straight-line body.

    ``params`` are the symbolic constants usable in bounds and subscripts
    (e.g. ``("N",)``).  ``weight`` is the number of outer timing-loop
    iterations this nest executes per program run (paper Table 1's *iter*);
    it scales the nest's cost but is not part of the iteration space.
    """

    name: str
    loops: tuple[Loop, ...]
    body: tuple[Statement, ...]
    params: tuple[str, ...] = ()
    weight: int = 1

    @staticmethod
    def make(
        name: str,
        loops: Sequence[Loop],
        body: Sequence[Statement],
        params: Sequence[str] = (),
        weight: int = 1,
    ) -> "LoopNest":
        return LoopNest(name, tuple(loops), tuple(body), tuple(params), weight)

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    def arrays(self) -> set[str]:
        return {name for s in self.body for name in s.arrays()}

    def refs(self) -> Iterator[tuple[int, ArrayRef, bool]]:
        """Yield ``(statement_index, ref, is_write)`` for all references
        (a nest is a value: they are listed once, however often asked)."""
        return iter(self._refs)

    @cached_property
    def _refs(self) -> tuple[tuple[int, ArrayRef, bool], ...]:
        return tuple(
            (i, ref, w) for i, s in enumerate(self.body) for ref, w in s.all_refs()
        )

    def refs_to(self, array_name: str) -> list[tuple[ArrayRef, bool]]:
        return [
            (r, w) for _, r, w in self.refs() if r.array.name == array_name
        ]

    def access_matrix(self, ref: ArrayRef) -> IMat:
        return ref.access_matrix(self.loop_vars)

    def constraint_system(self) -> ConstraintSystem:
        """The iteration polytope as linear inequalities (bound divisors are
        cleared exactly by scaling)."""
        sys = ConstraintSystem(self.loop_vars, params=self.params)
        for loop in self.loops:
            for b in loop.lowers:
                # var >= expr/div  =>  div*var - expr >= 0
                coeffs = {loop.var: b.divisor}
                for k, v in b.expr.coeffs:
                    coeffs[k] = coeffs.get(k, 0) - v
                sys.add_ineq(coeffs, -b.expr.const)
            for b in loop.uppers:
                coeffs = {loop.var: -b.divisor}
                for k, v in b.expr.coeffs:
                    coeffs[k] = coeffs.get(k, 0) + v
                sys.add_ineq(coeffs, b.expr.const)
        return sys

    def iterate(
        self,
        binding: Mapping[str, int],
        windows: Mapping[str, tuple[int, int]] | None = None,
    ) -> Iterator[dict[str, int]]:
        """Enumerate iteration points in loop order as variable bindings,
        clipped to tile ``windows`` when given."""
        names = self.loop_vars
        for row in domain(self, binding, windows).tolist():
            yield dict(zip(names, row))

    def _midpoint_trips(
        self,
        binding: Mapping[str, int],
        windows: Mapping[str, tuple[int, int]] | None = None,
    ) -> Iterator[int]:
        """Each loop's trip count, outermost first, with the enclosing
        variables pinned at their range midpoints; ``windows`` clips
        the named variables' ranges to a tile's windows."""
        env = dict(binding)
        for loop in self.loops:
            lo, hi = loop.eval_range(env)
            if windows and loop.var in windows:
                wlo, whi = windows[loop.var]
                lo, hi = max(lo, wlo), min(hi, whi)
            yield max(0, hi - lo + 1)
            env[loop.var] = (lo + hi) // 2

    def estimated_iterations(
        self,
        binding: Mapping[str, int],
        windows: Mapping[str, tuple[int, int]] | None = None,
    ) -> int:
        """Cheap trip-count product estimate (outer vars pinned at their
        range midpoints) of the whole nest, or of the tile ``windows``
        cuts out of it — used by the cost models and the simulate-mode
        compute charge, never for semantics."""
        return math.prod(self._midpoint_trips(binding, windows))

    def innermost_trip(self, binding: Mapping[str, int]) -> int:
        """The innermost loop's trip count under the same midpoint
        pinning (at least 1) — the run length the cost models divide
        by."""
        trip = 1
        for trip in self._midpoint_trips(binding):
            pass
        return max(1, trip)

    def with_body(self, body: Sequence[Statement]) -> "LoopNest":
        return replace(self, body=tuple(body))

    def with_loops(self, loops: Sequence[Loop]) -> "LoopNest":
        return replace(self, loops=tuple(loops))

    def pretty(self, indent: str = "  ") -> str:
        lines = []
        for d, loop in enumerate(self.loops):
            lines.append(indent * d + str(loop))
        for stmt in self.body:
            lines.append(indent * self.depth + str(stmt))
        for d in range(self.depth - 1, -1, -1):
            lines.append(indent * d + "end do")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"<nest {self.name}: depth {self.depth}, {len(self.body)} stmts>"
