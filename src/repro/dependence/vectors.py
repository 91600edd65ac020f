"""Dependence distance/direction vectors."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class Direction(Enum):
    """Sign of one distance component (``<`` means the sink iteration is
    strictly later in that loop, Wolfe's convention)."""

    LT = "<"   # distance > 0
    EQ = "="   # distance == 0
    GT = ">"   # distance < 0

    @staticmethod
    def of(value: int) -> "Direction":
        if value > 0:
            return Direction.LT
        if value < 0:
            return Direction.GT
        return Direction.EQ


def direction_of(distance: Sequence[int]) -> tuple[Direction, ...]:
    return tuple(Direction.of(v) for v in distance)


def lex_positive(vec: Sequence[int]) -> bool:
    """True iff the first non-zero component is positive (or all zero —
    a loop-independent dependence, always preserved by statement order)."""
    for v in vec:
        if v != 0:
            return v > 0
    return True


@dataclass(frozen=True)
class DependenceEdge:
    """A dependence between two statements of one nest on one array.

    ``kind`` is flow (write→read), anti (read→write) or output
    (write→write).  When ``exact`` (a uniform dependence with one
    integer distance) ``distances`` holds that sink-minus-source
    iteration vector; otherwise it holds one sign vector (±1/0) per
    direction pattern the dependence realises for some parameter value.
    """

    array: str
    src_stmt: int
    dst_stmt: int
    kind: str
    distances: frozenset[tuple[int, ...]]
    exact: bool = False

    def __post_init__(self):
        if self.kind not in ("flow", "anti", "output"):
            raise ValueError(f"bad dependence kind {self.kind!r}")

    @property
    def directions(self) -> frozenset[tuple[Direction, ...]]:
        return frozenset(direction_of(d) for d in self.distances)

    @property
    def loop_carried(self) -> bool:
        return any(any(v != 0 for v in d) for d in self.distances)

    def carried_at_level(self, level: int) -> bool:
        """True if some distance has its first non-zero at ``level``."""
        for d in self.distances:
            nz = next((i for i, v in enumerate(d) if v != 0), None)
            if nz == level:
                return True
        return False

    def __str__(self) -> str:
        ds = sorted(self.distances)
        shown = ", ".join(str(d) for d in ds[:4]) + ("…" if len(ds) > 4 else "")
        return (
            f"{self.kind} dep on {self.array}: S{self.src_stmt}->S{self.dst_stmt} "
            f"distances {{{shown}}}"
        )
