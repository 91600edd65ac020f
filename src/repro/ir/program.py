"""Whole programs: arrays + a sequence of nests (or a loop tree)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .arrays import ArrayDecl
from .nest import LoopNest
from .tree import LoopNode


@dataclass(frozen=True)
class Program:
    """A regular scientific code as the optimizer sees it.

    ``nests`` is the normalized (perfect-nest) form; ``trees`` optionally
    carries the original imperfect form for programs that need step (1)
    of the algorithm.  ``default_binding`` supplies concrete values for
    the parameters (array extent ``N`` etc.) used by execution and cost
    estimation unless overridden.
    """

    name: str
    arrays: tuple[ArrayDecl, ...]
    nests: tuple[LoopNest, ...]
    params: tuple[str, ...] = ()
    default_binding: tuple[tuple[str, int], ...] = ()
    trees: tuple[LoopNode, ...] = ()

    @staticmethod
    def make(
        name: str,
        arrays: Sequence[ArrayDecl],
        nests: Sequence[LoopNest],
        params: Sequence[str] = (),
        default_binding: Mapping[str, int] | None = None,
        trees: Sequence[LoopNode] = (),
    ) -> "Program":
        return Program(
            name,
            tuple(arrays),
            tuple(nests),
            tuple(params),
            tuple(sorted((default_binding or {}).items())),
            tuple(trees),
        )

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"no array named {name} in program {self.name}")

    def binding(self, overrides: Mapping[str, int] | None = None) -> dict[str, int]:
        b = dict(self.default_binding)
        if overrides:
            b.update(overrides)
        missing = [p for p in self.params if p not in b]
        if missing:
            raise ValueError(f"unbound parameters {missing} for {self.name}")
        return b

    def total_elements(self, binding: Mapping[str, int]) -> int:
        """The program's data size in elements — what the default memory
        budget (:meth:`MachineParams.memory_budget`) is a fraction of."""
        return sum(a.size(binding) for a in self.arrays)

    def total_array_bytes(self, overrides: Mapping[str, int] | None = None) -> int:
        b = self.binding(overrides)
        return sum(a.bytes(b) for a in self.arrays)

    def with_nests(self, nests: Sequence[LoopNest]) -> "Program":
        return replace(self, nests=tuple(nests))

    def nest(self, name: str) -> LoopNest:
        for n in self.nests:
            if n.name == name:
                return n
        raise KeyError(f"no nest named {name} in program {self.name}")

    def pretty(self) -> str:
        parts = [f"program {self.name}"]
        for a in self.arrays:
            parts.append(f"  declare {a}")
        for n in self.nests:
            parts.append(f"! nest {n.name} (weight {n.weight})")
            parts.append(n.pretty())
        return "\n".join(parts)
