"""Array declarations and affine array references ``L·I + o``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..linalg import IMat
from .affine import AffineExpr, Affinable


@dataclass(frozen=True)
class ArrayDecl:
    """An (out-of-core) array: a name and symbolic dimension extents.

    Dimension ``d`` holds indices ``0 .. extent_d - 1``; extents are affine
    in the program parameters (usually just ``N``).  All elements are
    8-byte float64, matching the paper's double-precision arrays.
    """

    name: str
    dims: tuple[AffineExpr, ...]
    element_size: int = 8

    @staticmethod
    def make(name: str, dims: Sequence[Affinable], element_size: int = 8) -> "ArrayDecl":
        return ArrayDecl(
            name, tuple(AffineExpr.of(d) for d in dims), element_size
        )

    @property
    def rank(self) -> int:
        return len(self.dims)

    def shape(self, binding: Mapping[str, int]) -> tuple[int, ...]:
        shape = tuple(d.evaluate(binding) for d in self.dims)
        if any(s <= 0 for s in shape):
            raise ValueError(f"array {self.name} has non-positive extent {shape}")
        return shape

    def size(self, binding: Mapping[str, int]) -> int:
        n = 1
        for s in self.shape(binding):
            n *= s
        return n

    def bytes(self, binding: Mapping[str, int]) -> int:
        return self.size(binding) * self.element_size

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(d) for d in self.dims)})"


@dataclass(frozen=True)
class ArrayRef:
    """A reference ``A(s_1, ..., s_m)`` with affine subscripts.

    The subscripts mix enclosing loop indices and symbolic parameters; the
    classic ``L·I + o`` decomposition is recovered per-nest by
    :meth:`access_matrix` / :meth:`offset_exprs` once the loop variable
    order is known.
    """

    array: ArrayDecl
    subscripts: tuple[AffineExpr, ...]

    def __post_init__(self):
        if len(self.subscripts) != self.array.rank:
            raise ValueError(
                f"{self.array.name} has rank {self.array.rank}, "
                f"got {len(self.subscripts)} subscripts"
            )

    @staticmethod
    def make(array: ArrayDecl, subscripts: Sequence[Affinable]) -> "ArrayRef":
        return ArrayRef(array, tuple(AffineExpr.of(s) for s in subscripts))

    @property
    def rank(self) -> int:
        return self.array.rank

    def access_matrix(self, loop_vars: Sequence[str]) -> IMat:
        """The ``m x k`` access matrix L with respect to the given loop
        variable order (outermost first)."""
        return IMat(
            [[s.coeff(v) for v in loop_vars] for s in self.subscripts]
        )

    def offset_exprs(self, loop_vars: Sequence[str]) -> tuple[AffineExpr, ...]:
        """The offset vector ``o`` — whatever remains after removing the
        loop-index terms (affine in parameters)."""
        loop_set = set(loop_vars)
        return tuple(s.drop(loop_set) for s in self.subscripts)

    def index(
        self, point: Mapping[str, int], binding: Mapping[str, int]
    ) -> tuple[int, ...]:
        """Concrete array index for a concrete iteration point."""
        env = dict(binding)
        env.update(point)
        return tuple(s.evaluate(env) for s in self.subscripts)

    def substituted(self, mapping: Mapping[str, AffineExpr]) -> "ArrayRef":
        return ArrayRef(
            self.array, tuple(s.substitute(mapping) for s in self.subscripts)
        )

    def __str__(self) -> str:
        return f"{self.array.name}({', '.join(str(s) for s in self.subscripts)})"
