"""Immutable exact integer matrices.

``IMat`` stores entries as Python ints (arbitrary precision) in a tuple of
row tuples.  All operations are exact; the fraction-free Bareiss algorithm
computes determinants and adjugates without ever leaving the integers.
Matrices here are loop/data transformation matrices — tiny (rank 1..6) —
so O(n^3) exact algorithms are the right tool; numpy float linear algebra
would silently corrupt unimodularity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Row = tuple[int, ...]


class IMat:
    """An immutable integer matrix with exact arithmetic.

    Supports ``@`` (matrix and matrix-vector product), ``+``, ``-``,
    scalar ``*``, equality, hashing, and exact ``det`` / ``inverse``.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence[int]]):
        normalized = tuple(tuple(int(v) for v in row) for row in rows)
        if not normalized:
            raise ValueError("matrix must have at least one row")
        width = len(normalized[0])
        if width == 0 or any(len(r) != width for r in normalized):
            raise ValueError("ragged or empty rows in matrix literal")
        self.rows: tuple[Row, ...] = normalized
        self.nrows = len(normalized)
        self.ncols = width

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IMat":
        return IMat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "IMat":
        return IMat([[0] * ncols for _ in range(nrows)])

    @staticmethod
    def col_vector(vec: Sequence[int]) -> "IMat":
        return IMat([[int(v)] for v in vec])

    @staticmethod
    def diag(entries: Sequence[int]) -> "IMat":
        n = len(entries)
        return IMat(
            [[int(entries[i]) if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.rows[i][j]

    def row(self, i: int) -> Row:
        return self.rows[i]

    def col(self, j: int) -> Row:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> tuple[Row, ...]:
        return tuple(self.col(j) for j in range(self.ncols))

    def transpose(self) -> "IMat":
        return IMat(self.cols())

    @property
    def T(self) -> "IMat":
        return self.transpose()

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IMat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "IMat") -> "IMat":
        self._check_same_shape(other)
        return IMat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "IMat") -> "IMat":
        self._check_same_shape(other)
        return IMat(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "IMat":
        return IMat([[-v for v in r] for r in self.rows])

    def __mul__(self, scalar: int) -> "IMat":
        return IMat([[v * int(scalar) for v in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, IMat):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"shape mismatch: {self.shape} @ {other.shape}"
                )
            bt = other.cols()
            return IMat(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in bt]
                    for row in self.rows
                ]
            )
        # matrix @ vector
        vec = tuple(int(v) for v in other)
        if self.ncols != len(vec):
            raise ValueError(f"shape mismatch: {self.shape} @ vec({len(vec)})")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def matvec(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.__matmul__(vec)  # type: ignore[return-value]

    def vecmat(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Row-vector product ``vec @ self``."""
        vec = tuple(int(v) for v in vec)
        if len(vec) != self.nrows:
            raise ValueError(f"shape mismatch: vec({len(vec)}) @ {self.shape}")
        return tuple(
            sum(v * self.rows[i][j] for i, v in enumerate(vec))
            for j in range(self.ncols)
        )

    # -- exact solvers -------------------------------------------------------

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for swap in range(k + 1, n):
                    if m[swap][k] != 0:
                        m[k], m[swap] = m[swap], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.is_square and abs(self.det()) == 1

    def inverse_pair(self) -> tuple["IMat", int]:
        """Return ``(adj, d)`` with exact inverse ``adj / d`` (d = det != 0).

        The adjugate is computed by exact Gauss-Jordan over Fractions and
        rescaled — for rank <= 6 matrices this is plenty fast and avoids a
        hand-rolled cofactor expansion.
        """
        d = self.det()
        if d == 0:
            raise ValueError("matrix is singular")
        n = self.nrows
        aug = [
            [Fraction(v) for v in self.rows[i]]
            + [Fraction(1 if j == i else 0) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            pivot = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [v / pv for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        adj_rows = []
        for i in range(n):
            row = []
            for j in range(n):
                val = aug[i][n + j] * d
                if val.denominator != 1:
                    raise AssertionError("adjugate must be integral")
                row.append(val.numerator)
            adj_rows.append(row)
        return IMat(adj_rows), d

    def inverse_unimodular(self) -> "IMat":
        """Exact integer inverse — only valid when ``|det| == 1``."""
        adj, d = self.inverse_pair()
        if abs(d) != 1:
            raise ValueError(f"matrix has determinant {d}, not unimodular")
        return adj if d == 1 else -adj

    def inverse_fractions(self) -> list[list[Fraction]]:
        adj, d = self.inverse_pair()
        return [[Fraction(v, d) for v in row] for row in adj.rows]

    def _check_same_shape(self, other: "IMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"IMat[{body}]"


def identity(n: int) -> IMat:
    return IMat.identity(n)


def from_rows(rows: Iterable[Sequence[int]]) -> IMat:
    return IMat(rows)


def from_cols(cols: Iterable[Sequence[int]]) -> IMat:
    return IMat(cols).transpose()
