"""Concrete file layouts and exact address maps.

``LinearLayout(D)`` stores element ``a`` at the file position given by the
row-major rank of ``t = D·a`` within the bounding box of the transformed
index domain — exactly the paper's non-singular data transformations.
``BlockedLayout`` stores the array as contiguous rectangular chunks (the
"blocked layout" of Figure 2, used by the hand-optimized ``h-opt``).

A linear map is affine, so over a flat element buffer the array is a
strided view (:meth:`AddressMap.view`) and a tile moves as a basic slice
of it; address computation, vectorized over numpy index arrays, is left
to blocked maps and unit-granular files.  Pricing a transfer needs only
the region's maximal contiguous file runs, which :meth:`AddressMap.runs`
derives from the region's box and the layout in O(runs) — the paper's
Figure 3, where a tile's call count follows from its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..linalg import IMat, unimodular_with_first_row
from .hyperplane import Hyperplane


class Layout:
    """Abstract file layout: maps array indices to file slots."""

    rank: int

    def address_map(self, shape: Sequence[int]) -> "AddressMap":
        """The exact map for one concrete shape — a function of the
        layout's value and the shape, so it is built once per pair (every
        rank and every array of a shared layout get the same object;
        an :class:`AddressMap` is never modified)."""
        if len(shape) != self.rank:
            raise ValueError(
                f"shape rank {len(shape)} != layout rank {self.rank}"
            )
        return _address_map(self, tuple(int(s) for s in shape))

    def _build_map(self, shape: tuple[int, ...]) -> "AddressMap":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def hyperplane(self) -> Hyperplane | None:
        """The locality hyperplane, when the layout has one."""
        return None


@lru_cache(maxsize=1024)
def _address_map(layout: Layout, shape: tuple[int, ...]) -> "AddressMap":
    return layout._build_map(shape)


_NO_LIMIT = np.int64(np.iinfo(np.int64).max)


def _outer_runs(terms) -> tuple[np.ndarray, np.ndarray]:
    """One run per combination of per-dimension entry coordinates.  A term
    is one dimension's 1-D (file-offset contribution, steps a run may take
    there — ``None``: no limit): offsets add and steps take the minimum,
    so both are outer combinations and no point is ever evaluated."""
    offsets, lengths = np.int64(0), _NO_LIMIT
    for contribution, steps in terms:
        offsets = np.add.outer(offsets, contribution)
        lengths = (
            lengths[..., None] if steps is None
            else np.minimum.outer(lengths, steps)
        )
    lengths = lengths + np.zeros(offsets.shape, dtype=np.int64)  # broadcast
    return offsets.ravel(), lengths.ravel()


class AddressMap:
    """Exact element-index → file-slot mapping for one concrete shape:
    ``address(x) = weights·x + origin``, and ``x + unit_step`` is the
    element stored right after ``x``."""

    #: ``(dimension, |weight|)``, lightest first, when each weight is at
    #: least the span of the lighter dimensions (a mixed-radix numeral)
    _radix: list[tuple[int, int]] | None = None

    def __init__(self, weights: np.ndarray, origin: int, total: int,
                 unit_step: Sequence[int], shape: Sequence[int]):
        self._weights = weights  # (m,) int64: strides · D
        self._origin = int(origin)
        self.total_slots = int(total)
        self._shape = tuple(shape)
        self._step = [int(s) for s in unit_step]
        # heaviest dimension outermost, so that a dimension-permutation
        # layout lists its entry points in file order (no sort)
        self._order = sorted(
            range(len(self._step)), key=lambda d: -abs(int(weights[d]))
        )
        radix = [(d, abs(int(weights[d])))
                 for d in reversed(self._order) if self._shape[d] > 1]
        if all(w >= v * self._shape[d]
               for (d, v), (_, w) in zip(radix, radix[1:])):
            self._radix = radix

    def address(self, indices: np.ndarray) -> np.ndarray:
        """File slots for indices of shape ``(..., m)`` → ``(...,)`` int64."""
        idx = np.asarray(indices, dtype=np.int64)
        return idx @ self._weights + self._origin

    def address_one(self, index: Sequence[int]) -> int:
        return int(self.address(np.asarray(index, dtype=np.int64)[None, :])[0])

    def view(self, flat: np.ndarray) -> np.ndarray | None:
        """The array as a strided view of ``flat``, the element buffer
        from the array's slot 0 on: a region is a basic slice of it (in
        row-major element order), and no address is computed."""
        return as_strided(
            flat[self._origin:], self._shape, self._weights * flat.itemsize
        )

    def extents(self, region: Sequence[tuple[int, int]]) -> int:
        """``runs(region)[0].size``.  Over a mixed-radix map the lightest
        dimensions merge into one extent while each weight equals the
        length merged so far; every heavier one multiplies the count."""
        sizes = [hi - lo + 1 for lo, hi in region]
        if min(sizes) <= 0:
            return 0
        if self._radix is None:
            return self.runs(region)[0].size
        count, merged = 1, 1
        for d, weight in self._radix:
            if weight == merged:
                merged *= sizes[d]
            else:
                merged = 0  # the first gap: every heavier extent counts
                count *= sizes[d]
        return count

    def runs(
        self, region: Sequence[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The maximal contiguous file runs ``(offsets, lengths)`` of an
        inclusive ``(lo, hi)``-per-dimension region, sorted by offset:
        exactly what sorting the address of every element and splitting
        at the gaps gives, in O(runs) instead of O(elements)."""
        if any(hi < lo for lo, hi in region):
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        offsets, lengths = self._entry_runs(region)
        if offsets.size > 1:
            gaps = offsets[1:] - offsets[:-1] - lengths[:-1]
            if gaps.min() < 0:  # disjoint runs overlap only when out of order
                order = np.argsort(offsets, kind="stable")
                offsets, lengths = offsets[order], lengths[order]
                gaps = offsets[1:] - offsets[:-1] - lengths[:-1]
            if not gaps.all():  # a line ends where the next begins: one run
                heads = np.flatnonzero(np.concatenate(([True], gaps != 0)))
                offsets, lengths = offsets[heads], np.add.reduceat(lengths, heads)
        return offsets, lengths

    def runs_many(
        self, regions: Sequence[Sequence[tuple[int, int]]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`runs` of every region, laid end to end: ``(offsets,
        lengths, counts)`` with ``counts`` runs per region.  A tile's runs
        are a function of where it lies: congruent regions (translates of
        one box — the interior tiles of a walk) have one run list, moved
        by the difference of their corners' addresses, so it is derived
        once per congruence class; only boundary-clipped boxes add one."""
        box = np.asarray(regions, dtype=np.int64).reshape(len(regions), -1, 2)
        lo, hi = box[..., 0], box[..., 1]
        first: dict[tuple, int] = {}  # congruence class -> its first region
        like = [
            first.setdefault(tuple(key), r)
            for r, key in enumerate(self._congruence(lo, hi).tolist())
        ]
        derived = {r: self.runs(regions[r]) for r in first.values()}
        offsets, lengths = (
            np.concatenate([derived[r][column] for r in like])
            for column in (0, 1)
        )
        counts = np.array([derived[r][0].size for r in like])
        corner = self.address(lo)
        return offsets + (corner - corner[like]).repeat(counts), lengths, counts

    def _congruence(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """One row per region, equal for regions whose runs differ by a
        constant: here, boxes of the same extents."""
        return hi - lo

    def _entry_runs(self, region) -> tuple[np.ndarray, np.ndarray]:
        """A run from each point where one enters the box.  File-consecutive
        elements differ by the unit step ``δ``, so these are the ``x`` with
        ``x − δ`` outside: a slab behind every face ``δ`` crosses, a point
        counted at the first face it lies behind; the run then takes the
        ``δ``-steps that every dimension allows."""
        box, parts = list(region), []
        for d, s in enumerate(self._step):
            if not s:
                continue
            lo, hi = region[d]
            box[d], rest = (
                ((lo, min(hi, lo + s - 1)), (lo + s, hi)) if s > 0
                else ((max(lo, hi + s + 1), hi), (lo, hi + s))
            )
            parts.append(_outer_runs(self._terms(region, box)))
            box[d] = rest
            if rest[0] > rest[1]:
                break  # every point lies behind this face
        offsets, lengths = (np.concatenate(p) for p in zip(*parts))
        return offsets + self._origin, lengths

    def _terms(self, region, box):
        for d in self._order:
            x, s = np.arange(box[d][0], box[d][1] + 1), self._step[d]
            far = region[d][1] if s > 0 else region[d][0]
            yield self._weights[d] * x, (far - x) // s + 1 if s else None


@dataclass(frozen=True)
class LinearLayout(Layout):
    """A non-singular (here: unimodular) data-space transformation ``D``."""

    d: IMat

    def __post_init__(self):
        if not self.d.is_square:
            raise ValueError("layout matrix must be square")
        if abs(self.d.det()) != 1:
            raise ValueError(
                f"layout matrix must be unimodular, det = {self.d.det()}"
            )

    @staticmethod
    def from_hyperplane(g: Sequence[int] | Hyperplane, rank: int | None = None) -> "LinearLayout":
        """Complete a layout hyperplane to a full layout.  Standard
        hyperplanes get their canonical completions (so ``(0,1)`` is
        exactly column-major)."""
        h = g if isinstance(g, Hyperplane) else Hyperplane.make(g)
        canon = {
            (1, 0): IMat([[1, 0], [0, 1]]),
            (0, 1): IMat([[0, 1], [1, 0]]),
            (1, -1): IMat([[1, -1], [0, 1]]),
            (1, 1): IMat([[1, 1], [0, 1]]),
        }
        if h.g in canon:
            return LinearLayout(canon[h.g])
        if rank is not None and h.rank != rank:
            raise ValueError(f"hyperplane rank {h.rank} != array rank {rank}")
        return LinearLayout(unimodular_with_first_row(h.g))

    @property
    def rank(self) -> int:
        return self.d.nrows

    @property
    def hyperplane(self) -> Hyperplane:
        return Hyperplane.make(self.d.row(0))

    def unit_step(self) -> tuple[int, ...]:
        """The index-space step between file-consecutive elements: the last
        column of ``D^-1`` (integral since ``D`` is unimodular)."""
        return self._unit_step

    @cached_property
    def _unit_step(self) -> tuple[int, ...]:
        # the exact inverse costs more than the rest of `address_map`,
        # which every rank calls for every array of a shared layout
        inv = self.d.inverse_unimodular()
        return inv.col(inv.ncols - 1)

    def _build_map(self, shape: tuple[int, ...]) -> AddressMap:
        m = self.rank
        rows = np.array(self.d.to_lists(), dtype=np.int64)
        his = np.asarray(shape, dtype=np.int64) - 1
        # index domain is the box [0, hi_d]; interval arithmetic per row of D
        t_min = np.minimum(rows * his, 0).sum(axis=1)
        t_max = np.maximum(rows * his, 0).sum(axis=1)
        extents = t_max - t_min + 1
        strides = np.ones(m, dtype=np.int64)
        for r in range(m - 2, -1, -1):
            strides[r] = strides[r + 1] * extents[r + 1]
        total = int(np.prod(extents))
        return AddressMap(
            strides @ rows, -(strides @ t_min), total, self.unit_step(), shape
        )

    def describe(self) -> str:
        return f"linear layout g={self.hyperplane.name}, D={self.d!r}"


class _BlockedAddressMap(AddressMap):
    def __init__(self, block: np.ndarray, shape: np.ndarray):
        self._block = block
        self._grid = -(-shape // block)  # ceil-div: blocks per dimension
        self._block_slots = int(np.prod(block))
        m = len(block)
        self._grid_strides = np.ones(m, dtype=np.int64)
        self._in_strides = np.ones(m, dtype=np.int64)
        for r in range(m - 2, -1, -1):
            self._grid_strides[r] = self._grid_strides[r + 1] * self._grid[r + 1]
            self._in_strides[r] = self._in_strides[r + 1] * block[r + 1]
        self.total_slots = int(np.prod(self._grid)) * self._block_slots

    def view(self, flat: np.ndarray) -> None:  # no strided view
        return None

    def address(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        b = idx // self._block
        w = idx - b * self._block
        return (b @ self._grid_strides) * self._block_slots + w @ self._in_strides

    def _congruence(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # same extents, the same way across the block grid
        return np.concatenate((hi - lo, lo % self._block), axis=1)

    def _entry_runs(self, region) -> tuple[np.ndarray, np.ndarray]:
        """Inside a block the last dimension is file-consecutive: runs
        enter at the region's low face and at every block boundary along
        the last dimension, and end with the region or the block."""
        terms = []
        for d, (lo, hi) in enumerate(region):
            size, steps = int(self._block[d]), None
            if d < len(region) - 1:
                x = np.arange(lo, hi + 1)
            else:
                boundaries = np.arange((lo // size + 1) * size, hi + 1, size)
                x = np.concatenate(([lo], boundaries))
                steps = np.minimum(hi, (x // size + 1) * size - 1) - x + 1
            b = x // size
            terms.append((
                b * (self._grid_strides[d] * self._block_slots)
                + (x - b * size) * self._in_strides[d],
                steps,
            ))
        return _outer_runs(terms)


@dataclass(frozen=True)
class BlockedLayout(Layout):
    """Chunked storage: the array is cut into ``block``-shaped tiles, each
    stored contiguously (row-major inside, blocks ordered row-major).

    Reading an aligned data tile is then *one* contiguous run — the
    mechanism behind the paper's hand-optimized chunking."""

    block: tuple[int, ...]

    def __post_init__(self):
        if not self.block or any(b <= 0 for b in self.block):
            raise ValueError(f"invalid block shape {self.block}")

    @property
    def rank(self) -> int:
        return len(self.block)

    def _build_map(self, shape: tuple[int, ...]) -> AddressMap:
        return _BlockedAddressMap(
            np.asarray(self.block, dtype=np.int64),
            np.asarray(shape, dtype=np.int64),
        )

    def describe(self) -> str:
        return f"blocked layout, chunk {self.block}"


def layout_from_direction(delta: Sequence[int]) -> LinearLayout:
    """The layout whose file-consecutive step is exactly ``delta``:
    ``D = C^{-1}`` for a unimodular ``C`` with last column ``delta``.

    Elementary directions get the canonical dimension-permutation layout
    (e.g. ``(1,0)`` → column-major, ``(0,1)`` → row-major); general
    directions get a completion-based skewed layout.
    """
    from ..linalg import primitive, unimodular_with_last_column

    delta = primitive(delta)
    m = len(delta)
    nz = [i for i, v in enumerate(delta) if v != 0]
    if len(nz) == 1 and delta[nz[0]] == 1:
        fast = nz[0]
        if fast == m - 1:
            return row_major(m)  # canonical: last index fastest
        if fast == 0:
            return col_major(m)  # canonical: first index fastest
        # middle fast dims: fast goes last, the others keep their Fortran
        # column-major relative order
        order = [d for d in range(m - 1, -1, -1) if d != fast] + [fast]
        rows = [[1 if c == order[r] else 0 for c in range(m)] for r in range(m)]
        return LinearLayout(IMat(rows))
    return LinearLayout(unimodular_with_last_column(delta).inverse_unimodular())


def row_major(rank: int = 2) -> LinearLayout:
    return LinearLayout(IMat.identity(rank))


def col_major(rank: int = 2) -> LinearLayout:
    rows = [[1 if j == rank - 1 - i else 0 for j in range(rank)] for i in range(rank)]
    return LinearLayout(IMat(rows))


def diagonal() -> LinearLayout:
    return LinearLayout.from_hyperplane((1, -1))


def antidiagonal() -> LinearLayout:
    return LinearLayout.from_hyperplane((1, 1))
