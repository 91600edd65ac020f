"""Shared by the symbolic-runs tests: hypothesis draws of a layout of
every kind the repo ships, a small shape of its rank and a region of it,
and the exact comparison of two run decompositions."""

from math import gcd

import numpy as np
from hypothesis import strategies as st

from repro.layout import (
    BlockedLayout,
    LinearLayout,
    antidiagonal,
    col_major,
    diagonal,
    layout_from_direction,
    row_major,
)
from repro.linalg import IMat


@st.composite
def _random_unimodular(draw, rank):
    """A product of elementary row operations on the identity."""
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(draw(st.integers(0, 5)) if rank > 1 else 0):
        i = draw(st.integers(0, rank - 1))
        j = draw(st.integers(0, rank - 2))
        j += j >= i  # a row other than i
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add":
            k = draw(st.integers(-2, 2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return LinearLayout(IMat(rows))


@st.composite
def _skewed_direction(draw, rank):
    delta = draw(
        st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(
            lambda d: sum(1 for v in d if v) >= 2 and gcd(*d) == 1
        )
    )
    return layout_from_direction(delta)


def layouts(rank):
    kinds = [
        st.just(row_major(rank)),
        st.just(col_major(rank)),
        # any single fast dimension, the middle ones included
        st.integers(0, rank - 1).map(
            lambda k: layout_from_direction([int(d == k) for d in range(rank)])
        ),
        _random_unimodular(rank),
        # blocks that need not divide the shape
        st.lists(st.integers(1, 4), min_size=rank, max_size=rank).map(
            lambda b: BlockedLayout(tuple(b))
        ),
    ]
    if rank == 2:
        kinds += [st.just(diagonal()), st.just(antidiagonal())]
    if rank >= 2:
        kinds.append(_skewed_direction(rank))
    return st.one_of(kinds)


@st.composite
def _interval(draw, extent):
    kind = draw(st.sampled_from(["full", "point", "any"]))
    if kind == "full":  # full-width: lines merge across the wrap
        return (0, extent - 1)
    lo = draw(st.integers(0, extent - 1))
    return (lo, lo if kind == "point" else draw(st.integers(lo, extent - 1)))


@st.composite
def map_cases(draw):
    """``(layout, shape, region)`` over ranks 1–4."""
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(rank))
    region = tuple(draw(_interval(s)) for s in shape)
    return draw(layouts(rank)), shape, region


def assert_same_runs(got, want):
    """Same offsets, same lengths, same order, ``int64`` — no tolerance."""
    for mine, theirs in zip(got, want):
        assert mine.dtype == np.int64
        np.testing.assert_array_equal(mine, theirs)
