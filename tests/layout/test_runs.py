"""``AddressMap.runs`` — a region's contiguous file runs derived from its
box and the layout — against the enumerating oracle: the address of
every element, sorted and split at the gaps.  Exact: same offsets, same
lengths, same order, ``int64``."""

import pytest
from hypothesis import given, settings

from repro.layout import (
    BlockedLayout,
    antidiagonal,
    col_major,
    diagonal,
    layout_from_direction,
    row_major,
)
from repro.runtime.ooc_array import _region_indices, runs_of

from .strategies import assert_same_runs, map_cases


def assert_runs_match_enumeration(amap, region):
    got = amap.runs(region)
    assert_same_runs(got, runs_of(amap.address(_region_indices(region))))
    return got


@settings(max_examples=600, deadline=None)
@given(map_cases())
def test_runs_equal_enumerated_decomposition(case):
    layout, shape, region = case
    assert_runs_match_enumeration(layout.address_map(shape), region)


NAMED_LAYOUTS = {
    "row": row_major(2),
    "col": col_major(2),
    "diagonal": diagonal(),
    "antidiagonal": antidiagonal(),
    "blocked-3x4": BlockedLayout((3, 4)),
}


@pytest.mark.parametrize("name", sorted(NAMED_LAYOUTS))
@pytest.mark.parametrize(
    "region",
    [
        ((2, 2), (3, 3)),  # a single element
        ((0, 6), (0, 8)),  # the full array
        ((1, 4), (0, 8)),  # full-width rows
        ((0, 6), (2, 5)),  # full-height columns
        ((3, 2), (0, 8)),  # empty
        ((5, 2), (4, 1)),  # empty, by more than one
    ],
)
def test_named_regions(name, region):
    amap = NAMED_LAYOUTS[name].address_map((7, 9))
    offsets, lengths = assert_runs_match_enumeration(amap, region)
    if region[0][1] < region[0][0]:
        assert offsets.size == 0 and lengths.size == 0


def test_full_width_lines_merge_across_the_wrap():
    # rows 1..4 of a row-major 7x9 array: four lines, one 36-element run
    offsets, lengths = row_major(2).address_map((7, 9)).runs(((1, 4), (0, 8)))
    assert offsets.tolist() == [9] and lengths.tolist() == [36]


def test_figure3_call_counts_follow_from_the_tile_shape():
    # a 4x16 tile of a column-major file is 16 runs of 4 because of its
    # shape; the same tile of a row-major file is 4 runs of 16
    tile = ((0, 3), (0, 15))
    _, col_len = col_major(2).address_map((64, 64)).runs(tile)
    _, row_len = row_major(2).address_map((64, 64)).runs(tile)
    assert col_len.tolist() == [4] * 16
    assert row_len.tolist() == [16] * 4


def test_middle_fast_dimension_rank3():
    amap = layout_from_direction((0, 1, 0)).address_map((4, 5, 3))
    offsets, lengths = assert_runs_match_enumeration(
        amap, ((1, 2), (1, 3), (0, 2))
    )
    # one run per (i, k) line along the middle dimension
    assert lengths.tolist() == [3] * 6


def test_aligned_tile_of_a_blocked_layout_is_one_run():
    amap = BlockedLayout((4, 4)).address_map((10, 10))
    offsets, lengths = amap.runs(((4, 7), (4, 7)))
    assert lengths.tolist() == [16]
    # the ragged edge block holds 2x2 of the array in a 4x4 chunk
    _, edge = assert_runs_match_enumeration(amap, ((8, 9), (8, 9)))
    assert edge.tolist() == [2, 2]
