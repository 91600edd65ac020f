"""The box path against the address path: a linear map's strided view of a
flat buffer (``AddressMap.view``) must hold, at every box, the element at
every address of the box, in row-major order; and ``AddressMap.extents``
— the measured operation count of a box move — must equal the maximal
contiguous extents of those addresses.  Blocked maps have no view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import contiguous_extents
from repro.layout import BlockedLayout, LinearLayout, col_major, row_major
from repro.linalg import IMat
from repro.runtime.ooc_array import _region_indices, region_shape

from .strategies import _interval, _random_unimodular, _skewed_direction


@st.composite
def _signed_permutation(draw, rank):
    perm = draw(st.permutations(range(rank)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=rank,
                          max_size=rank))
    return LinearLayout(IMat([
        [signs[r] if c == perm[r] else 0 for c in range(rank)]
        for r in range(rank)
    ]))


def _layouts(rank):
    kinds = [_signed_permutation(rank)]
    if rank > 1:
        kinds += [_skewed_direction(rank), _random_unimodular(rank)]
    kinds.append(
        st.lists(st.integers(1, 4), min_size=rank, max_size=rank).map(
            lambda b: BlockedLayout(tuple(b))
        )
    )
    return st.one_of(kinds)


@st.composite
def box_cases(draw):
    """``(layout, shape, region)``: shapes with extent-1 dimensions,
    boxes from one element to the whole array."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    kind = draw(st.sampled_from(["whole", "element", "any"]))
    if kind == "whole":
        region = tuple((0, s - 1) for s in shape)
    elif kind == "element":
        region = tuple((i, i) for i in (
            draw(st.integers(0, s - 1)) for s in shape
        ))
    else:
        region = tuple(draw(_interval(s)) for s in shape)
    return draw(_layouts(rank)), shape, region


def _addresses(amap, region):
    return amap.address(_region_indices(region))


def _box(view, region):
    return view[tuple(slice(lo, hi + 1) for lo, hi in region)]


@settings(max_examples=800, deadline=None)
@given(box_cases())
def test_box_path_equals_address_path(case):
    layout, shape, region = case
    amap = layout.address_map(shape)
    addresses = _addresses(amap, region)
    assert amap.extents(region) == contiguous_extents(addresses)
    flat = np.arange(amap.total_slots, dtype=np.int64)
    view = amap.view(flat)
    if isinstance(layout, BlockedLayout):
        assert view is None
        return
    np.testing.assert_array_equal(
        _box(view, region), addresses.reshape(region_shape(region))
    )


#: boxes whose dimensions of extent 1 tie in weight with a dimension
#: that merges (an array dimension of extent 1 takes the weight of the
#: next lighter one): counting them as gaps splits one extent in several
WEIGHT_TIES = {
    "col-4x1x3x2-whole": (col_major(4), (4, 1, 3, 2),
                          ((0, 3), (0, 0), (0, 2), (0, 1)), 1),
    "row-2x3x1x4-whole": (row_major(4), (2, 3, 1, 4),
                          ((0, 1), (0, 2), (0, 0), (0, 3)), 1),
    "row-3x1x4-whole": (row_major(3), (3, 1, 4),
                        ((0, 2), (0, 0), (0, 3)), 1),
    "col-4x1x3-two-columns": (col_major(3), (4, 1, 3),
                              ((0, 3), (0, 0), (1, 2)), 1),
    "row-3x4x5-one-row-per-plane": (row_major(3), (3, 4, 5),
                                    ((0, 2), (1, 1), (0, 4)), 3),
    "row-3x4x5-one-column": (row_major(3), (3, 4, 5),
                             ((0, 2), (0, 3), (2, 2)), 12),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_TIES))
def test_extent_one_weight_ties(name):
    layout, shape, region, want = WEIGHT_TIES[name]
    amap = layout.address_map(shape)
    assert contiguous_extents(_addresses(amap, region)) == want
    assert amap.extents(region) == want


def test_a_coordinate_unit_step_is_not_enough_for_the_closed_form():
    # unit step e_2, but the weights (10, 6, 1) on shape (3, 2, 4) are no
    # mixed-radix numeral: the line of (a, 1) ends where that of (a+1, 0)
    # begins, so 6 lines form 4 extents, not 6
    layout = LinearLayout(IMat([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))
    assert layout.unit_step() == (0, 0, 1)
    amap = layout.address_map((3, 2, 4))
    region = ((0, 2), (0, 1), (0, 3))
    assert contiguous_extents(_addresses(amap, region)) == 4
    assert amap.extents(region) == 4


def test_an_empty_box_has_no_extents():
    amap = row_major(2).address_map((4, 4))
    assert amap.extents(((2, 1), (0, 3))) == 0
