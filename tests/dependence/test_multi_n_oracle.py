"""``analyze_nest`` and ``reaches_back`` answer for every N.  The
enumerating oracle (``oracle.py``) answers at one N; the solver must
cover its answer at every N drawn, and on the workload nests equal the
union of the enumerations over N in [depth + 1, depth + 12]."""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.dependence import analyze_nest
from repro.transforms.fusion import reaches_back

from ..bounds.test_columnar_oracle import WORKLOADS, _version
from ..engine.test_bulk_kernel import bodied_plans
from .oracle import edge_directions, enumerated_directions, touches_back


def _union_over(nest, sizes):
    """The enumerated direction sets at each N of ``sizes`` (each
    checked against the solver's), and their union."""
    solved = edge_directions(analyze_nest(nest))
    union = {}
    for n in sizes:
        for key, dirs in enumerated_directions(nest, {"N": n}).items():
            assert dirs <= solved.get(key, set()), (nest.name, n, key)
            union.setdefault(key, set()).update(dirs)
    return solved, union


@pytest.mark.parametrize("version", ("col", "h-opt"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_edges_equal_the_union_over_n(workload, version):
    for nest in _version(workload, version)[0].nests:
        solved, union = _union_over(nest, range(nest.depth + 1, nest.depth + 13))
        assert solved == union, nest.name


@settings(max_examples=25, deadline=None)
@given(bodied_plans())
def test_generated_edges_cover_every_n(planned):
    nest = planned[0].nest
    solved, union = _union_over(nest, range(1, nest.depth + 13))
    if solved != union:
        event("solver strictly larger than the enumerated union")


@st.composite
def nest_pairs(draw):
    """Two generated nests over the same arrays and a shared prefix."""
    first, later = draw(bodied_plans())[0].nest, draw(bodied_plans())[0].nest
    prefix = draw(st.integers(1, min(first.depth, later.depth)))
    return first, later, prefix


@settings(max_examples=50, deadline=None)
@given(nest_pairs())
def test_reaches_back_covers_every_n(pair):
    first, later, prefix = pair
    solved = reaches_back(first, later, prefix)
    sizes = range(1, max(first.depth, later.depth) + 13)
    enumerated = any(
        touches_back(first, later, prefix, {"N": n}) for n in sizes
    )
    assert solved or not enumerated
    if solved != enumerated:
        event("solver reaches back where no enumerated N does")
