"""Simulate-mode transfers price a tile from ``OutOfCoreArray.runs``;
``count_tile_io`` keeps decomposing the address of every element.  Both
must leave an ``IOContext`` in the same state, bit for bit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import col_major
from repro.runtime import (
    IOContext,
    MachineParams,
    OOCFile,
    OutOfCoreArray,
    ParallelFileSystem,
)
from repro.runtime.ooc_array import LinearStore, runs_of
from repro.runtime.stats import plan_runs

from ..layout.strategies import assert_same_runs, map_cases

#: small stripes and requests, so runs straddle I/O nodes and get split
MACHINE = dict(
    n_io_nodes=3, stripe_bytes=4 * 8, max_request_bytes=5 * 8,
    sieve_buffer_bytes=6 * 8,
)
SIEVE_GAPS = (0, 2 * 8)


def make_array(case, slot_base, params):
    layout, shape, _ = case
    pfs = ParallelFileSystem(params)
    pfs.advance(5)  # a file base that is not 0 either
    slots = layout.address_map(shape).total_slots
    file = OOCFile("F", slot_base + slots, pfs, real=False)
    return OutOfCoreArray("A", shape, layout, file, slot_base=slot_base)


@settings(max_examples=300, deadline=None)
@given(map_cases(), st.sampled_from([0, 7]))
def test_runs_equal_runs_of_addresses(case, slot_base):
    arr = make_array(case, slot_base, MachineParams(**MACHINE))
    region = case[2]
    assert_same_runs(arr.runs(region), runs_of(arr.addresses(region)))


@settings(max_examples=300, deadline=None)
@given(
    map_cases(), st.sampled_from([0, 7]), st.sampled_from(SIEVE_GAPS),
    st.booleans(),
)
def test_simulated_transfer_accounts_like_the_enumerating_reference(
    case, slot_base, sieve_gap, is_write
):
    params = MachineParams(sieve_gap_bytes=sieve_gap, **MACHINE)
    arr = make_array(case, slot_base, params)
    region = case[2]
    symbolic = IOContext(params, trace=True)
    reference = IOContext(params, trace=True)
    if is_write:
        arr.write_tile(region, None, symbolic)
    else:
        assert arr.read_tile(region, symbolic) is None
    calls = arr.count_tile_io(region, reference, is_write)
    assert symbolic.stats == reference.stats
    assert symbolic.stats.calls == calls > 0
    assert symbolic.trace == reference.trace
    # bit-equal, not approximately equal: the same arrays were priced
    assert symbolic.io_node_load.tobytes() == reference.io_node_load.tobytes()


@settings(max_examples=200, deadline=None)
@given(map_cases(), st.sampled_from(SIEVE_GAPS))
def test_estimate_read_is_plan_runs_of_the_enumerated_runs(case, sieve_gap):
    params = MachineParams(sieve_gap_bytes=sieve_gap, **MACHINE)
    arr = make_array(case, 0, params)
    region = case[2]
    offsets, lengths = plan_runs(params, *runs_of(arr.addresses(region)))
    assert LinearStore({"A": arr}).estimate_read("A", region, params) == (
        offsets.size, lengths.sum(),
    )


def test_simulated_transfers_enumerate_no_address(monkeypatch):
    params = MachineParams(**MACHINE)
    arr = OutOfCoreArray.create(
        "A", (6, 5), col_major(2), ParallelFileSystem(params), real=False
    )
    monkeypatch.setattr(
        OutOfCoreArray, "addresses",
        lambda self, region: pytest.fail("a simulated transfer enumerated"),
    )
    ctx = IOContext(params)
    region = ((1, 4), (0, 3))
    arr.read_tile(region, ctx)
    arr.write_tile(region, None, ctx)
    LinearStore({"A": arr}).estimate_read("A", region, params)
    assert ctx.stats.elements_read == ctx.stats.elements_written == 16
