import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import IOContext, MachineParams
from repro.runtime.stats import _sieve, plan_runs


def runs_strategy():
    """Disjoint sorted runs: (offsets, lengths)."""
    return st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 8)),
        min_size=1,
        max_size=10,
    ).map(_normalize_runs)


def _normalize_runs(pairs):
    offsets, lengths = [], []
    cursor = 0
    for gap, length in pairs:
        start = cursor + gap
        offsets.append(start)
        lengths.append(length)
        cursor = start + length
    return np.array(offsets, dtype=np.int64), np.array(lengths, dtype=np.int64)


class TestSieve:
    def test_empty_input(self):
        """Regression: an empty run set used to hit ``offsets[0]`` and
        raise IndexError; it must pass through untouched."""
        empty = np.zeros(0, dtype=np.int64)
        offs, lens, _ = _sieve(empty, empty, max_gap_elems=6)
        assert offs.size == 0 and lens.size == 0

    def test_single_run_passthrough(self):
        """A single run has no gaps to sieve — returned as-is."""
        offs, lens, _ = _sieve(np.array([5]), np.array([7]), max_gap_elems=6)
        assert list(offs) == [5]
        assert list(lens) == [7]

    def test_merges_small_gaps(self):
        offs, lens, _ = _sieve(np.array([0, 10]), np.array([4, 4]), max_gap_elems=6)
        assert list(offs) == [0]
        assert list(lens) == [14]  # spans the gap

    def test_keeps_large_gaps(self):
        offs, lens, _ = _sieve(np.array([0, 100]), np.array([4, 4]), 6)
        assert list(offs) == [0, 100]
        assert list(lens) == [4, 4]

    def test_chain_merge(self):
        offs, lens, _ = _sieve(
            np.array([0, 6, 12, 100]), np.array([4, 4, 4, 4]), 2
        )
        assert list(offs) == [0, 100]
        assert list(lens) == [16, 4]

    def test_unsorted_input_handled(self):
        offs, lens, _ = _sieve(np.array([10, 0]), np.array([4, 4]), 6)
        assert list(offs) == [0]
        assert list(lens) == [14]

    @settings(max_examples=60)
    @given(runs_strategy(), st.integers(0, 20))
    def test_spans_cover_all_runs(self, runs, gap):
        offsets, lengths = runs
        s_off, s_len, _ = _sieve(offsets, lengths, gap)
        # every original element lies inside some sieved span
        for o, l in zip(offsets, lengths):
            assert any(
                so <= o and o + l <= so + sl for so, sl in zip(s_off, s_len)
            )

    @settings(max_examples=60)
    @given(runs_strategy(), st.integers(0, 20))
    def test_spans_disjoint_and_sorted(self, runs, gap):
        offsets, lengths = runs
        s_off, s_len, _ = _sieve(offsets, lengths, gap)
        ends = s_off + s_len
        assert (np.diff(s_off) > 0).all() if s_off.size > 1 else True
        for k in range(s_off.size - 1):
            assert s_off[k + 1] > ends[k] - 1

    @settings(max_examples=60)
    @given(runs_strategy())
    def test_zero_gap_is_identity(self, runs):
        offsets, lengths = runs
        s_off, s_len, _ = _sieve(offsets, lengths, 0)
        np.testing.assert_array_equal(s_off, offsets)
        np.testing.assert_array_equal(s_len, lengths)


class TestSieveInContext:
    def params(self, **kw):
        defaults = dict(
            io_latency_s=1.0,
            io_bandwidth_bps=8.0,
            sieve_gap_bytes=8 * 8,       # 8-element gaps merge
            sieve_buffer_bytes=8 * 32,   # spans capped at 32 elements
            stripe_bytes=1024,
        )
        defaults.update(kw)
        return MachineParams(**defaults)

    def test_read_runs_sieved(self):
        ctx = IOContext(self.params())
        # 4 runs of 2 separated by gaps of 4: merged into one span of 20
        n = ctx.record_runs(
            0, np.array([0, 6, 12, 18]), np.array([2, 2, 2, 2]), False
        )
        assert n == 1
        assert ctx.stats.elements_read == 20  # gap bytes transferred too

    def test_buffer_caps_span(self):
        ctx = IOContext(self.params())
        offsets = np.arange(0, 120, 6)
        lengths = np.full(offsets.size, 2)
        n = ctx.record_runs(0, offsets, lengths, False)
        assert n >= 4  # 114-element span split at the 32-element buffer

    def test_writes_sieve_like_reads(self):
        """Writes are tile-level read-modify-write; gaps are rewritten."""
        r = IOContext(self.params())
        w = IOContext(self.params())
        offsets, lengths = np.array([0, 6]), np.array([2, 2])
        nr = r.record_runs(0, offsets, lengths, False)
        nw = w.record_runs(0, offsets, lengths, True)
        assert nr == nw == 1
        assert w.stats.elements_written == r.stats.elements_read == 8

    def test_disabled_by_default(self):
        ctx = IOContext(MachineParams(io_latency_s=1.0))
        n = ctx.record_runs(0, np.array([0, 6]), np.array([2, 2]), False)
        assert n == 2
        assert ctx.stats.elements_read == 4

    def test_empty_runs_record_nothing(self):
        """Regression: an empty batch (e.g. a fully cache-covered
        partial read) must account zero calls, not crash in the sieve."""
        ctx = IOContext(self.params())
        empty = np.zeros(0, dtype=np.int64)
        assert ctx.record_runs(0, empty, empty, False) == 0
        assert ctx.stats.calls == 0 and ctx.stats.elements_moved == 0

    @settings(max_examples=60)
    @given(runs_strategy())
    def test_plan_runs_matches_recording(self, runs):
        """The pure planner must predict ``record_runs`` exactly — the
        tile cache prices avoided transfers with it."""
        offsets, lengths = runs
        params = self.params()
        p_off, p_len = plan_runs(params, offsets, lengths)
        ctx = IOContext(params)
        n = ctx.record_runs(0, offsets, lengths, False)
        assert n == p_off.size
        assert ctx.stats.elements_read == int(p_len.sum())
