"""IOStats serialization and accumulation: to_dict/from_dict round-trip
(nested cache metrics and redistribution fields included) and fold-vs-
merge equivalence when only some inputs carry cache metrics."""

import json
from dataclasses import fields

from repro.cache import CacheMetrics
from repro.runtime import IOContext, IOStats, MachineParams


def _full_stats():
    return IOStats(
        read_calls=10, write_calls=4,
        elements_read=1000, elements_written=400,
        io_time_s=1.25, compute_time_s=0.5,
        cache=CacheMetrics(
            hits=7, misses=3, partial_hits=1, evictions=2,
            dirty_evictions=1, flushed_tiles=1, prefetch_issued=5,
            prefetch_used=4, read_calls_saved=6, elements_saved=600,
            prefetch_io_s=0.1, overlapped_io_s=0.08,
            exposed_prefetch_io_s=0.02,
        ),
        redist_messages=12, redist_elements=300, redist_time_s=0.03,
    )


class TestRoundTrip:
    def test_exact_round_trip_with_cache_and_redist(self):
        s = _full_stats()
        back = IOStats.from_dict(s.to_dict())
        assert back == s
        assert back.cache == s.cache

    def test_round_trip_without_cache(self):
        s = IOStats(read_calls=3, elements_read=30, io_time_s=0.5)
        d = s.to_dict()
        assert "cache" not in d
        assert IOStats.from_dict(d) == s
        assert IOStats.from_dict(d).cache is None

    def test_survives_json(self):
        s = _full_stats()
        back = IOStats.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back == s and back.cache == s.cache

    def test_missing_keys_default(self):
        s = IOStats.from_dict({"read_calls": 2})
        assert s.read_calls == 2
        assert s.write_calls == 0 and s.cache is None

    def test_cache_metrics_round_trip(self):
        m = _full_stats().cache
        assert CacheMetrics.from_dict(m.to_dict()) == m


class TestFoldMergeEquivalence:
    def test_mixed_cache_metrics(self):
        """fold must equal a left-to-right merge chain even when only
        some stats carry cache metrics (cached + uncached node mix)."""
        stats = [
            IOStats(read_calls=1, io_time_s=0.1),
            IOStats(
                read_calls=2, io_time_s=0.2,
                cache=CacheMetrics(hits=5, misses=1, elements_saved=50),
            ),
            IOStats(write_calls=3, io_time_s=0.3),
            IOStats(
                read_calls=4, io_time_s=0.4,
                cache=CacheMetrics(hits=2, misses=2, evictions=1),
            ),
        ]
        chained = stats[0]
        for s in stats[1:]:
            chained = chained.merge(s)
        folded = IOStats.fold(stats)
        assert folded == chained
        assert folded.cache == chained.cache
        assert folded.cache.hits == 7 and folded.cache.misses == 3

    def test_no_cache_anywhere(self):
        stats = [IOStats(read_calls=k) for k in range(5)]
        assert IOStats.fold(stats).cache is None

    def test_fold_does_not_mutate_inputs(self):
        cached = IOStats(cache=CacheMetrics(hits=1))
        IOStats.fold([cached, IOStats(cache=CacheMetrics(hits=2))])
        assert cached.cache.hits == 1


class TestCountersAreNamedOnce:
    """Every dataclass field but ``cache`` is a counter, and ``fold``,
    ``scaled``, ``to_dict`` and ``from_dict`` walk the fields — one set
    to a distinct value in each must come through all four."""

    NAMES = [f.name for f in fields(IOStats) if f.name != "cache"]

    def _distinct(self):
        return IOStats(**{
            f.name: type(f.default)(i + 1)
            for i, f in enumerate(fields(IOStats)) if f.name != "cache"
        })

    def test_serialized_in_declaration_order(self):
        s = self._distinct()
        assert list(s.to_dict()) == self.NAMES
        assert IOStats.from_dict(s.to_dict()) == s
        quiet = IOStats(read_calls=1, redist_messages=2)
        assert list(quiet.to_dict()) == self.NAMES[:-5]  # no fault keys

    def test_scaled_is_a_fold_of_copies(self):
        s = self._distinct()
        assert s.scaled(3) == IOStats.fold([s, s, s])
        assert s.scaled(1) == s and s.scaled(1) is not s
        for name in self.NAMES:
            assert getattr(s.scaled(4), name) == 4 * getattr(s, name)

    def test_scaled_carries_the_cache_unscaled(self):
        s = _full_stats()
        assert s.scaled(2).cache == s.cache
        assert s.scaled(2).read_calls == 20


class TestContextReset:
    def test_reset_clears_stats_loads_and_trace(self):
        ctx = IOContext(MachineParams(), trace=True)
        ctx.record_call(0, 0, 16, False)
        ctx.record_compute(100)
        assert ctx.trace and ctx.stats.calls == 1
        ctx.reset()
        assert ctx.trace == []
        assert ctx.stats == IOStats()
        assert not ctx.io_node_load.any()

    def test_reset_keeps_trace_disabled(self):
        ctx = IOContext(MachineParams())
        ctx.record_call(0, 0, 16, False)
        ctx.reset()
        assert ctx.trace is None
