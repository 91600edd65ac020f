"""Tile-cache accounting: hit/miss/eviction/prefetch counters.

The counters quantify what the cache *avoided*: ``read_calls_saved`` and
``elements_saved`` are priced with the exact same planning the runtime
uses for real transfers (:func:`repro.runtime.stats.plan_runs`), so a
hit saves precisely the calls and volume the miss would have cost.  The
overlap fields belong to the double-buffering cost model in
:mod:`repro.cache.prefetch`: prefetch I/O that fits under a tile's
compute time is *overlapped* (hidden), the remainder is *exposed*.

A single :class:`CacheMetrics` instance accumulates across nests and
weight repetitions; it is attached to the run's final
:class:`~repro.runtime.stats.IOStats` and to the executor's
``RunResult``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.metrics import MetricsRegistry


@dataclass
class CacheMetrics:
    hits: int = 0
    misses: int = 0
    #: misses served partially from overlapping resident tiles (only the
    #: uncovered remainder was read from the file); a subset of ``misses``
    partial_hits: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    #: dirty tiles written back by an explicit flush (nest boundaries,
    #: read/write coherence on overlapping regions)
    flushed_tiles: int = 0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    #: I/O calls / elements a miss would have cost, saved by hits
    read_calls_saved: int = 0
    elements_saved: int = 0
    #: double-buffering model: serial seconds spent fetching ahead, and
    #: how much of that hides under compute vs. stays on the critical path
    prefetch_io_s: float = 0.0
    overlapped_io_s: float = 0.0
    exposed_prefetch_io_s: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def prefetch_unused(self) -> int:
        """Prefetched tiles never consumed (still resident or evicted)."""
        return self.prefetch_issued - self.prefetch_used

    def bytes_saved(self, element_size: int = 8) -> int:
        return self.elements_saved * element_size

    def merge(self, other: "CacheMetrics") -> "CacheMetrics":
        return CacheMetrics(
            **{k: v + getattr(other, k) for k, v in asdict(self).items()}
        )

    def to_dict(self) -> dict:
        """JSON-ready dict — nests inside :meth:`IOStats.to_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CacheMetrics":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        return cls(**d)

    def publish(
        self, registry: "MetricsRegistry", prefix: str = "cache"
    ) -> None:
        """Snapshot every counter into an observability registry as
        gauges (the instance itself stays cumulative over the cache's
        life, so gauges — not counters — carry the current totals)."""
        for name, value in asdict(self).items():
            registry.gauge(f"{prefix}.{name}").set(value)

    def __str__(self) -> str:
        s = (
            f"cache[hit={self.hits}/{self.accesses} "
            f"({100.0 * self.hit_rate:.1f}%) partial={self.partial_hits} "
            f"evict={self.evictions} "
            f"saved_calls={self.read_calls_saved} "
            f"saved_elements={self.elements_saved}]"
        )
        if self.prefetch_issued:
            s += (
                f" prefetch[{self.prefetch_used}/{self.prefetch_issued} used "
                f"overlap={self.overlapped_io_s:.3f}s "
                f"exposed={self.exposed_prefetch_io_s:.3f}s]"
            )
        return s
