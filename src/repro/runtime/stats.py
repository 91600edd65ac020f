"""I/O accounting.

``IOStats`` is a plain counter bundle; ``IOContext`` is the per-compute-
node recorder the runtime writes into.  Per-I/O-node load vectors are kept
as numpy arrays so the contention model can take elementwise maxima
cheaply.  ``CallTable`` is the recorded call trace: one columnar value
that every re-pricer (collective planner, event simulator, serving
layer, per-array attribution) folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..obs import profile as _prof
from .params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache → stats)
    from ..cache.metrics import CacheMetrics
    from ..faults.injector import FaultInjector
    from ..obs.metrics import MetricsRegistry


def _sieve(
    offsets: np.ndarray, lengths: np.ndarray, max_gap_elems: int
) -> tuple[np.ndarray, np.ndarray]:
    """Data sieving: merge runs whose gaps are at most ``max_gap`` into
    single spanning calls (the gap bytes are transferred and discarded —
    or rewritten unchanged for writes, which are tile-level
    read-modify-write here).  Runs must be disjoint."""
    if offsets.size <= 1:
        # nothing to merge: zero runs (no gaps at all) or a single run
        # (whose "gaps" array would otherwise index out of bounds)
        return offsets, lengths
    order = np.argsort(offsets, kind="stable")
    offsets, lengths = offsets[order], lengths[order]
    ends = offsets + lengths
    gaps = offsets[1:] - ends[:-1]
    breaks = np.flatnonzero(gaps > max_gap_elems)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [offsets.size - 1]))
    new_offsets = offsets[starts]
    new_lengths = ends[stops] - offsets[starts]
    return new_offsets, new_lengths


def plan_runs(
    params: MachineParams, offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exact I/O calls :meth:`IOContext.record_runs` would issue for a
    batch of contiguous runs: sieve small gaps, then split runs longer
    than the maximum request size.  Pure — no accounting is recorded —
    so the tile cache can price *avoided* transfers identically."""
    _prof.WORK.plan_runs_calls += 1
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size == 0:
        return offsets, lengths
    maxe = params.max_request_elements
    if params.sieve_gap_bytes and offsets.size > 1:
        offsets, lengths = _sieve(
            offsets, lengths, params.sieve_gap_bytes // params.element_size
        )
        if params.sieve_buffer_bytes:
            maxe = min(maxe, params.sieve_buffer_bytes // params.element_size)
    if (lengths > maxe).any():
        pieces_off: list[np.ndarray] = []
        pieces_len: list[np.ndarray] = []
        counts = -(-lengths // maxe)
        for off, ln, cnt in zip(offsets, lengths, counts):
            starts = off + maxe * np.arange(cnt, dtype=np.int64)
            plen = np.full(cnt, maxe, dtype=np.int64)
            plen[-1] = ln - maxe * (cnt - 1)
            pieces_off.append(starts)
            pieces_len.append(plen)
        offsets = np.concatenate(pieces_off)
        lengths = np.concatenate(pieces_len)
    _prof.WORK.priced_runs += int(offsets.size)
    return offsets, lengths


def io_node_loads(
    params: MachineParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-I/O-node service seconds of a batch of final calls (global
    element offsets): latency at the first servicing node, transfer
    spread over the stripes each call covers (vectorized over calls,
    looped over the bounded stripe span of a single call).  Accumulates
    into ``out`` — a fresh zero vector by default — so a recorder adds
    to its running load in the same order a per-call loop would."""
    load = np.zeros(params.n_io_nodes, dtype=np.float64) if out is None else out
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size == 0:
        return load
    se = params.stripe_elements
    start, end = offsets, offsets + lengths
    first, last = start // se, (end - 1) // se
    np.add.at(load, first % params.n_io_nodes, params.io_latency_s)
    per_el = params.element_size / params.io_bandwidth_bps
    span = int((last - first).max()) + 1
    for k in range(span):
        stripe = first + k
        mask = stripe <= last
        if not mask.any():
            break
        s0 = np.maximum(start[mask], stripe[mask] * se)
        s1 = np.minimum(end[mask], (stripe[mask] + 1) * se)
        np.add.at(load, stripe[mask] % params.n_io_nodes, (s1 - s0) * per_el)
    return load


class ColumnTable:
    """Equal-length numpy columns, declared by ``COLUMNS`` and read by
    name — the form every fold consumes (a scalar column is repeated to
    the others' length).  The *row view* (``len``, iteration, indexing,
    ``==`` against any sequence of rows, ``repr``) goes through
    ``.tolist()``, so rows are plain python values; it is the surface
    for tests, debugging and per-call paths, not for folds."""

    COLUMNS: dict[str, type] = {}  # column name -> dtype, in order

    def __init__(self, *columns):
        cols = [
            np.asarray(c, dtype=t)
            for c, t in zip(columns, self.COLUMNS.values(), strict=True)
        ]
        n = next((c.size for c in cols if c.ndim), 1)
        self.cols = tuple(np.full(n, c) if c.ndim == 0 else c for c in cols)
        if any(c.shape != (n,) for c in self.cols):
            raise ValueError(
                f"{type(self).__name__} columns must be 1-d and equally "
                f"long, got shapes {[c.shape for c in cols]}"
            )
        for name, c in zip(self.COLUMNS, self.cols):
            setattr(self, name, c)

    @classmethod
    def of(cls, rows):
        """Coerce a sequence of rows; a table passes through."""
        if isinstance(rows, cls):
            return rows
        rows = list(rows)
        return cls(*zip(*rows, strict=True)) if rows else cls.concat(())

    @classmethod
    def concat(cls, tables):
        """The tables' rows, in order, as one table."""
        cols = list(zip(*(t.cols for t in tables)))
        if not cols:
            return cls(*[()] * len(cls.COLUMNS))
        return cls(*map(np.concatenate, cols))

    def select(self, mask: np.ndarray):
        """The rows where the boolean ``mask`` is true."""
        return type(self)(*(c[mask] for c in self.cols))

    def lists(self) -> list[list]:
        """The columns as python lists (one ``.tolist()`` each)."""
        return [c.tolist() for c in self.cols]

    def rows(self) -> list:
        return list(zip(*self.lists()))

    def __len__(self) -> int:
        return self.cols[0].size

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, i):
        return self.rows()[i]

    def __eq__(self, other):
        try:
            return self.rows() == list(other)
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return repr(self.rows())


class CallTable(ColumnTable):
    """An I/O call trace, one row per call in issue order: the file's
    stripe-0 element ``base``, the call's ``offset`` within the file and
    ``length`` (elements), and its direction.  Rows are
    ``(int, int, int, bool)`` tuples."""

    COLUMNS = dict(
        base=np.int64, offset=np.int64, length=np.int64, is_write=np.bool_
    )

    @classmethod
    def of(cls, rows):
        table = super().of(rows)
        # hand-written rows are outside input; the batches plan_runs
        # produced go through the constructor and are not re-checked
        if table is not rows and (
            np.minimum(table.offset, table.length) < 0
        ).any():
            raise ValueError("trace rows need offset >= 0 and length >= 0")
        return table


def _fault_counter(default):
    """A resilience counter: serialized only when some such counter is
    nonzero."""
    return field(default=default, metadata={"fault": True})


@dataclass
class IOStats:
    """Counters of one recorder, one nest, one rank or a whole run.
    Every field but ``cache`` is a summable counter, named once, here:
    :meth:`fold`, :meth:`scaled`, :meth:`to_dict` and :meth:`from_dict`
    walk the dataclass fields (``_COUNTERS`` below)."""

    read_calls: int = 0
    write_calls: int = 0
    elements_read: int = 0
    elements_written: int = 0
    io_time_s: float = 0.0       # serial time the compute node spends in I/O
    compute_time_s: float = 0.0
    #: tile-cache counters (hits / misses / prefetch / bytes saved) when
    #: the run used :mod:`repro.cache`; ``None`` for uncached runs, so
    #: default accounting is bit-identical with the cache disabled
    cache: "CacheMetrics | None" = field(default=None, compare=False)
    #: redistribution phase (two-phase collective I/O, :mod:`repro
    #: .collective`): interconnect messages exchanged between compute
    #: nodes after the aggregators' file phase.  All zero — and the
    #: stats line unchanged — for independent (non-collective) runs.
    redist_messages: int = 0
    redist_elements: int = 0
    redist_time_s: float = 0.0
    #: resilience accounting (:mod:`repro.faults`): re-issued attempts,
    #: failed attempts (errors + timeouts), hedged duplicate reads,
    #: two-phase nests degraded to independent I/O, and total backoff
    #: seconds.  All zero — and ``to_dict``/``__str__`` unchanged —
    #: when no fault plan is active (``faults=None``).
    retries: int = _fault_counter(0)
    failed_calls: int = _fault_counter(0)
    hedged_calls: int = _fault_counter(0)
    degraded_nests: int = _fault_counter(0)
    retry_delay_s: float = _fault_counter(0.0)

    @property
    def calls(self) -> int:
        return self.read_calls + self.write_calls

    @property
    def elements_moved(self) -> int:
        return self.elements_read + self.elements_written

    @property
    def has_faults(self) -> bool:
        """Whether any resilience counter is nonzero (the run saw
        injected faults, hedges or degradations)."""
        return any(
            getattr(self, f.name) for f in _COUNTERS if "fault" in f.metadata
        )

    @property
    def total_time_s(self) -> float:
        return (
            self.io_time_s + self.redist_time_s + self.compute_time_s
            + self.retry_delay_s
        )

    def merge(self, other: "IOStats") -> "IOStats":
        return IOStats.fold((self, other))

    @classmethod
    def fold(cls, items: "Iterable[IOStats]") -> "IOStats":
        """Sum many stats in one linear pass (no per-step intermediates).

        Field-by-field accumulation in iteration order, so the result is
        bit-identical to a left-to-right ``merge`` chain.
        """
        total = cls()
        for s in items:
            for f in _COUNTERS:
                setattr(
                    total, f.name, getattr(total, f.name) + getattr(s, f.name)
                )
            if s.cache is not None:
                total.cache = (
                    s.cache if total.cache is None
                    else total.cache.merge(s.cache)
                )
        return total

    def scaled(self, k: int) -> "IOStats":
        """Every counter times ``k`` — one pass of a nest standing for
        its ``k`` identical repetitions (``cache`` is carried as is)."""
        return replace(
            self, **{f.name: getattr(self, f.name) * k for f in _COUNTERS}
        )

    def to_dict(self) -> dict:
        """JSON-ready dict, nested ``cache`` included — the serialized
        form used by traces (:mod:`repro.obs`) and ``BENCH_*.json``."""
        # fault counters appear only when something fired, so the
        # serialized form (and every baseline JSON built from it) is
        # byte-identical to pre-fault output when faults are off
        faults = self.has_faults
        d = {
            f.name: getattr(self, f.name)
            for f in _COUNTERS if faults or "fault" not in f.metadata
        }
        if self.cache is not None:
            d["cache"] = self.cache.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "IOStats":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        from ..cache.metrics import CacheMetrics

        cache_d = d.get("cache")
        return cls(
            cache=None if cache_d is None else CacheMetrics.from_dict(cache_d),
            **{f.name: d.get(f.name, f.default) for f in _COUNTERS},
        )

    def __str__(self) -> str:
        base = (
            f"calls={self.calls} (r{self.read_calls}/w{self.write_calls}) "
            f"elements={self.elements_moved} io={self.io_time_s:.3f}s "
            f"compute={self.compute_time_s:.3f}s"
        )
        if self.redist_messages:
            base += (
                f" redist[msgs={self.redist_messages} "
                f"elements={self.redist_elements} "
                f"t={self.redist_time_s:.3f}s]"
            )
        if self.has_faults:
            base += (
                f" faults[retries={self.retries} "
                f"failed={self.failed_calls} hedged={self.hedged_calls} "
                f"degraded={self.degraded_nests} "
                f"delay={self.retry_delay_s:.3f}s]"
            )
        if self.cache is not None:
            base += f" {self.cache}"
        return base


#: the summable counters, in declaration (= serialization) order
_COUNTERS = tuple(f for f in fields(IOStats) if f.name != "cache")


class IOContext:
    """Recorder for one compute node's activity.

    ``io_node_load`` accumulates the service seconds each simulated I/O
    node spends on this compute node's requests — the contention model
    combines these across compute nodes.
    """

    def __init__(
        self,
        params: MachineParams,
        node_id: int = 0,
        trace: bool = False,
        metrics: "MetricsRegistry | None" = None,
        faults: "FaultInjector | None" = None,
    ):
        self.params = params
        self.node_id = node_id
        self.stats = IOStats()
        self.io_node_load = np.zeros(params.n_io_nodes, dtype=np.float64)
        #: the optional call trace: one :class:`CallTable` per recorded
        #: batch, in issue order; ``None`` when tracing is off
        self._batches: list[CallTable] | None = [] if trace else None
        #: optional :class:`repro.obs.MetricsRegistry` this context
        #: publishes per-call counters and call-size histograms into;
        #: ``None`` (the default) records nothing — accounting is
        #: bit-identical with observability off
        self.metrics = metrics
        #: optional :class:`repro.faults.FaultInjector`: every planned
        #: I/O call is priced through it (stragglers, transient errors,
        #: retries, hedging).  ``None`` (the default) takes the
        #: vectorized path — accounting is bit-identical without faults
        self.faults = faults

    @property
    def trace(self) -> CallTable | None:
        """The calls recorded so far as one :class:`CallTable` — what
        the collective planner, the event simulator, the serving layer
        and per-array attribution fold; ``None`` unless the context was
        built with ``trace=True`` (off by default: it is kept per call).
        """
        if self._batches is None:
            return None
        return CallTable.concat(self._batches)

    def _publish_calls(self, n_calls: int, n_elems: int, is_write: bool) -> None:
        m = self.metrics
        direction = "write" if is_write else "read"
        m.counter(f"io.{direction}_calls").inc(n_calls)
        m.counter(f"io.elements_{'written' if is_write else 'read'}").inc(
            n_elems
        )

    def record_call(self, file_base_elem: int, offset_elem: int, n_elems: int, is_write: bool) -> None:
        """Account one I/O call for ``n_elems`` contiguous elements starting
        at ``offset_elem`` within a file whose stripe-0 begins at
        ``file_base_elem`` (element units)."""
        p = self.params
        nbytes = n_elems * p.element_size
        if is_write:
            self.stats.write_calls += 1
            self.stats.elements_written += n_elems
        else:
            self.stats.read_calls += 1
            self.stats.elements_read += n_elems
        self.stats.io_time_s += p.call_time(nbytes)
        if self.metrics is not None:
            self._publish_calls(1, n_elems, is_write)
            self.metrics.histogram("io.call_elements").observe(n_elems)
        if self._batches is not None:
            self._batches.append(
                CallTable(file_base_elem, [offset_elem], [n_elems], is_write)
            )
        # distribute the transfer across the stripes the call covers
        start = file_base_elem + offset_elem
        end = start + n_elems  # exclusive
        se = p.stripe_elements
        first_stripe = start // se
        last_stripe = (end - 1) // se
        # latency is paid at the first servicing I/O node
        self.io_node_load[first_stripe % p.n_io_nodes] += p.io_latency_s
        for stripe in range(first_stripe, last_stripe + 1):
            s0 = max(start, stripe * se)
            s1 = min(end, (stripe + 1) * se)
            self.io_node_load[stripe % p.n_io_nodes] += p.transfer_time(
                (s1 - s0) * p.element_size
            )

    def record_runs(
        self,
        file_base_elem: int,
        offsets: np.ndarray,
        lengths: np.ndarray,
        is_write: bool,
    ) -> int:
        """Vectorized accounting for a batch of contiguous runs (element
        units).  Runs longer than the maximum request size are split into
        multiple calls.  Returns the number of I/O calls recorded."""
        p = self.params
        offsets, lengths = plan_runs(p, offsets, lengths)
        if offsets.size == 0:
            return 0
        if self.faults is not None:
            return self._record_runs_faulty(
                file_base_elem, offsets, lengths, is_write
            )

        n_calls = int(offsets.size)
        n_elems = int(lengths.sum())
        if is_write:
            self.stats.write_calls += n_calls
            self.stats.elements_written += n_elems
        else:
            self.stats.read_calls += n_calls
            self.stats.elements_read += n_elems
        self.stats.io_time_s += p.batch_time(n_calls, n_elems)
        if self.metrics is not None:
            self._publish_calls(n_calls, n_elems, is_write)
            self.metrics.histogram("io.call_elements").observe_many(lengths)
        if self._batches is not None:
            self._batches.append(
                CallTable(file_base_elem, offsets, lengths, is_write)
            )
        io_node_loads(p, file_base_elem + offsets, lengths, self.io_node_load)
        return n_calls

    def _record_runs_faulty(
        self,
        file_base_elem: int,
        offsets: np.ndarray,
        lengths: np.ndarray,
        is_write: bool,
    ) -> int:
        """Per-call accounting through the fault injector.

        Every *attempt* (including failed ones and hedged duplicates) is
        a full accounted call — the transfer ran even when the call then
        failed — so call/element counters, the trace and the per-nest
        records stay mutually exact under faults.  Each attempt's serial
        seconds are charged to its servicing I/O node (a hedged
        duplicate's nominal service goes to the replica node).  A call
        that exhausts its retry budget is accounted, then raises
        :class:`~repro.faults.TransientIOError`.
        """
        p = self.params
        inj = self.faults
        se = p.stripe_elements
        s = self.stats
        total_calls = 0
        for off, ln in zip(offsets, lengths):
            off, ln = int(off), int(ln)
            nominal_s = p.call_time(ln * p.element_size)
            io_node = ((file_base_elem + off) // se) % p.n_io_nodes
            out = inj.serial_call(
                io_node, is_write, nominal_s,
                n_io_nodes=p.n_io_nodes, at_s=s.io_time_s,
            )
            calls = out.attempts + (1 if out.hedged else 0)
            total_calls += calls
            if is_write:
                s.write_calls += calls
                s.elements_written += ln * calls
            else:
                s.read_calls += calls
                s.elements_read += ln * calls
            s.io_time_s += out.io_time_s
            s.retries += out.retries
            s.failed_calls += out.failed_attempts
            s.retry_delay_s += out.retry_delay_s
            self.io_node_load[io_node] += out.io_time_s
            if out.hedged:
                s.hedged_calls += 1
                self.io_node_load[out.hedge_node] += nominal_s
            if self.metrics is not None:
                self._publish_calls(calls, ln * calls, is_write)
                h = self.metrics.histogram("io.call_elements")
                for _ in range(calls):
                    h.observe(ln)
                self._publish_faults(out)
            if self._batches is not None:
                self._batches.append(CallTable(
                    file_base_elem, np.full(calls, off), ln, is_write
                ))
            if out.gave_up:
                inj.raise_exhausted(out, io_node)
        return total_calls

    def _publish_faults(self, out) -> None:
        m = self.metrics
        if out.failed_attempts:
            m.counter("faults.injected").inc(out.failed_attempts)
        if out.retries:
            m.counter("faults.retries").inc(out.retries)
        if out.hedged:
            m.counter("faults.hedged_calls").inc()
        if out.retry_delay_s > 0.0:
            m.histogram("faults.retry_delay_us").observe(
                out.retry_delay_s * 1e6
            )

    def record_compute(self, n_iterations: int, ops_per_iteration: int = 1) -> None:
        _prof.WORK.add_loop_iters("element", int(n_iterations))
        self.stats.compute_time_s += self.params.compute_time(
            n_iterations, ops_per_iteration
        )

    def reset(self) -> None:
        self.stats = IOStats()
        self.io_node_load[:] = 0.0
        if self._batches is not None:
            self._batches.clear()
