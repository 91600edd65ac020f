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
from .pricing import _sieve, io_node_loads, plan_runs, segment_starts  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache → stats)
    from ..cache.metrics import CacheMetrics
    from ..faults.injector import FaultInjector
    from ..obs.metrics import MetricsRegistry


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

    def _count_calls(self, n_calls: int, n_elems: int, is_write: bool) -> None:
        names = (
            ("write_calls", "elements_written") if is_write
            else ("read_calls", "elements_read")
        )
        for name, n in zip(names, (int(n_calls), int(n_elems))):
            setattr(self.stats, name, getattr(self.stats, name) + n)
            if self.metrics is not None:
                self.metrics.counter(f"io.{name}").inc(n)

    def record_call(self, file_base_elem: int, offset_elem: int, n_elems: int, is_write: bool) -> None:
        """Account one I/O call of ``n_elems`` elements at ``offset_elem``
        of the file based at ``file_base_elem``: a batch of one run."""
        self.record_runs(file_base_elem, [offset_elem], [n_elems], is_write)

    def record_runs(
        self,
        file_base_elem: int | np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        is_write: bool | np.ndarray,
        counts: np.ndarray | None = None,
    ) -> int:
        """Account a batch of contiguous runs (element units): planned
        into calls by :func:`plan_runs`, counted, timed, traced and
        charged to the I/O nodes by :func:`io_node_loads`.  Returns the
        number of I/O calls recorded.

        The batch is one segment — one transfer's runs in one file and
        direction — unless ``counts`` gives the runs per segment of
        several laid end to end, with ``file_base_elem`` and ``is_write``
        one value per segment.  Recording segments together or one by
        one leaves the same counters, seconds, loads and trace, bit for
        bit: what is a float sum is accumulated in segment order."""
        p, s = self.params, self.stats
        base = np.asarray(file_base_elem).reshape(-1)
        is_write = np.asarray(is_write).reshape(-1)
        offsets, lengths, counts = plan_runs(
            p, offsets, lengths, [len(offsets)] if counts is None else counts
        )
        if offsets.size == 0:
            return 0
        if not counts.all():  # a segment without calls leaves no mark
            issued = counts > 0
            base, is_write, counts = base[issued], is_write[issued], counts[issued]
        base_col = base.repeat(counts)
        if self.faults is not None or self._batches is not None:
            calls = CallTable(base_col, offsets, lengths, is_write.repeat(counts))
        if self.faults is not None:
            return self._record_runs_faulty(calls)

        elems = np.add.reduceat(lengths, segment_starts(counts))
        n_calls, w_calls, w_elems = offsets.size, counts @ is_write, elems @ is_write
        if n_calls > w_calls:
            self._count_calls(n_calls - w_calls, elems.sum() - w_elems, False)
        if w_calls:
            self._count_calls(w_calls, w_elems, True)
        # a sequential sum, like a recorder adding segment after segment
        seconds = p.batch_time(counts, elems)
        seconds[0] += s.io_time_s
        s.io_time_s = float(np.add.accumulate(seconds)[-1])
        if self.metrics is not None:
            self.metrics.histogram("io.call_elements").observe_many(lengths)
        if self._batches is not None:
            self._batches.append(calls)
        io_node_loads(p, base_col + offsets, lengths, self.io_node_load, counts)
        return int(n_calls)

    def _record_runs_faulty(self, planned: CallTable) -> int:
        """Per-call accounting through the fault injector (one row per
        planned call; each draw depends on the one before).

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
        s = self.stats
        total_calls = 0
        io_nodes = (
            (planned.base + planned.offset) // p.stripe_elements % p.n_io_nodes
        )
        for (file_base, off, ln, write), io_node in zip(
            planned.rows(), io_nodes.tolist()
        ):
            nominal_s = p.call_time(ln * p.element_size)
            out = inj.serial_call(
                io_node, write, nominal_s,
                n_io_nodes=p.n_io_nodes, at_s=s.io_time_s,
            )
            calls = out.attempts + (1 if out.hedged else 0)
            total_calls += calls
            self._count_calls(calls, ln * calls, write)
            s.io_time_s += out.io_time_s
            s.retries += out.retries
            s.failed_calls += out.failed_attempts
            s.retry_delay_s += out.retry_delay_s
            self.io_node_load[io_node] += out.io_time_s
            if out.hedged:
                s.hedged_calls += 1
                self.io_node_load[out.hedge_node] += nominal_s
            if self.metrics is not None:
                h = self.metrics.histogram("io.call_elements")
                for _ in range(calls):
                    h.observe(ln)
                self._publish_faults(out)
            if self._batches is not None:
                self._batches.append(
                    CallTable(file_base, np.full(calls, off), ln, write)
                )
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
