"""Two-phase collective I/O planning (PASSION / ROMIO style).

Under independent out-of-core execution every compute node issues the
I/O calls of its own tile walk.  When the file layout does not conform
to the access pattern, those calls are many and short — and different
nodes' short runs *interleave* in the file, so no node can merge them
alone.  Two-phase collective I/O reorganizes the access at the runtime
layer:

- **Phase 1 (file phase)**: the union of all nodes' requests is
  partitioned into contiguous, stripe-aligned *file domains* — the
  file's conforming partition — and each domain is assigned to one
  *aggregator* node (ROMIO's ``cb_nodes``).  Each aggregator transfers
  its domain with few large calls; the calls are priced by the exact
  same pure :func:`~repro.runtime.stats.plan_runs` as the independent
  path, so the comparison is apples to apples.
- **Phase 2 (redistribution)**: aggregators exchange data with the
  requesting nodes over the interconnect, one message per
  (node, aggregator) pair with overlap, costed by
  :meth:`MachineParams.net_time`.  Writes run the phases in reverse.

The planner only *plans* — it consumes the per-node call traces a nest
recorded and produces the aggregator call lists, the message list and
closed-form cost predictions.  :func:`repro.parallel.spmd
.run_version_parallel` applies the plan per nest when it beats the
independent cost; :mod:`repro.collective.sim` prices either variant
with per-request contention.

The paper's counterpoint is preserved by construction: when compile-time
layout optimization already made every node's accesses conforming, the
aggregators' merged calls are barely fewer than the independent ones and
the redistribution phase is pure overhead — the plan reports
``wins == False`` and the run stays independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..runtime.params import MachineParams
from ..runtime.stats import CallTable, io_node_loads, plan_runs


@dataclass(frozen=True)
class CollectiveConfig:
    """Switches for collective execution in ``run_version_parallel``.

    ``mode``
        ``"auto"`` chooses independent vs. two-phase per nest by
        predicted cost, ``"always"`` forces two-phase wherever a plan
        exists, ``"never"`` keeps every nest independent (useful to get
        the event simulator on an unmodified run).
    ``cb_nodes``
        number of aggregator nodes (default:
        ``min(n_nodes, params.n_io_nodes)``).
    ``simulator``
        ``"event"`` prices the run with the discrete-event simulator,
        ``"closed-form"`` with the aggregate-max :func:`~repro.parallel
        .model.makespan`.
    """

    mode: str = "auto"
    cb_nodes: int | None = None
    simulator: str = "event"

    def __post_init__(self):
        if self.mode not in ("auto", "always", "never"):
            raise ValueError(f"unknown collective mode {self.mode!r}")
        if self.simulator not in ("event", "closed-form"):
            raise ValueError(f"unknown simulator {self.simulator!r}")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError("cb_nodes must be at least 1")


@dataclass(frozen=True)
class FileAccessPlan:
    """Two-phase plan for one (file, direction) of one nest."""

    file_base: int
    is_write: bool
    #: per-aggregator conforming domain, global elements, end-exclusive
    domains: tuple[tuple[int, int], ...]
    #: per-aggregator planned calls (global offsets, lengths) — the
    #: output of ``plan_runs`` over the union of the domain's requests
    agg_offsets: tuple[np.ndarray, ...]
    agg_lengths: tuple[np.ndarray, ...]
    #: (rank, aggregator_index, n_elems) per redistribution message
    messages: tuple[tuple[int, int, int], ...]

    @property
    def n_calls(self) -> int:
        return sum(int(o.size) for o in self.agg_offsets)

    @property
    def n_elements(self) -> int:
        return sum(int(l.sum()) for l in self.agg_lengths)


@dataclass(frozen=True)
class NestCollectivePlan:
    """Per-nest decision record: both paths priced, per repetition and
    in whole-nest seconds (``weight`` repetitions included)."""

    nest_name: str
    weight: int
    n_nodes: int
    aggregators: tuple[int, ...]
    accesses: tuple[FileAccessPlan, ...]
    independent_calls: int          # per repetition, all nodes
    independent_elements: int
    independent_cost_s: float       # whole nest (I/O only, both paths)
    two_phase_calls: int
    two_phase_elements: int
    redist_messages: int            # per repetition
    redist_elements: int
    two_phase_cost_s: float

    @property
    def wins(self) -> bool:
        return self.two_phase_cost_s < self.independent_cost_s

    @property
    def call_reduction(self) -> float:
        if self.two_phase_calls == 0:
            return float("inf") if self.independent_calls else 1.0
        return self.independent_calls / self.two_phase_calls

    def describe(self) -> str:
        verdict = "two-phase" if self.wins else "independent"
        return (
            f"{self.nest_name}: ind {self.independent_calls} calls "
            f"{self.independent_cost_s:.3f}s vs two-phase "
            f"{self.two_phase_calls} calls + {self.redist_messages} msgs "
            f"{self.two_phase_cost_s:.3f}s -> {verdict}"
        )


@dataclass
class CollectiveReport:
    """What ``run_version_parallel`` decided and what it cost."""

    config: CollectiveConfig
    nest_plans: list[NestCollectivePlan] = field(default_factory=list)
    chosen: dict[str, bool] = field(default_factory=dict)
    sim: object | None = None  # SimResult when simulator == "event"
    #: nests whose winning two-phase plan was demoted to independent
    #: I/O because an aggregator rank is marked failed in the active
    #: fault plan (:mod:`repro.faults`); empty without faults
    degraded: list[str] = field(default_factory=list)

    @property
    def n_collective_nests(self) -> int:
        return sum(1 for v in self.chosen.values() if v)

    def plan_for(self, nest_name: str) -> NestCollectivePlan | None:
        for p in self.nest_plans:
            if p.nest_name == nest_name:
                return p
        return None


def union_runs(
    offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Union of possibly overlapping runs -> disjoint sorted runs.

    Unlike the sieve (which requires disjoint input), different nodes
    may request overlapping element ranges; the aggregator transfers
    each element once.
    """
    if offsets.size <= 1:
        return offsets.astype(np.int64), lengths.astype(np.int64)
    order = np.argsort(offsets, kind="stable")
    off = offsets[order].astype(np.int64)
    ln = lengths[order].astype(np.int64)
    reach = np.maximum.accumulate(off + ln)
    breaks = np.flatnonzero(off[1:] > reach[:-1])
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [off.size - 1]))
    return off[starts], reach[stops] - off[starts]


def conforming_partition(
    params: MachineParams, lo: int, hi: int, n_domains: int
) -> list[tuple[int, int]]:
    """Split the accessed range ``[lo, hi)`` of the global element space
    into ``n_domains`` contiguous, stripe-aligned file domains (the
    file's *conforming* partition: each domain is layout-contiguous by
    definition, so a domain transfer is a handful of large calls)."""
    if hi <= lo:
        return [(lo, lo)] * n_domains
    se = params.stripe_elements
    first = lo // se
    n_stripes = (hi - 1) // se - first + 1
    out = []
    for k in range(n_domains):
        s0 = first + (n_stripes * k) // n_domains
        s1 = first + (n_stripes * (k + 1)) // n_domains
        out.append((max(lo, s0 * se), min(hi, s1 * se)))
    return out


def choose_aggregators(n_nodes: int, cb_nodes: int) -> tuple[int, ...]:
    """Evenly spaced aggregator ranks (ROMIO spreads ``cb_nodes`` over
    the communicator for the same reason: balanced memory and links)."""
    cb = max(1, min(cb_nodes, n_nodes))
    ranks = np.unique(np.linspace(0, n_nodes - 1, cb).round().astype(int))
    return tuple(int(r) for r in ranks)


def _clip_runs(
    off: np.ndarray, ln: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clip runs to the domain ``[lo, hi)``; drops empty pieces."""
    s = np.maximum(off, lo)
    e = np.minimum(off + ln, hi)
    keep = e > s
    return s[keep], (e - s)[keep]


def plan_nest_collective(
    params: MachineParams,
    nest_name: str,
    traces: Sequence[CallTable],
    *,
    weight: int = 1,
    cb_nodes: int | None = None,
) -> NestCollectivePlan | None:
    """Plan two-phase I/O for one nest from its per-node call traces
    (one :class:`~repro.runtime.stats.CallTable` per rank; sequences of
    row tuples are coerced).

    Returns ``None`` when no node issued any I/O (nothing to plan).
    Costs cover the I/O and redistribution phases only — compute is
    identical under both paths and cancels out of the decision.
    """
    traces = [CallTable.of(t) for t in traces]
    n_nodes = len(traces)
    if n_nodes == 0 or all(len(t) == 0 for t in traces):
        return None
    cb = cb_nodes if cb_nodes is not None else min(n_nodes, params.n_io_nodes)
    aggregators = choose_aggregators(n_nodes, cb)

    # per-rank global runs, grouped by (file_base, direction)
    groups: dict[tuple[int, bool], list[tuple[int, np.ndarray, np.ndarray]]] = {}
    ind_time = np.zeros(n_nodes)
    ind_calls = 0
    ind_elements = 0
    all_off: list[np.ndarray] = []
    all_len: list[np.ndarray] = []
    for rank, t in enumerate(traces):
        if not len(t):
            continue
        _, first, group = np.unique(
            2 * t.base + t.is_write, return_index=True, return_inverse=True
        )
        # a rank's groups in first-call order: ind_time is a float sum
        # over them and io_node_loads accumulates in call order
        for g in np.argsort(first):
            calls = t.select(group == g)
            off, ln = calls.base + calls.offset, calls.length
            key = (int(calls.base[0]), bool(calls.is_write[0]))
            groups.setdefault(key, []).append((rank, off, ln))
            ind_calls += off.size
            ind_elements += int(ln.sum())
            ind_time[rank] += params.batch_time(off.size, int(ln.sum()))
            all_off.append(off)
            all_len.append(ln)
    ind_loads = io_node_loads(
        params, np.concatenate(all_off), np.concatenate(all_len)
    )
    independent_cost = max(float(ind_time.max()), float(ind_loads.max())) * weight

    # two-phase plan per (file, direction)
    accesses: list[FileAccessPlan] = []
    agg_time = np.zeros(len(aggregators))
    agg_all_off: list[np.ndarray] = []
    agg_all_len: list[np.ndarray] = []
    tp_calls = 0
    tp_elements = 0
    n_messages = 0
    msg_elements = 0
    net_total = 0.0
    for (base, is_write), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        g_off = np.concatenate([o for _, o, _ in members])
        g_len = np.concatenate([l for _, _, l in members])
        lo = int(g_off.min())
        hi = int((g_off + g_len).max())
        domains = conforming_partition(params, lo, hi, len(aggregators))
        d_offsets: list[np.ndarray] = []
        d_lengths: list[np.ndarray] = []
        messages: list[tuple[int, int, int]] = []
        for a, (dlo, dhi) in enumerate(domains):
            c_off, c_len = _clip_runs(g_off, g_len, dlo, dhi)
            u_off, u_len = union_runs(c_off, c_len)
            p_off, p_len = plan_runs(params, u_off, u_len)
            d_offsets.append(p_off)
            d_lengths.append(p_len)
            agg_time[a] += params.batch_time(p_off.size, int(p_len.sum()))
            agg_all_off.append(p_off)
            agg_all_len.append(p_len)
            tp_calls += int(p_off.size)
            tp_elements += int(p_len.sum())
            # redistribution: each rank exchanges its overlap with the
            # domain; the aggregator's own share moves in local memory
            for rank, r_off, r_len in members:
                _, o_len = _clip_runs(r_off, r_len, dlo, dhi)
                vol = int(o_len.sum())
                if vol == 0 or rank == aggregators[a]:
                    continue
                messages.append((rank, a, vol))
                n_messages += 1
                msg_elements += vol
                net_total += params.net_time(vol * params.element_size)
        accesses.append(
            FileAccessPlan(
                base,
                is_write,
                tuple(domains),
                tuple(d_offsets),
                tuple(d_lengths),
                tuple(messages),
            )
        )
    agg_loads = io_node_loads(
        params,
        np.concatenate(agg_all_off) if agg_all_off else np.zeros(0, np.int64),
        np.concatenate(agg_all_len) if agg_all_len else np.zeros(0, np.int64),
    )
    # the file phase is bounded by the busiest aggregator or I/O node;
    # the redistribution phase serializes on the shared channel
    two_phase_cost = (
        max(float(agg_time.max()), float(agg_loads.max())) + net_total
    ) * weight

    return NestCollectivePlan(
        nest_name,
        weight,
        n_nodes,
        aggregators,
        tuple(accesses),
        ind_calls,
        ind_elements,
        independent_cost,
        tp_calls,
        tp_elements,
        n_messages,
        msg_elements,
        two_phase_cost,
    )
