"""The pricing kernel: what a batch of file runs costs, loop-free.

A *segment* is one transfer — a file, a direction, its contiguous runs.
:func:`plan_runs` turns segments' runs into the I/O calls the machine
would issue (sieve small gaps, split at the request cap) and
:func:`io_node_loads` spreads calls over the striped I/O nodes.  Both
are pure and work on any number of segments laid end to end, one numpy
pass each; the accounting on top is :class:`repro.runtime.stats
.IOContext`, and the autotune model, the tile cache's credit and the
collective planner price with the same two functions.
"""

from __future__ import annotations

import numpy as np

from ..obs import profile as _prof
from .params import MachineParams


def segment_starts(counts: np.ndarray) -> np.ndarray:
    """Where each segment begins in a batch's concatenated columns, given
    the segments' sizes — ``repeat`` / ``reduceat`` want one or the other."""
    return counts.cumsum() - counts


def _expand(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Item ``i`` taken ``sizes[i]`` times over: each copy's item, and
    which copy of it (0, 1, …) it is."""
    item = np.arange(sizes.size).repeat(sizes)
    return item, np.arange(item.size) - segment_starts(sizes)[item]


def _sieve(
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_gap_elems: int,
    seg: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data sieving: merge runs whose gaps are at most ``max_gap`` into
    single spanning calls (the gap bytes are transferred and discarded —
    or rewritten unchanged for writes, which are tile-level
    read-modify-write here).  Runs must be disjoint.  ``seg`` is each
    run's segment, non-decreasing (all one segment by default): runs
    merge within a segment only, and each merged call's segment is
    returned with it."""
    if seg is None:
        seg = np.zeros(offsets.size, dtype=np.int64)
    if offsets.size <= 1:
        # nothing to merge: zero runs (no gaps at all) or a single run
        return offsets, lengths, seg
    order = np.lexsort((offsets, seg))  # stable; leaves ``seg`` as it is
    offsets, lengths = offsets[order], lengths[order]
    ends = offsets + lengths
    head = np.ones(offsets.size, dtype=bool)  # runs that begin a call
    head[1:] = (offsets[1:] - ends[:-1] > max_gap_elems) | (seg[1:] != seg[:-1])
    if head.all():
        return offsets, lengths, seg
    last = np.ones(offsets.size, dtype=bool)  # runs that end one
    last[:-1] = head[1:]
    return offsets[head], ends[last] - offsets[head], seg[head]


def plan_runs(
    params: MachineParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    counts: np.ndarray | None = None,
):
    """The exact I/O calls :meth:`IOContext.record_runs` would issue for a
    batch of contiguous runs: sieve small gaps, then split runs longer
    than the maximum request size.  Pure — no accounting is recorded —
    so the tile cache can price *avoided* transfers identically.

    The batch is one *segment* (one transfer's runs) unless ``counts``
    gives the runs per segment of several laid end to end; segments are
    planned independently — a segment boundary is a sieve break — in
    one pass, and the result is then ``(offsets, lengths, counts)`` with
    the calls per segment instead of ``(offsets, lengths)``."""
    _prof.WORK.plan_runs_calls += 1
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    segmented = counts is not None
    counts = np.asarray(counts if segmented else [offsets.size], dtype=np.int64)
    if offsets.size:
        seg = np.arange(counts.size).repeat(counts)
        cap = np.full(counts.size, params.max_request_elements)
        if params.sieve_gap_bytes:
            es = params.element_size
            if params.sieve_buffer_bytes:
                # the sieve buffer bounds the calls of a sieved transfer
                # (a lone run is not sieved)
                cap[counts > 1] = min(cap[0], params.sieve_buffer_bytes // es)
            offsets, lengths, seg = _sieve(
                offsets, lengths, params.sieve_gap_bytes // es, seg
            )
        cap = cap[seg]
        if (lengths > cap).any():
            run, piece = _expand(np.maximum(-(-lengths // cap), 1))
            done = piece * cap[run]
            offsets = offsets[run] + done
            lengths = np.minimum(cap[run], lengths[run] - done)
            seg = seg[run]
        counts = np.bincount(seg, minlength=counts.size)
    _prof.WORK.priced_runs += int(offsets.size)
    return (offsets, lengths, counts) if segmented else (offsets, lengths)


def io_node_loads(
    params: MachineParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Per-I/O-node service seconds of a batch of final calls (global
    element offsets): latency at the first servicing node, transfer
    spread over the stripes each call covers.  Accumulates into ``out``
    — a fresh zero vector by default.

    Float addition is ordered, and the order is part of the result:
    segment by segment (``counts`` calls each; one segment by default),
    a segment's latencies in call order, then its calls' first stripes
    in call order, their second stripes, and so on.  Every contribution
    is emitted at once, put in that order, and added by one sequential
    scatter that starts from the running load — what a recorder adding
    segment after segment, stripe after stripe would hold."""
    load = np.zeros(params.n_io_nodes, dtype=np.float64) if out is None else out
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size == 0:
        return load
    se, nodes = params.stripe_elements, params.n_io_nodes
    start, end = offsets, offsets + lengths
    first = start // se
    span = (end - 1) // se - first + 1  # stripes a call covers
    call, k = _expand(span)
    stripe = first[call] + k
    seconds = (
        np.minimum(end[call], (stripe + 1) * se)
        - np.maximum(start[call], stripe * se)
    ) * (params.element_size / params.io_bandwidth_bps)
    node = np.concatenate((first, stripe)) % nodes
    seconds = np.concatenate(
        (np.full(offsets.size, params.io_latency_s), seconds)
    )
    top = int(span.max())
    segmented = counts is not None and len(counts) > 1
    if top > 1 or segmented:
        # rank in the order above: 0 for a latency, 1 + k for stripe k,
        # behind the segment when there are several (as emitted they are
        # in order only when one segment's calls sit in one stripe each)
        rank = np.concatenate((np.zeros(offsets.size, dtype=np.int64), 1 + k))
        if segmented:
            seg = np.arange(len(counts)).repeat(counts)
            rank += np.concatenate((seg, seg[call])) * (top + 1)
        order = np.argsort(rank, kind="stable")
        node, seconds = node[order], seconds[order]
    load[:] = np.bincount(
        np.concatenate((np.arange(nodes), node)),
        weights=np.concatenate((load, seconds)),
    )
    return load
