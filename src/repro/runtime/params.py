"""Machine model constants (Paragon/PFS-like, late-1990s magnitudes).

The absolute values matter less than their *ratios*: the regime the paper
targets is per-call latency dominating transfer cost for small requests,
which is what makes reducing the number of I/O calls the leading
optimization.  All constants are parameters so benchmarks can sweep them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def check_n_nodes(n_nodes: int) -> None:
    """The one node-count rule: every entry point that takes a compute
    node count calls this before it plans anything, so ``0``, ``-2`` or
    ``1.5`` is a named error there instead of an empty run, a clamped
    cluster or a ``TypeError`` further down."""
    if not isinstance(n_nodes, numbers.Integral) or n_nodes < 1:
        raise ValueError(
            f"n_nodes must be a positive integer, got {n_nodes!r}"
        )


@dataclass(frozen=True)
class MachineParams:
    n_io_nodes: int = 64
    stripe_bytes: int = 64 * 1024        # PFS stripe unit (64 KB)
    io_latency_s: float = 0.015          # per-call software + seek overhead
    io_bandwidth_bps: float = 3.0e6      # per-I/O-node sustained bandwidth
    max_request_bytes: int = 4 * 1024 * 1024
    element_size: int = 8                # double precision
    #: per-statement-execution cost: a late-90s microprocessor (Paragon
    #: i860 class) spends ~1 µs per element on a few flops plus loop and
    #: address arithmetic — about 0.4x the per-element disk transfer
    #: time, which is what bounds the paper's improvement ratios
    compute_per_element_s: float = 1.0e-6
    memory_fraction: int = 128           # memory = data size / this
    #: data-sieving window: runs separated by gaps of at most this many
    #: bytes are transferred with one call that spans the gap (PASSION /
    #: ROMIO-style sieving; writes are read-modify-write at tile level,
    #: so they sieve the same way).  0 disables sieving.  The break-even
    #: gap is io_latency * bandwidth (≈45 KB with the defaults).
    sieve_gap_bytes: int = 0
    #: sieve buffer: a single sieved call spans at most this many bytes
    #: (ROMIO's bounded sieve buffer).  Prevents the degenerate
    #: "read the whole array and filter" the paper rules out.
    sieve_buffer_bytes: int = 64 * 1024
    #: interconnect: per-message software latency and shared-channel
    #: bandwidth (Paragon mesh magnitudes).  The interconnect is far
    #: faster than an I/O node, which is exactly what makes two-phase
    #: collective I/O pay: trading disk calls for messages is profitable
    #: whenever the layout is non-conforming.
    net_latency_s: float = 5.0e-5
    net_bandwidth_bps: float = 50.0e6

    def __post_init__(self):
        if self.n_io_nodes <= 0 or self.stripe_bytes <= 0:
            raise ValueError("I/O node count and stripe size must be positive")
        if self.max_request_bytes < self.element_size:
            raise ValueError("max request smaller than one element")
        if self.io_latency_s < 0 or self.io_bandwidth_bps <= 0:
            raise ValueError(
                "I/O latency must be non-negative and bandwidth positive"
            )
        # named interconnect checks: a NaN or infinite value silently
        # poisons every downstream makespan, so reject it up front
        if not math.isfinite(self.net_latency_s) or self.net_latency_s < 0:
            raise ValueError(
                f"net_latency_s must be finite and non-negative, "
                f"got {self.net_latency_s!r}"
            )
        if (
            not math.isfinite(self.net_bandwidth_bps)
            or self.net_bandwidth_bps <= 0
        ):
            raise ValueError(
                f"net_bandwidth_bps must be finite and positive, "
                f"got {self.net_bandwidth_bps!r}"
            )
        if self.sieve_gap_bytes < 0 or self.sieve_buffer_bytes < 0:
            raise ValueError("sieve gap/buffer sizes must be non-negative")

    @property
    def max_request_elements(self) -> int:
        return self.max_request_bytes // self.element_size

    @property
    def stripe_elements(self) -> int:
        return max(1, self.stripe_bytes // self.element_size)

    def memory_budget(
        self, total_elements: int, requested: int | None = None
    ) -> int:
        """A node's memory budget in elements: ``requested`` when given
        (``0`` is not "unset" — it is rejected like any non-positive
        budget), else the paper's fraction of the program's data size,
        never under 64 elements.  The one rule every entry point that
        takes an optional budget shares."""
        if requested is None:
            return max(64, total_elements // self.memory_fraction)
        if requested <= 0:
            raise ValueError("memory budget must be positive")
        return requested

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.io_bandwidth_bps

    def call_time(self, nbytes: int) -> float:
        return self.io_latency_s + self.transfer_time(nbytes)

    def batch_time(self, n_calls: int, n_elems: int) -> float:
        """Serial seconds of ``n_calls`` I/O calls moving ``n_elems``
        elements in total — the one formula every layer that prices a
        batch of calls shares (accounting, cache credit, collective
        planner, per-array records), so their floats agree bit for bit."""
        return n_calls * self.io_latency_s + (
            n_elems * self.element_size / self.io_bandwidth_bps
        )

    def compute_time(
        self, iterations: float, ops_per_iteration: int = 1
    ) -> float:
        """Seconds of ``iterations`` loop-body executions of
        ``ops_per_iteration`` statements each — what the executor
        charges per tile and the autotune model per nest."""
        return iterations * ops_per_iteration * self.compute_per_element_s

    def net_time(self, nbytes: int) -> float:
        """Cost of one interconnect message (redistribution phase)."""
        return self.net_latency_s + nbytes / self.net_bandwidth_bps


#: Tiny machine used by unit tests and the Figure-3 reproduction: memory of
#: 32 elements, at most 8 elements per I/O call, 4 I/O nodes.
FIGURE3_PARAMS = MachineParams(
    n_io_nodes=4,
    stripe_bytes=8 * 8,
    io_latency_s=1.0,
    io_bandwidth_bps=8.0,
    max_request_bytes=8 * 8,
    memory_fraction=2,
)
