"""The simulated parallel file system: file placement and striping.

Files are laid out back to back in a global element space; stripe ``s``
of the space is serviced by I/O node ``s mod n_io_nodes`` (round-robin,
as on the Paragon's PFS).  The PFS hands each file a base offset so that
different arrays start on different I/O nodes, spreading load.
"""

from __future__ import annotations

from .params import MachineParams


class ParallelFileSystem:
    def __init__(self, params: MachineParams):
        self.params = params
        #: where the next file will start
        self.next_base = 0
        self.files: dict[str, int] = {}

    def allocate(self, name: str, n_elements: int) -> int:
        """Reserve space for a file; returns its base element offset."""
        if name in self.files:
            raise ValueError(f"file {name} already allocated")
        base = self.next_base
        self.files[name] = base
        # round up to a stripe boundary so every file starts clean
        se = self.params.stripe_elements
        self.next_base = base + ((n_elements + se - 1) // se) * se
        return base

    def advance(self, n_elements: int) -> None:
        """Skip ahead in the global element space (stripe-aligned) — used
        by the SPMD simulator to stagger different nodes' file partitions
        across the I/O nodes, as contiguous per-node ranges would be."""
        se = self.params.stripe_elements
        self.next_base += ((int(n_elements) + se - 1) // se) * se

    def io_node_of(self, global_elem: int) -> int:
        return (global_elem // self.params.stripe_elements) % self.params.n_io_nodes
