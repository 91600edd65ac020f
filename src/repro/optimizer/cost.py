"""Cost model: ranking nests and scoring candidate (T, layouts) choices.

The paper orders nests "according to a cost criterion using profile
information" (step 3.a).  For these regular codes a static estimate ranks
identically: a nest's cost is its timing-loop weight times its iteration
count times the number of out-of-core references per iteration.

For *scoring* a candidate transformation the model estimates I/O volume
per reference from its innermost-loop behaviour (Claim 1):

- temporal locality (``L q_last = 0``): one tile fetch amortized over the
  whole innermost loop,
- spatial locality (``L q_last`` parallel to the layout's file-fastest
  direction ``Δa``): one file run per ``R`` elements (``R`` = innermost
  trip, capped by the max request size),
- neither: a separate file run for *every* innermost iteration.

A layout is carried as its fast direction ``Δa`` (for a 2-D hyperplane
``g``, ``Δa ⊥ g`` — the two forms are equivalent; directions stay exact
for rank >= 3 where a single hyperplane under-determines the layout).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..ir.nest import LoopNest
from ..layout import temporal_locality_ok
from ..linalg import IMat, primitive


def nest_cost(nest: LoopNest, binding: Mapping[str, int]) -> float:
    """Profile-style cost used to order nests (bigger = costlier)."""
    refs = sum(1 for _ in nest.refs())
    return float(nest.weight) * nest.estimated_iterations(binding) * max(1, refs)


def access_is_spatial(
    l: IMat, q_last: Sequence[int], direction: Sequence[int] | None
) -> bool:
    """True iff consecutive innermost iterations touch file-consecutive
    (or constant-stride-along-the-fast-axis) elements."""
    v = l.matvec(q_last)
    if not any(v):
        return True  # temporal, strictly better
    if direction is None:
        return False
    return primitive(v) == primitive(direction)


def ref_calls(
    iterations: float,
    l: IMat,
    rank: int,
    q_last: Sequence[int],
    direction: Sequence[int] | None,
    inner_trip: int,
    run_cap: int = 4096,
) -> float:
    """Estimated I/O calls of one reference over ``iterations``
    iterations of its nest (the module docstring's temporal / spatial /
    neither) — the one per-reference term the greedy and the ILP
    objectives share.  The caller chooses what ``iterations`` carries:
    the bare count, or the count already scaled by the nest weight."""
    run = min(inner_trip, run_cap)
    v = l.matvec(q_last)
    if not any(v):
        return iterations / (inner_trip * run)
    if rank == 1:
        spatial = abs(v[0]) == 1
    else:
        spatial = access_is_spatial(l, q_last, direction)
    return iterations / run if spatial else float(iterations)


def _ref_io_terms(
    nest: LoopNest,
    directions: Mapping[str, Sequence[int] | None],
    q_last: Sequence[int],
    binding: Mapping[str, int],
    run_cap: int,
) -> list[tuple[str, float]]:
    """Per-reference (array name, unweighted estimated calls) in textual
    reference order — the shared core of :func:`estimate_nest_io` and
    :func:`estimate_nest_io_breakdown`."""
    iters = max(1, nest.estimated_iterations(binding))
    inner_trip = nest.innermost_trip(binding)
    return [
        (ref.array.name, ref_calls(
            iters, nest.access_matrix(ref), ref.rank, q_last,
            directions.get(ref.array.name), inner_trip, run_cap,
        ))
        for _, ref, _ in nest.refs()
    ]


def estimate_nest_io(
    nest: LoopNest,
    directions: Mapping[str, Sequence[int] | None],
    q_last: Sequence[int],
    binding: Mapping[str, int],
    *,
    run_cap: int = 4096,
) -> float:
    """Estimated I/O calls for one pass of the nest under a candidate
    ``q_last`` and per-array fast directions.  Relative, not absolute."""
    total = 0.0
    for _, term in _ref_io_terms(nest, directions, q_last, binding, run_cap):
        total += term
    return total * nest.weight


def estimate_nest_io_breakdown(
    nest: LoopNest,
    directions: Mapping[str, Sequence[int] | None],
    q_last: Sequence[int],
    binding: Mapping[str, int],
    *,
    run_cap: int = 4096,
) -> dict[str, float]:
    """Per-array split of :func:`estimate_nest_io` — same model, same
    weight scaling, grouped by referenced array.  The values sum to the
    scalar estimate (up to float addition order); the drift telemetry
    compares each against the array's measured I/O calls."""
    out: dict[str, float] = {}
    for name, term in _ref_io_terms(nest, directions, q_last, binding, run_cap):
        out[name] = out.get(name, 0.0) + term
    return {name: v * nest.weight for name, v in out.items()}


def layout_directions(
    layouts: Mapping[str, object],
) -> dict[str, tuple[int, ...] | None]:
    """File-fastest direction per array from concrete layout objects —
    the inverse of :func:`repro.layout.layout_from_direction`.  Linear
    layouts yield their :meth:`~repro.layout.LinearLayout.unit_step`;
    blocked/chunked layouts have no single fast direction (``None``,
    which the model scores as non-spatial)."""
    from ..layout import LinearLayout

    return {
        name: layout.unit_step() if isinstance(layout, LinearLayout) else None
        for name, layout in layouts.items()
    }


def predict_program_io(
    program,
    layouts: Mapping[str, object],
    binding: Mapping[str, int] | None = None,
    *,
    run_cap: int = 4096,
) -> dict[str, dict[str, float]]:
    """The optimizer's predicted I/O per (nest, array) for a program *as
    executed*: the program is already transformed, so every nest's
    effective ``q_last`` is the innermost unit vector, and the per-array
    fast directions come from the concrete file layouts.

    This is the prediction side of the cost-model drift telemetry
    (:class:`repro.obs.report.CostDriftRecord`): the same
    :func:`estimate_nest_io` arithmetic the optimizer ranked candidates
    with, evaluated at the choice it made, so measured divergence is
    model error — not bookkeeping skew.
    """
    b = program.binding(binding)
    directions = layout_directions(layouts)
    out: dict[str, dict[str, float]] = {}
    for nest in program.nests:
        q_last = (0,) * (nest.depth - 1) + (1,)
        out[nest.name] = estimate_nest_io_breakdown(
            nest, directions, q_last, b, run_cap=run_cap
        )
    return out


def estimate_nest_elements(
    nest: LoopNest,
    q_last: Sequence[int],
    binding: Mapping[str, int],
) -> float:
    """Modeled element transfers for the nest (weight included): one
    element per iteration per reference, except temporal references
    whose fetched tile is reused across the whole innermost loop.
    Element counts are layout-independent in this model — layouts move
    *calls*, not touched elements."""
    iters = max(1, nest.estimated_iterations(binding))
    inner_trip = nest.innermost_trip(binding)
    total = 0.0
    for _, ref, _ in nest.refs():
        l = nest.access_matrix(ref)
        if temporal_locality_ok(l, q_last):
            total += iters / inner_trip
        else:
            total += float(iters)
    return total * nest.weight


def predict_program_elements(
    program,
    binding: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Modeled element transfers per nest for a program as executed
    (innermost unit ``q_last`` per nest, like :func:`predict_program_io`).
    The "modeled" column of the optimality telemetry: how many element
    touches the cost model expects, to sit between the static lower
    bound and the measured transfers."""
    b = program.binding(binding)
    out: dict[str, float] = {}
    for nest in program.nests:
        q_last = (0,) * (nest.depth - 1) + (1,)
        out[nest.name] = estimate_nest_elements(nest, q_last, b)
    return out
