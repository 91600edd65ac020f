"""Per-nest locality optimization via Claim 1 (paper Section 3.2.3).

Given the layouts already fixed by costlier nests (carried as file-fastest
directions ``Δa``), choose

1. the innermost direction ``q_last`` of the inverse loop transformation
   — relation (2): for every reference to a fixed-layout array,
   ``L·q_last`` must be parallel to ``Δa`` (equivalently ``h·L·q_last = 0``
   for every hyperplane ``h ⊥ Δa``) or zero (temporal);
2. a dependence-legal unimodular completion ``Q`` (Bik–Wijshoff), giving
   ``T = Q^{-1}``;
3. fast directions / layout hyperplanes for the arrays still free —
   relation (1): ``Δa = L·q_last``, ``g ∈ Ker{Δa}`` with the min-gcd rule.

Candidates are scored with the I/O cost model; the cheapest legal
combination wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..dependence import DependenceEdge, analyze_nest, transform_is_legal
from ..ir.nest import LoopNest
from ..linalg import IMat, kernel_basis, min_gcd_kernel_vector, primitive
from ..linalg.completion import completion_candidates
from .cost import estimate_nest_io

_COMPLETION_TRIES = 48


@dataclass
class NestDecision:
    nest_name: str
    t: IMat
    q_last: tuple[int, ...]
    new_layouts: dict[str, tuple[int, ...]]      # hyperplane g per array
    new_directions: dict[str, tuple[int, ...]]   # fast direction Δa per array
    estimated_io: float
    report: list[str] = field(default_factory=list)
    #: the nest's dependence edges, when choosing ``t`` needed them —
    #: whoever applies ``t`` checks it against these, not a re-analysis
    edges: list[DependenceEdge] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_identity(self) -> bool:
        return self.t == IMat.identity(self.t.nrows)


def _elementary(k: int, idx: int) -> tuple[int, ...]:
    return tuple(1 if d == idx else 0 for d in range(k))


def _candidate_q_lasts(
    nest: LoopNest, fixed: Mapping[str, tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Innermost-direction candidates: kernel of the fixed-layout
    constraints first (relation 2), then every elementary direction."""
    k = nest.depth
    rows: list[tuple[int, ...]] = []
    for _, ref, _ in nest.refs():
        delta = fixed.get(ref.array.name)
        if delta is None or ref.rank != len(delta) or ref.rank < 2:
            continue
        l = nest.access_matrix(ref)
        for h in kernel_basis(IMat([list(delta)])):
            row = l.vecmat(h)
            if any(row):
                rows.append(row)
    candidates: list[tuple[int, ...]] = []
    if rows:
        m = IMat(rows)
        best = min_gcd_kernel_vector(m, prefer=[_elementary(k, k - 1)])
        if best is not None:
            candidates.append(best)
        for b in kernel_basis(m):
            if b not in candidates:
                candidates.append(b)
    for idx in range(k - 1, -1, -1):
        e = _elementary(k, idx)
        if e not in candidates:
            candidates.append(e)
    return candidates


def _legal_completion(
    q_last: Sequence[int], edges, depth: int
) -> IMat | None:
    """First dependence-legal T whose inverse has ``q_last`` as its last
    column."""
    try:
        gen = completion_candidates(
            tuple(q_last), depth - 1, limit=_COMPLETION_TRIES
        )
    except ValueError:
        return None
    for q in gen:
        t = q.inverse_unimodular()
        if transform_is_legal(t, edges):
            return t
    return None


def choose_direction_for_array(
    access_matrices: Sequence[IMat], q_last: Sequence[int]
) -> tuple[int, ...] | None:
    """The array's file-fastest direction ``Δa = L·q_last``.

    Returns None when unconstrained (all references temporal).  When
    references disagree, the most common direction wins and the rest
    stay unoptimized — the paper's conflicting-requirements case."""
    dirs: list[tuple[int, ...]] = []
    for l in access_matrices:
        v = l.matvec(q_last)
        if any(v):
            dirs.append(primitive(v))
    if not dirs:
        return None
    counts: dict[tuple[int, ...], int] = {}
    for d in dirs:
        counts[d] = counts.get(d, 0) + 1
    return max(counts, key=lambda d: (counts[d], d))


def hyperplane_from_direction(delta: Sequence[int]) -> tuple[int, ...] | None:
    """Relation (1): the layout hyperplane is any (min-gcd) kernel vector
    of ``Δa`` — the paper's representation of the chosen layout."""
    return min_gcd_kernel_vector(IMat([list(delta)]))


def choose_layout_for_array(
    access_matrices: Sequence[IMat], q_last: Sequence[int]
) -> tuple[int, ...] | None:
    """Hyperplane form of :func:`choose_direction_for_array` (None when
    the array is unconstrained)."""
    delta = choose_direction_for_array(access_matrices, q_last)
    if delta is None:
        return None
    return hyperplane_from_direction(delta)


def _derive_layouts(
    by_array: Mapping[str, list[IMat]],
    fixed: Mapping[str, tuple[int, ...]],
    q_last: Sequence[int],
    allow_data: bool,
) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    new_layouts: dict[str, tuple[int, ...]] = {}
    new_dirs: dict[str, tuple[int, ...]] = {}
    if not allow_data:
        return new_layouts, new_dirs
    for name, mats in by_array.items():
        if name in fixed:
            continue
        delta = choose_direction_for_array(mats, q_last)
        if delta is None:
            continue
        g = hyperplane_from_direction(delta)
        if g is not None:
            new_layouts[name] = g
            new_dirs[name] = delta
    return new_layouts, new_dirs


def optimize_nest(
    nest: LoopNest,
    fixed_directions: Mapping[str, tuple[int, ...]],
    binding: Mapping[str, int],
    *,
    allow_loop: bool = True,
    allow_data: bool = True,
) -> NestDecision:
    """Optimize one nest given already-fixed file layouts (as fast
    directions)."""
    k = nest.depth
    edges = analyze_nest(nest) if allow_loop else None
    report: list[str] = []

    if allow_loop:
        candidates = _candidate_q_lasts(nest, fixed_directions)
    else:
        candidates = [_elementary(k, k - 1)]

    by_array: dict[str, list[IMat]] = {}
    for _, ref, _ in nest.refs():
        if ref.rank >= 2:
            by_array.setdefault(ref.array.name, []).append(
                nest.access_matrix(ref)
            )

    best = None
    for q_last in candidates:
        if allow_loop:
            t = _legal_completion(q_last, edges, k)
            if t is None:
                report.append(f"q_last={q_last}: no legal completion")
                continue
        else:
            t = IMat.identity(k)
        new_layouts, new_dirs = _derive_layouts(
            by_array, fixed_directions, q_last, allow_data
        )
        hypothetical: dict[str, tuple[int, ...] | None] = dict(fixed_directions)
        hypothetical.update(new_dirs)
        cost = estimate_nest_io(nest, hypothetical, q_last, binding)
        report.append(f"q_last={q_last}: estimated I/O {cost:.1f}")
        # strict improvement required: on ties keep the earlier (more
        # identity-like) candidate, so no-op transformations never lose
        if best is None or cost < best[0]:
            best = (cost, q_last, t, new_layouts, new_dirs)

    if best is None:  # no candidate had a legal completion
        q_last = _elementary(k, k - 1)
        t = IMat.identity(k)
        new_layouts, new_dirs = _derive_layouts(
            by_array, fixed_directions, q_last, allow_data
        )
        cost = estimate_nest_io(
            nest, {**fixed_directions, **new_dirs}, q_last, binding
        )
        best = (cost, q_last, t, new_layouts, new_dirs)
        report.append("fell back to the identity transformation")

    cost, q_last, t, new_layouts, new_dirs = best
    return NestDecision(
        nest.name, t, q_last, new_layouts, new_dirs, cost, report, edges
    )
