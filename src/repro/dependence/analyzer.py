"""Exact dependence extraction on a small parameter instantiation.

For every pair of references to the same array (at least one a write),
independence is first attacked with the GCD and Banerjee tests; surviving
pairs are resolved *exactly* at one parameter binding (``param = depth +
3`` by default) by joining the nest's columnar accesses
(:func:`repro.ir.domain.accesses`) on the touched element.  The answer is
exact for that binding only: ``B(2i, j) = B(3N + 2 - 2i, j)`` meets itself
only for even N, so the default N = 5 misses its edges.
Distance sets are additionally exact for uniform (equal-access-matrix)
pairs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..ir.arrays import ArrayRef
from ..ir.domain import accesses
from ..ir.nest import LoopNest
from ..obs import profile as _prof
from .banerjee import banerjee_independent
from .dio_test import diophantine_independent
from .gcd_test import gcd_independent
from .vectors import DependenceEdge, direction_of

_DISTANCES_PER_EDGE_CAP = 64


def _small_binding(nest: LoopNest) -> dict[str, int]:
    size = nest.depth + 3
    return {p: size for p in nest.params}


def _is_uniform(r1: ArrayRef, r2: ArrayRef, loop_vars: Sequence[str]) -> bool:
    if r1.access_matrix(loop_vars) != r2.access_matrix(loop_vars):
        return False
    # offsets must differ only by integer constants (params must match)
    for o1, o2 in zip(r1.offset_exprs(loop_vars), r2.offset_exprs(loop_vars)):
        if (o1 - o2).coeffs:
            return False
    return True


def analyze_pairwise(
    nest: LoopNest,
    s1_idx: int,
    r1: ArrayRef,
    r1_writes: bool,
    s2_idx: int,
    r2: ArrayRef,
    r2_writes: bool,
    binding: Mapping[str, int],
    touched: Mapping[tuple, Sequence[tuple[tuple[int, ...], tuple[int, ...]]]],
) -> list[DependenceEdge]:
    """Dependences between one ordered reference pair (both orientations);
    ``touched`` is the nest's :func:`~repro.ir.domain.accesses`."""
    _prof.WORK.dependence_pairs += 1
    loop_vars = nest.loop_vars
    if gcd_independent(r1, r2, loop_vars):
        return []
    if diophantine_independent(r1, r2, loop_vars):
        return []
    if banerjee_independent(r1, r2, nest, binding):
        return []

    # hash-join on touched element
    touch1: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for key, vec in touched[s1_idx, r1, r1_writes]:
        touch1.setdefault(key, []).append(vec)

    hits: dict[tuple[str, int, int], set[tuple[int, ...]]] = {}
    for key, vec2 in touched[s2_idx, r2, r2_writes]:
        for vec1 in touch1.get(key, ()):
            if vec1 == vec2:
                if s1_idx == s2_idx:
                    continue  # same instance of the same statement
                # loop-independent: direction by statement order
                if s1_idx < s2_idx:
                    src, dst, dist = s1_idx, s2_idx, tuple(
                        a - b for a, b in zip(vec2, vec1)
                    )
                    src_writes = r1_writes
                else:
                    src, dst, dist = s2_idx, s1_idx, tuple(
                        a - b for a, b in zip(vec1, vec2)
                    )
                    src_writes = r2_writes
            elif vec1 < vec2:
                src, dst = s1_idx, s2_idx
                dist = tuple(a - b for a, b in zip(vec2, vec1))
                src_writes = r1_writes
            else:
                src, dst = s2_idx, s1_idx
                dist = tuple(a - b for a, b in zip(vec1, vec2))
                src_writes = r2_writes
            dst_writes = r2_writes if src == s1_idx else r1_writes
            if src_writes and dst_writes:
                kind = "output"
            elif src_writes:
                kind = "flow"
            else:
                kind = "anti"
            hits.setdefault((kind, src, dst), set()).add(dist)

    uniform = _is_uniform(r1, r2, loop_vars)
    edges = []
    for (kind, src, dst), dists in hits.items():
        edges.append(
            DependenceEdge(
                r1.array.name,
                src,
                dst,
                kind,
                frozenset(_cap_distances(dists)),
                exact=uniform,
            )
        )
    return edges


def _cap_distances(dists: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Bound the stored distance set while keeping every direction pattern
    represented (legality only needs directions for non-uniform edges)."""
    if len(dists) <= _DISTANCES_PER_EDGE_CAP:
        return dists
    by_dir: dict[tuple, list[tuple[int, ...]]] = {}
    for d in dists:
        by_dir.setdefault(direction_of(d), []).append(d)
    kept: set[tuple[int, ...]] = set()
    per_dir = max(1, _DISTANCES_PER_EDGE_CAP // len(by_dir))
    for ds in by_dir.values():
        kept.update(sorted(ds)[:per_dir])
    return kept


def analyze_nest(
    nest: LoopNest, binding: Mapping[str, int] | None = None
) -> list[DependenceEdge]:
    """All data dependences carried by or within one nest."""
    binding = dict(binding) if binding is not None else _small_binding(nest)
    touched = accesses(nest, binding)
    refs = list(nest.refs())  # (stmt_idx, ref, is_write)
    edges: list[DependenceEdge] = []
    seen_pairs: set[tuple] = set()
    for a, (i1, r1, w1) in enumerate(refs):
        for i2, r2, w2 in refs[a:]:
            if not (w1 or w2):
                continue
            if r1.array.name != r2.array.name:
                continue
            key = (i1, id(r1), i2, id(r2))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            edges.extend(
                analyze_pairwise(nest, i1, r1, w1, i2, r2, w2, binding, touched)
            )
    return _merge_edges(edges)


def _merge_edges(edges: list[DependenceEdge]) -> list[DependenceEdge]:
    merged: dict[tuple, DependenceEdge] = {}
    for e in edges:
        key = (e.array, e.src_stmt, e.dst_stmt, e.kind)
        if key in merged:
            prev = merged[key]
            merged[key] = DependenceEdge(
                e.array,
                e.src_stmt,
                e.dst_stmt,
                e.kind,
                prev.distances | e.distances,
                exact=prev.exact and e.exact,
            )
        else:
            merged[key] = e
    return list(merged.values())
