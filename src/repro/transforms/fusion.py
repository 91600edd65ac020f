"""Loop fusion (paper step 1, used to form perfect nests and merge
compatible neighbors).

Fusion of two adjacent nests is legal iff no element touched by the first
nest at iteration ``p1`` and by the second at ``p2`` (one access a write)
has ``p2 ≺ p1`` — in the fused nest that pair would execute in the wrong
order.  We verify this exactly on a small parameter instantiation (the
same small-model regime as the dependence analyzer).
"""

from __future__ import annotations

from typing import Mapping

from ..ir.domain import accesses
from ..ir.nest import LoopNest


def _bounds_match(a: LoopNest, b: LoopNest) -> bool:
    if a.depth != b.depth:
        return False
    rename = dict(zip(b.loop_vars, a.loop_vars))
    for la, lb in zip(a.loops, b.loops):
        if la != lb.renamed(rename):
            return False
    return True


def can_fuse(
    a: LoopNest, b: LoopNest, binding: Mapping[str, int] | None = None
) -> bool:
    """True when the two adjacent nests may be fused."""
    if not _bounds_match(a, b) or a.weight != b.weight:
        return False
    binding = dict(binding) if binding is not None else {
        p: a.depth + 3 for p in set(a.params) | set(b.params)
    }
    return not reaches_back(a, b, a.depth, binding)


def reaches_back(
    first: LoopNest, later: LoopNest, prefix_len: int, binding: Mapping[str, int]
) -> bool:
    """True when ``later`` touches an element ``first`` also touches, one
    of the two writing, at a loop prefix (the first ``prefix_len``
    loops, compared position by position) strictly before ``first``'s:
    running ``first`` to completion before ``later`` reverses that pair."""

    def touch_map(nest: LoopNest):
        out: dict[tuple, list[tuple[tuple[int, ...], bool]]] = {}
        for (_, ref, is_write), pairs in accesses(nest, binding).items():
            for key, vec in pairs:
                out.setdefault((ref.array.name, *key), []).append(
                    (vec[:prefix_len], is_write)
                )
        return out

    earlier = touch_map(first)
    for key, accesses_b in touch_map(later).items():
        for pa, wa in earlier.get(key, ()):
            if any((wa or wb) and pb < pa for pb, wb in accesses_b):
                return True
    return False


def fuse(a: LoopNest, b: LoopNest, name: str | None = None) -> LoopNest:
    """Fuse two compatible nests (caller must have checked :func:`can_fuse`)."""
    if not _bounds_match(a, b):
        raise ValueError(f"cannot fuse {a.name} and {b.name}: bounds differ")
    rename = dict(zip(b.loop_vars, a.loop_vars))
    from ..ir.affine import AffineExpr

    substitution = {
        old: AffineExpr.var(new) for old, new in rename.items() if old != new
    }
    body = list(a.body) + [s.substituted(substitution) for s in b.body]
    return LoopNest.make(
        name or f"{a.name}+{b.name}",
        a.loops,
        body,
        tuple(dict.fromkeys(a.params + b.params)),
        a.weight,
    )
