"""Loop fusion (paper step 1, used to form perfect nests and merge
compatible neighbors).

Fusion of two adjacent nests is legal iff no element touched by the first
nest at iteration ``p1`` and by the second at ``p2`` (one access a write)
has ``p2 ≺ p1`` — in the fused nest that pair would execute in the wrong
order.  :func:`reaches_back` asks the dependence solver
(:func:`repro.dependence.meeting_directions`) for that pattern, for
every value of the parameters.
"""

from __future__ import annotations

from ..dependence import lex_positive, meeting_directions
from ..ir.nest import LoopNest


def _bounds_match(a: LoopNest, b: LoopNest) -> bool:
    if a.depth != b.depth:
        return False
    rename = dict(zip(b.loop_vars, a.loop_vars))
    for la, lb in zip(a.loops, b.loops):
        if la != lb.renamed(rename):
            return False
    return True


def can_fuse(a: LoopNest, b: LoopNest) -> bool:
    """True when the two adjacent nests may be fused."""
    if not _bounds_match(a, b) or a.weight != b.weight:
        return False
    return not reaches_back(a, b, a.depth)


def reaches_back(first: LoopNest, later: LoopNest, prefix_len: int) -> bool:
    """True when ``later`` touches an element ``first`` also touches, one
    of the two writing, at a loop prefix (the first ``prefix_len``
    loops, compared position by position) strictly before ``first``'s:
    running ``first`` to completion before ``later`` reverses that pair."""
    return any(
        not lex_positive(pattern)
        for s1, r1, w1 in first.refs()
        for s2, r2, w2 in later.refs()
        if (w1 or w2) and r1.array.name == r2.array.name
        for pattern in meeting_directions(
            (first, first.body[s1], r1), (later, later.body[s2], r2), prefix_len
        )
    )


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
