"""Loop distribution: splitting a nest's body into separate nests.

Distribution is legal when statements are regrouped by the strongly
connected components of the statement dependence graph, emitted in
topological order — statements in a dependence cycle must stay together
(Wolfe).  Dependences come from the exact analyzer.
"""

from __future__ import annotations

from ..dependence import analyze_nest
from ..ir.nest import LoopNest


def distribute(nest: LoopNest) -> list[LoopNest]:
    """Split the nest into a maximal legal sequence of smaller nests.

    Returns ``[nest]`` unchanged when the body is a single statement or a
    single dependence cycle.
    """
    if len(nest.body) <= 1:
        return [nest]
    succ: dict[int, set[int]] = {s: set() for s in range(len(nest.body))}
    for edge in analyze_nest(nest):
        if edge.src_stmt != edge.dst_stmt:
            succ[edge.src_stmt].add(edge.dst_stmt)
    groups = statement_groups(succ)
    if len(groups) == 1:
        return [nest]
    out = []
    for gi, members in enumerate(groups):
        body = [nest.body[m] for m in members]
        out.append(
            LoopNest.make(
                f"{nest.name}.d{gi}", nest.loops, body, nest.params, nest.weight
            )
        )
    return out


def _reachable(succ: dict[int, set[int]], s: int) -> set[int]:
    seen, stack = {s}, [s]
    while stack:
        new = succ[stack.pop()] - seen
        seen |= new
        stack.extend(new)
    return seen


def statement_groups(succ: dict[int, set[int]]) -> list[list[int]]:
    """The strongly connected components of a statement dependence graph
    ``{stmt: successors}`` in topological order, ties broken by original
    statement position (keeps output deterministic and readable)."""
    # a dependence cycle = mutual reachability; a few dozen statements at
    # most, so the closure is taken per statement.  Groups are collected
    # by first member: textual order among independent ones
    reach = {s: _reachable(succ, s) for s in succ}
    remaining: list[set[int]] = []
    for s in succ:
        if not any(s in grp for grp in remaining):
            remaining.append({t for t in reach[s] if s in reach[t]})
    placed: list[list[int]] = []
    used: set[int] = set()
    while remaining:
        for idx, grp in enumerate(remaining):
            preds = {p for p, ts in succ.items() if p not in grp and ts & grp}
            if preds <= used:
                placed.append(sorted(grp))
                used |= grp
                remaining.pop(idx)
                break
        else:
            # dependence cycle across groups cannot happen (SCC condensation)
            raise AssertionError("no schedulable group found")
    return placed
