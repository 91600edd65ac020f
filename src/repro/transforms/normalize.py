"""Normalization of imperfect loop trees into perfect-nest sequences
(paper Section 3, step (1): loop fusion, loop distribution, code sinking).

The pipeline per loop tree:

1. **Code sinking** — statements sitting between loops are pushed into the
   adjacent inner loop, guarded to run only on its first (or last)
   iteration.  Always legal: execution order is unchanged.
2. **Recursion** — each inner loop child is normalized on its own.
3. **Fusion** — adjacent perfect siblings with matching bounds are fused
   when :func:`repro.transforms.fusion.can_fuse` proves it safe.
4. **Distribution** — remaining siblings become separate nests:
   distributing the shared outer loops over children reorders
   conflicting accesses only if a later child touches an element
   *earlier* (by outer-iteration prefix) than an earlier child —
   :func:`repro.transforms.fusion.reaches_back` checks no such pair
   exists for any value of the parameters.

The result is validated structurally (each output is a perfect nest) and
the statement multiset is preserved.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.loops import Loop
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..ir.statements import Condition, Statement
from ..ir.tree import LoopNode, StmtNode, TreeNode
from .fusion import can_fuse, fuse, reaches_back


class NormalizationError(ValueError):
    pass


def _sink_statements(node: LoopNode) -> LoopNode:
    """Push statement children into adjacent loop children with guards."""
    loops = node.loop_children()
    if not loops:
        return node
    children = list(node.children)
    new_loops: dict[int, list] = {}
    loop_positions = [k for k, c in enumerate(children) if isinstance(c, LoopNode)]
    for k, c in enumerate(children):
        if not isinstance(c, StmtNode):
            continue
        following = [p for p in loop_positions if p > k]
        if following:
            target = following[0]
            tgt_loop = children[target]
            assert isinstance(tgt_loop, LoopNode)
            guard = Condition.eq(
                _var_expr(tgt_loop.loop.var), tgt_loop.loop.lower
            )
            new_loops.setdefault(target, []).insert(
                0, StmtNode(_add_guard(c.stmt, guard))
            )
        else:
            target = loop_positions[-1]
            tgt_loop = children[target]
            assert isinstance(tgt_loop, LoopNode)
            guard = Condition.eq(
                _var_expr(tgt_loop.loop.var), tgt_loop.loop.upper
            )
            new_loops.setdefault(target, []).append(
                StmtNode(_add_guard(c.stmt, guard))
            )
    out_children: list[TreeNode] = []
    for k, c in enumerate(children):
        if isinstance(c, StmtNode):
            continue
        assert isinstance(c, LoopNode)
        pre = [s for s in new_loops.get(k, []) if _is_entry_guarded(s, c)]
        post = [s for s in new_loops.get(k, []) if not _is_entry_guarded(s, c)]
        out_children.append(
            LoopNode.make(c.loop, pre + list(c.children) + post)
        )
    return LoopNode.make(node.loop, out_children)


def _var_expr(name: str):
    from ..ir.affine import AffineExpr

    return AffineExpr.var(name)


def _add_guard(stmt: Statement, guard: Condition) -> Statement:
    return Statement(stmt.lhs, stmt.rhs, stmt.guards + (guard,))


def _is_entry_guarded(node: StmtNode, loop_node: LoopNode) -> bool:
    g = node.stmt.guards[-1]
    # entry guards reference the loop's lower bound expression
    lower = loop_node.loop.lowers[0].expr
    return g.expr == _var_expr(loop_node.loop.var) - lower


def normalize_tree(
    tree: LoopNode,
    params: Sequence[str] = (),
    weight: int = 1,
    name: str = "t",
) -> list[LoopNest]:
    """Convert one imperfect loop tree into a sequence of perfect nests."""
    pieces = _normalize(tree, [], params)
    nests = [
        LoopNest.make(f"{name}.{k}", loops, body, tuple(params), weight)
        for k, (loops, body) in enumerate(pieces)
    ]
    # statement multiset must be preserved (modulo loop-variable renaming)
    want = sorted(s.lhs.array.name for s in tree.statements())
    got = sorted(s.lhs.array.name for n in nests for s in n.body)
    if want != got:
        raise NormalizationError(
            f"normalization lost statements: {want} vs {got}"
        )
    return nests


def _normalize(
    node: LoopNode,
    outer: list[Loop],
    params: Sequence[str],
) -> list[tuple[list[Loop], list[Statement]]]:
    node = _sink_statements(node)
    loop_children = node.loop_children()
    if not loop_children:
        return [
            (outer + [node.loop], [c.stmt for c in node.stmt_children()])
        ]
    if node.stmt_children():
        raise NormalizationError(
            f"statements left beside loops under {node.loop.var} after sinking"
        )
    # normalize each child under the extended outer chain
    child_pieces: list[list[tuple[list[Loop], list[Statement]]]] = [
        _normalize(c, outer + [node.loop], params)
        for c in loop_children
    ]
    flat = [p for pieces in child_pieces for p in pieces]
    if len(flat) == 1:
        return flat
    # try fusing adjacent pieces (paper Figure 1, first tree)
    fused: list[tuple[list[Loop], list[Statement]]] = [flat[0]]
    for piece in flat[1:]:
        prev = fused[-1]
        a = LoopNest.make("a", prev[0], prev[1], tuple(params))
        b = LoopNest.make("b", piece[0], piece[1], tuple(params))
        if can_fuse(a, b):
            merged = fuse(a, b)
            fused[-1] = (list(merged.loops), list(merged.body))
        else:
            fused.append(piece)
    if len(fused) == 1:
        return fused
    # distribution of the shared outer loops over the remaining pieces
    # (paper Figure 1, second tree)
    prefix_len = len(outer) + 1
    nests = [
        LoopNest.make(f"g{k}", loops, body, tuple(params))
        for k, (loops, body) in enumerate(fused)
    ]
    if not _distribution_legal(nests, prefix_len):
        raise NormalizationError(
            f"cannot distribute loop {node.loop.var}: dependences would reverse"
        )
    return fused


def _distribution_legal(nests: list[LoopNest], prefix_len: int) -> bool:
    """Distribution executes nest ``i`` entirely before nest ``j > i``.
    Originally instances interleave by the shared outer prefix; the
    reordering is safe unless a later nest touches a conflicting element
    at a strictly smaller prefix than an earlier nest."""
    return not any(
        reaches_back(nests[i], later, prefix_len)
        for i in range(len(nests))
        for later in nests[i + 1 :]
    )


def normalize_program(program: Program) -> Program:
    """Replace the program's loop trees by their perfect-nest sequences,
    appending them before any already-perfect nests."""
    if not program.trees:
        return program
    new_nests: list[LoopNest] = []
    for k, tree in enumerate(program.trees):
        new_nests.extend(
            normalize_tree(
                tree,
                program.params,
                weight=1,
                name=f"{program.name}.t{k}",
            )
        )
    new_nests.extend(program.nests)
    from dataclasses import replace

    return replace(program, nests=tuple(new_nests), trees=())
