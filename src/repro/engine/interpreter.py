"""Reference interpreter and element-loop execution.

:func:`interpret_program` runs a program in-core on plain numpy arrays —
the semantic ground truth every transformed/tiled/out-of-core execution
is verified against.

:func:`run_element_loops` executes one tile's element iterations against
in-memory data tiles; it is shared by the real-mode out-of-core executor.
"""

from __future__ import annotations

import operator
import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..ir.arrays import ArrayRef
from ..ir.expr import Call, Const, Ref, UnOp
from ..ir.nest import LoopNest
from ..ir.program import Program
from ..runtime.ooc_array import Region


def _default_init(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic, array-specific initial contents so that semantic
    comparisons cannot pass by accident.  Seeded with a stable hash:
    ``hash(str)`` is randomized per process, so two names colliding
    mod the offset modulus would make distinct arrays initialize
    identically in an unlucky process; crc32 mod 10007 separates every
    array name in the suite deterministically."""
    n = int(np.prod(shape))
    seed = zlib.crc32(name.encode("utf-8"))
    base = (np.arange(n, dtype=np.float64) * 0.37 + seed % 10007) % 10007.0
    return (base + 1.0).reshape(shape)


def initial_arrays(
    program: Program, binding: Mapping[str, int]
) -> dict[str, np.ndarray]:
    return {
        a.name: _default_init(a.name, a.shape(binding)) for a in program.arrays
    }


def interpret_nest(
    nest: LoopNest,
    binding: Mapping[str, int],
    storage: Mapping[str, np.ndarray],
) -> None:
    """Execute one nest in-core, mutating ``storage`` (one repetition —
    the caller applies ``nest.weight``)."""

    def load(ref: ArrayRef, env: Mapping[str, int]) -> float:
        return float(storage[ref.array.name][ref.index(env, binding)])

    for env in nest.iterate(binding):
        full = {**binding, **env}
        for stmt in nest.body:
            if stmt.guards and not stmt.guarded_on(full):
                continue
            value = stmt.rhs.evaluate(full, load)
            storage[stmt.lhs.array.name][stmt.lhs.index(env, binding)] = value


def interpret_program(
    program: Program,
    binding: Mapping[str, int] | None = None,
    initial: Mapping[str, np.ndarray] | None = None,
    *,
    apply_weights: bool = True,
) -> dict[str, np.ndarray]:
    """Run the whole program in-core; returns final array contents."""
    b = program.binding(binding)
    storage = {
        k: v.astype(np.float64).copy()
        for k, v in (initial or initial_arrays(program, b)).items()
    }
    for nest in program.nests:
        reps = nest.weight if apply_weights else 1
        for _ in range(reps):
            interpret_nest(nest, b, storage)
    return storage


def bulk_levels(nest: LoopNest, edges=None) -> tuple[int, ...]:
    """The loop levels one numpy operation per statement can cover: no
    guards, the variable in no loop bound, and no dependence carried by
    the level (the exact analyzer's ``edges``, analysed here when the
    caller has none).  Such levels can move innermost together — every
    distance vector's first non-zero sits on a level that stays outside,
    so it stays lexicographically positive — and what remains among them
    are same-iteration dependences, which statement order keeps."""
    if any(stmt.guards for stmt in nest.body):
        return ()
    if edges is None:
        from ..dependence import analyze_nest

        edges = analyze_nest(nest)
    bounding = {
        name
        for loop in nest.loops
        for bound in (*loop.lowers, *loop.uppers)
        for name in bound.expr.names
    }
    return tuple(
        level
        for level, loop in enumerate(nest.loops)
        if loop.var not in bounding
        and not any(edge.carried_at_level(level) for edge in edges)
    )


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
_CALLS = {
    "sqrt": lambda x: np.sqrt(np.abs(x)),
    "exp": lambda x: np.exp(np.minimum(x, 50.0)),
    "abs": np.abs,
}


def _compile_expr(expr, refs: list[ArrayRef]):
    """``expr`` as a closure over ``load(k)``, the gathered values of
    reference ``k`` of ``refs`` (its own references are appended).
    Elementwise float semantics are those of ``Expr.evaluate``."""
    if isinstance(expr, Const):
        return lambda load, value=expr.value: value
    if isinstance(expr, Ref):
        refs.append(expr.ref)
        return lambda load, k=len(refs) - 1: load(k)
    if isinstance(expr, UnOp):
        operand = _compile_expr(expr.operand, refs)
        return lambda load: -operand(load)
    if isinstance(expr, Call):
        fn, arg = _CALLS[expr.fn], _compile_expr(expr.arg, refs)
        return lambda load: fn(arg(load))
    op = _BINOPS[expr.op]
    left, right = _compile_expr(expr.left, refs), _compile_expr(expr.right, refs)
    return lambda load: op(left(load), right(load))


@dataclass(frozen=True)
class BulkKernel:
    """One nest's element loops, compiled once per executor: the levels
    in ``bulk`` run as one numpy box per statement, the others as python
    loops in their original order."""

    nest: LoopNest
    binding: Mapping[str, int]
    bulk: tuple[int, ...]
    #: every reference of the body as ``(array, offsets, access matrix)``
    refs: tuple
    #: per statement: its lhs's place in ``refs`` and its compiled rhs
    stmts: tuple

    @staticmethod
    def compile(nest: LoopNest, binding: Mapping[str, int], edges=None):
        """The nest's kernel, or ``None`` when no level is bulk (the
        scalar :func:`run_element_loops` runs it)."""
        bulk = bulk_levels(nest, edges)
        if not bulk:
            return None
        refs: list[ArrayRef] = []
        stmts = []
        for stmt in nest.body:
            refs.append(stmt.lhs)
            stmts.append((len(refs) - 1, _compile_expr(stmt.rhs, refs)))
        loop_vars = nest.loop_vars
        tables = tuple(
            (
                ref.array.name,
                np.array([o.evaluate(binding) for o in ref.offset_exprs(loop_vars)]),
                np.array(ref.access_matrix(loop_vars).rows),
            )
            for ref in refs
        )
        return BulkKernel(nest, binding, bulk, tables, tuple(stmts))


def run_element_loops_vectorized(
    kernel: BulkKernel,
    tile_windows: Mapping[str, tuple[int, int]],
    tiles: Mapping[str, np.ndarray],
    regions: Mapping[str, Region],
) -> int:
    """Bulk twin of :func:`run_element_loops`: per tile the sequential
    levels run in python and each statement is one broadcast fancy-index
    gather → numpy expression → assignment over the box of bulk levels.
    Every statement instance reads what the scalar path reads, so the
    (C-contiguous) tiles end up bit-for-bit equal."""
    nest, bulk = kernel.nest, kernel.bulk
    views = {}
    for name, region in regions.items():
        tile = tiles[name]
        if not tile.flags.c_contiguous:
            raise ValueError(f"tile of {name} is not C-contiguous")
        strides = np.array(tile.strides) // tile.itemsize
        views[name] = tile.reshape(-1), strides, [lo for lo, _ in region]
    # every reference as an affine map into its tile's flat view: a
    # coefficient per loop level and a constant
    flats, coefs, consts = [], [], []
    for name, offsets, access in kernel.refs:
        flat, strides, origin = views[name]
        flats.append(flat)
        coefs.append((strides @ access).tolist())
        consts.append(int(strides @ (offsets - origin)))

    count = 0
    env: dict[str, int] = dict(kernel.binding)

    def rec(level: int, size: int, at: list):
        """Run levels ``level``… with every reference's flat index so far
        in ``at`` (an integer, or an array over the bulk box's ``size``
        points once a bulk level is bound)."""
        nonlocal count
        if level == nest.depth:
            count += size
            for lhs, rhs in kernel.stmts:
                flats[lhs][at[lhs]] = rhs(lambda k: flats[k][at[k]])
            return
        loop = nest.loops[level]
        lo, hi = loop.eval_range(env)
        if loop.var in tile_windows:
            wlo, whi = tile_windows[loop.var]
            lo, hi = max(lo, wlo), min(hi, whi)
        values, boxed = range(lo, hi + 1), level in bulk
        if boxed and lo <= hi:
            size *= hi - lo + 1
            axis = (-1,) + (1,) * sum(b > level for b in bulk)
            values = [np.arange(lo, hi + 1).reshape(axis)]
        for v in values:
            env[loop.var] = v
            # a bulk level always adds its axis: every index spans the box
            rec(level + 1, size, [
                a + c[level] * v if boxed or c[level] else a
                for a, c in zip(at, coefs)
            ])

    rec(0, 1, consts)
    return count


def run_element_loops(
    nest: LoopNest,
    binding: Mapping[str, int],
    tile_windows: Mapping[str, tuple[int, int]],
    tiles: Mapping[str, np.ndarray],
    regions: Mapping[str, Region],
) -> int:
    """Execute the element loops of one tile against in-memory tiles.

    ``tiles[name]`` holds the data of ``regions[name]``; subscripts are
    rebased by the region origin.  Returns the number of iterations run.
    """
    origins = {
        name: tuple(lo for lo, _ in region) for name, region in regions.items()
    }

    def load(ref: ArrayRef, env: Mapping[str, int]) -> float:
        name = ref.array.name
        idx = ref.index(env, binding)
        o = origins[name]
        return float(tiles[name][tuple(i - b for i, b in zip(idx, o))])

    count = 0
    for env in nest.iterate(binding, tile_windows):
        full = {**binding, **env}
        count += 1
        for stmt in nest.body:
            if stmt.guards and not stmt.guarded_on(full):
                continue
            value = stmt.rhs.evaluate(full, load)
            name = stmt.lhs.array.name
            idx = stmt.lhs.index(env, binding)
            o = origins[name]
            tiles[name][tuple(i - b for i, b in zip(idx, o))] = value
    return count
