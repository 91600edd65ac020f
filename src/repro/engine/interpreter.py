"""Reference interpreter and element-loop execution.

:func:`interpret_program` runs a program in-core on plain numpy arrays —
the semantic ground truth every transformed/tiled/out-of-core execution
is verified against.

:func:`run_element_loops` executes one tile's element iterations against
in-memory data tiles; it is shared by the real-mode out-of-core executor.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Mapping

import numpy as np

from ..ir.arrays import ArrayRef
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


def iterate_tile(
    nest: LoopNest,
    binding: Mapping[str, int],
    tile_windows: Mapping[str, tuple[int, int]],
) -> Iterator[dict[str, int]]:
    """Enumerate the nest's iteration points clipped to per-variable tile
    windows (variables absent from ``tile_windows`` keep full bounds)."""
    env: dict[str, int] = dict(binding)

    def rec(level: int) -> Iterator[dict[str, int]]:
        if level == nest.depth:
            yield {v: env[v] for v in nest.loop_vars}
            return
        loop = nest.loops[level]
        lo, hi = loop.eval_range(env)
        if loop.var in tile_windows:
            wlo, whi = tile_windows[loop.var]
            lo, hi = max(lo, wlo), min(hi, whi)
        for v in range(lo, hi + 1):
            env[loop.var] = v
            yield from rec(level + 1)
            del env[loop.var]

    return rec(0)


def innermost_vectorizable(nest: LoopNest, edges=None) -> bool:
    """True when the innermost loop can be executed as one numpy strip:
    no guards, and no dependence carried by the innermost level (checked
    with the exact analyzer, or against the nest's ``edges`` when the
    caller already has them).  Elementwise float semantics are identical
    to the scalar interpreter."""
    if any(stmt.guards for stmt in nest.body):
        return False
    if edges is None:
        from ..dependence import analyze_nest

        edges = analyze_nest(nest)
    level = nest.depth - 1
    return not any(edge.carried_at_level(level) for edge in edges)


def _eval_vec(expr, env, vec_var, vec, load):
    """Evaluate an expression tree over a whole innermost strip."""
    from ..ir.expr import BinOp, Call, Const, Ref, UnOp

    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return load(expr.ref, env, vec_var, vec)
    if isinstance(expr, BinOp):
        a = _eval_vec(expr.left, env, vec_var, vec, load)
        b = _eval_vec(expr.right, env, vec_var, vec, load)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, UnOp):
        return -_eval_vec(expr.operand, env, vec_var, vec, load)
    if isinstance(expr, Call):
        arg = _eval_vec(expr.arg, env, vec_var, vec, load)
        if expr.fn == "sqrt":
            return np.sqrt(np.abs(arg))
        if expr.fn == "exp":
            return np.exp(np.minimum(arg, 50.0))
        return np.abs(arg)
    raise TypeError(f"cannot vectorize {expr!r}")  # pragma: no cover


def _vec_indices(ref, env, vec_var, vec, origin):
    idx = []
    for d, sub in enumerate(ref.subscripts):
        coeff = sub.coeff(vec_var)
        base = sub.drop({vec_var}).evaluate(env) - origin[d]
        idx.append(base + coeff * vec if coeff else np.full(vec.shape, base))
    return tuple(np.asarray(x, dtype=np.intp) for x in idx)


def run_element_loops_vectorized(
    nest: LoopNest,
    binding: Mapping[str, int],
    tile_windows: Mapping[str, tuple[int, int]],
    tiles: Mapping[str, np.ndarray],
    regions: Mapping[str, Region],
) -> int:
    """Vectorized twin of :func:`run_element_loops`: the outer loops run
    in Python, the innermost as numpy strips.  Caller must have checked
    :func:`innermost_vectorizable`."""
    origins = {
        name: tuple(lo for lo, _ in region) for name, region in regions.items()
    }
    inner = nest.loops[-1]

    def load(ref, env, vec_var, vec):
        return tiles[ref.array.name][
            _vec_indices(ref, env, vec_var, vec, origins[ref.array.name])
        ]

    count = 0
    env: dict[str, int] = dict(binding)

    def rec(level: int):
        nonlocal count
        if level == nest.depth - 1:
            lo, hi = inner.eval_range(env)
            if inner.var in tile_windows:
                wlo, whi = tile_windows[inner.var]
                lo, hi = max(lo, wlo), min(hi, whi)
            if lo > hi:
                return
            vec = np.arange(lo, hi + 1, dtype=np.int64)
            count += vec.size
            for stmt in nest.body:
                value = _eval_vec(stmt.rhs, env, inner.var, vec, load)
                name = stmt.lhs.array.name
                tiles[name][
                    _vec_indices(stmt.lhs, env, inner.var, vec, origins[name])
                ] = value
            return
        loop = nest.loops[level]
        lo, hi = loop.eval_range(env)
        if loop.var in tile_windows:
            wlo, whi = tile_windows[loop.var]
            lo, hi = max(lo, wlo), min(hi, whi)
        for v in range(lo, hi + 1):
            env[loop.var] = v
            rec(level + 1)
            del env[loop.var]

    rec(0)
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
    for env in iterate_tile(nest, binding, tile_windows):
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
