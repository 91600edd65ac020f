"""Static I/O lower bounds for affine loop nests.

The pass walks the compiler IR (loop headers, array references,
iteration domains) and derives, per nest, a safe lower bound on the
number of array elements any execution of that nest must transfer
between node memory (capacity ``M`` elements) and the file system.

The load-bearing quantity is the *reference image*: the number of
distinct in-bounds elements a reference touches over the nest's full
iteration domain.  Every engine path reads a superset of each read
image per weight repetition (tile footprints are clipped bounding boxes
covering all touched elements; the two-phase aggregators read the union
of requested file runs; ``h-opt`` chunk slots are disjoint per element)
and writes back every written tile region, so

* cold (no cache):   ``reads >= weight * R``, ``writes >= weight * W``
* warm (tile cache): ``reads >= weight * max(0, R - n_nodes * M)``

where ``R``/``W`` sum, per array, the largest single-reference image —
a lower bound on the union of that array's touched elements.  Images
are computed by exact enumeration of the (subset of the) iteration
domain when small, else by an analytic sweep that requires *all*
subscripts of a connected dimension group to be simultaneously
in-bounds — per-dimension independent counting is unsound when
clipping is anti-correlated (e.g. ``A[i, i - N + 1]``).

Matmul-like contractions additionally get the Hong–Kung √M bound in
the Irony–Toledo–Tiskin form popularized by Kwasniewski et al.
(PAPERS.md): ``T / (2·√2·√M) - 2·p·M`` for ``T`` elementary
multiply-accumulates on ``p`` nodes, maxed with the cold footprint.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..ir.arrays import ArrayRef
from ..ir.domain import affine, domain, loop_range
from ..ir.expr import BinOp, Expr, Ref, UnOp
from ..ir.nest import LoopNest
from ..ir.program import Program
from .model import (
    RULE_COLD,
    RULE_CONTRACTION,
    RULE_REDUCTION,
    RULE_STENCIL,
    RULE_TRANSPOSE,
    NestBound,
)

#: exact-enumeration budget (iteration points per reference image);
#: beyond this the analytic sweep takes over
ENUM_CAP = 1 << 18

#: per-level enumeration budget for exact iteration-domain counting
DOMAIN_ENUM_CAP = 4096


# ---------------------------------------------------------------------------
# iteration domain


def _midpoint_ranges(
    nest: LoopNest, binding: Mapping[str, int]
) -> tuple[dict[str, tuple[int, int]], dict[str, int]]:
    """Each loop's range with the enclosing vars pinned at their
    midpoints, and the binding plus those midpoints (outer-in)."""
    rng: dict[str, tuple[int, int]] = {}
    env = dict(binding)
    for loop in nest.loops:
        lo, hi = rng[loop.var] = loop.eval_range(env)
        env[loop.var] = (lo + hi) // 2 if hi >= lo else lo
    return rng, env


def _coupled_vars(nest: LoopNest) -> set[str]:
    """Loop vars tied together by non-rectangular bounds (``j = i..N``)."""
    coupled: set[str] = set()
    lvars = set(nest.loop_vars)
    for loop in nest.loops:
        deps = {
            name
            for b in (*loop.lowers, *loop.uppers)
            for name in b.expr.names
            if name in lvars
        }
        if deps:
            coupled.add(loop.var)
            coupled |= deps
    return coupled


def domain_size(nest: LoopNest, binding: Mapping[str, int]) -> int:
    """Number of iteration points of the nest (a safe under-count).

    The levels a later bound reads are enumerated; any other level is
    pinned at its midpoint and weights its row by its trip count (no
    bound below reads it).  Exact unless an enumerated level has more
    than ``DOMAIN_ENUM_CAP`` trips at the midpoints: such a level is
    clipped to its first ``DOMAIN_ENUM_CAP`` values (a sub-domain).
    """
    rng, _ = _midpoint_ranges(nest, binding)
    read = {n for l in nest.loops for b in (*l.lowers, *l.uppers) for n in b.expr.names}
    pinned = [v for v in nest.loop_vars if v not in read]
    windows = {
        v: (rng[v][0], rng[v][0] + DOMAIN_ENUM_CAP - 1)
        for v in nest.loop_vars
        if v not in pinned and rng[v][1] - rng[v][0] + 1 > DOMAIN_ENUM_CAP
    }
    points = domain(nest, binding, windows, pinned)
    weight = np.ones(len(points), dtype=np.int64)
    for k, loop in enumerate(nest.loops):
        if loop.var in pinned:
            lo, hi = loop_range(loop, nest.loop_vars[:k], points[:, :k], binding)
            weight *= hi - lo + 1
    return int(weight.sum())


# ---------------------------------------------------------------------------
# reference images


def ref_image_size(
    nest: LoopNest,
    ref: ArrayRef,
    binding: Mapping[str, int],
    shape: Sequence[int],
) -> int:
    """Distinct in-bounds elements ``ref`` touches — a safe under-count.

    Statement guards are ignored on purpose: the engine forms tile
    regions from unguarded bounding boxes, so its transfers cover the
    unguarded image too.
    """
    lvars = list(nest.loop_vars)
    used = [v for v in lvars if any(s.coeff(v) for s in ref.subscripts)]
    rng, mid_env = _midpoint_ranges(nest, binding)

    prod = 1
    for v in used:
        lo, hi = rng[v]
        prod *= max(0, hi - lo + 1)
        if prod > ENUM_CAP:
            break
    if prod <= ENUM_CAP:
        return _enumerated_image(nest, ref, binding, shape, set(used))
    return _analytic_image(ref, shape, used, rng, mid_env, _coupled_vars(nest))


def _enumerated_image(
    nest: LoopNest,
    ref: ArrayRef,
    binding: Mapping[str, int],
    shape: Sequence[int],
    used: set[str],
) -> int:
    """Exact image over the domain slice with unused vars pinned at
    midpoints (a sub-domain, hence a safe under-count)."""
    points = domain(nest, binding, pinned=set(nest.loop_vars) - used)
    idx = affine(ref.subscripts, nest.loop_vars, points, binding)
    idx = idx[((idx >= 0) & (idx < np.array(shape))).all(axis=1)]
    # distinct elements by a sort: numpy 2's hashing np.unique is ~10x slower
    flat = np.sort(np.ravel_multi_index(tuple(idx.T), shape))
    return int(np.count_nonzero(np.diff(flat))) + (len(flat) > 0)


def _analytic_image(
    ref: ArrayRef,
    shape: Sequence[int],
    used: Sequence[str],
    rng: Mapping[str, tuple[int, int]],
    mid_env: Mapping[str, int],
    coupled: set[str],
) -> int:
    """Analytic under-count for large domains.

    Dimensions are grouped into connected components by shared loop
    vars; each component is counted by sweeping one var (the best of
    its vars) with every other var pinned at its midpoint, requiring
    *every* subscript of the component to be in-bounds simultaneously.
    Components over purely rectangular ("free") vars multiply; any
    component touching a coupled var contributes a single max factor —
    products over coupled vars are unsound on triangular domains.
    """
    # constant dims must land in bounds on their own, else the engine
    # clips the region to empty and nothing is ever transferred
    for s, d in zip(ref.subscripts, shape):
        if not any(s.coeff(v) for v in used):
            if not 0 <= s.evaluate(mid_env) < d:
                return 0

    if not used:
        return 1  # pure constant ref, already checked in-bounds

    parent = {v: v for v in used}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in ref.subscripts:
        dim_vars = [v for v in used if s.coeff(v)]
        for v in dim_vars[1:]:
            parent[find(v)] = find(dim_vars[0])

    comps: dict[str, set[str]] = {}
    for v in used:
        comps.setdefault(find(v), set()).add(v)

    def sweep(var: str, dims: list[tuple[object, int]]) -> int:
        values = np.arange(rng[var][0], rng[var][1] + 1, dtype=np.int64)
        idx = affine([s for s, _ in dims], (var,), values[:, None], mid_env)
        return int(((idx >= 0) & (idx < [d for _, d in dims])).all(axis=1).sum())

    total = 1
    coupled_best = 0
    saw_coupled = False
    for comp_vars in comps.values():
        dims = [
            (s, d)
            for s, d in zip(ref.subscripts, shape)
            if any(s.coeff(v) for v in comp_vars)
        ]
        best = max(sweep(v, dims) for v in sorted(comp_vars))
        if comp_vars & coupled:
            saw_coupled = True
            coupled_best = max(coupled_best, best)
        else:
            total *= best
    if saw_coupled:
        total *= coupled_best
    return total


def nest_footprint_counts(
    nest: LoopNest,
    binding: Mapping[str, int],
    shapes: Mapping[str, Sequence[int]],
) -> tuple[dict[str, int], dict[str, int]]:
    """Per-array safe under-counts of distinct elements read / written.

    Per array the max over that direction's references under-counts
    the union of their images.
    """
    cache: dict[ArrayRef, int] = {}
    reads: dict[str, int] = {}
    writes: dict[str, int] = {}
    for _, ref, is_write in nest.refs():
        if ref not in cache:
            cache[ref] = ref_image_size(nest, ref, binding, shapes[ref.array.name])
        side = writes if is_write else reads
        name = ref.array.name
        side[name] = max(side.get(name, 0), cache[ref])
    return reads, writes


# ---------------------------------------------------------------------------
# nest classification


def _addends(expr: Expr) -> list[Expr]:
    """Flatten a ``+``/``-`` tree into its (sign-ignored) addends."""
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        return _addends(expr.left) + _addends(expr.right)
    if isinstance(expr, UnOp):
        return _addends(expr.operand)
    return [expr]


def _product_refs(expr: Expr) -> tuple[ArrayRef, ArrayRef] | None:
    """``Ref * Ref`` operands of a multiply, if that is what this is."""
    if isinstance(expr, BinOp) and expr.op == "*":
        left, right = expr.left, expr.right
        if isinstance(left, Ref) and isinstance(right, Ref):
            return left.ref, right.ref
    return None


def _pair_injective(ref: ArrayRef, v1: str, v2: str) -> bool:
    """True when the subscript map restricted to (v1, v2) is injective."""
    coeffs = [(s.coeff(v1), s.coeff(v2)) for s in ref.subscripts]
    for i, (a, b) in enumerate(coeffs):
        for c, d in coeffs[i + 1 :]:
            if a * d - b * c != 0:
                return True
    return False


def find_contraction(nest: LoopNest):
    """The MAC statement of a classic 3-loop contraction, or ``None``.

    Requires the Hong–Kung shape exactly: depth 3, an unguarded
    ``C[..] = C[..] + A[..] * B[..]`` whose three references use the
    var pairs {i,j} / {i,k} / {k,j} (in some assignment) injectively.
    """
    if nest.depth != 3:
        return None
    lvars = set(nest.loop_vars)
    for stmt in nest.body:
        if stmt.guards:
            continue
        terms = _addends(stmt.rhs)
        if not any(isinstance(t, Ref) and t.ref == stmt.lhs for t in terms):
            continue
        lhs_vars = {v for v in lvars if any(s.coeff(v) for s in stmt.lhs.subscripts)}
        if len(lhs_vars) != 2:
            continue
        (missing,) = lvars - lhs_vars
        for term in terms:
            prod = _product_refs(term)
            if prod is None:
                continue
            a_ref, b_ref = prod
            a_vars = {v for v in lvars if any(s.coeff(v) for s in a_ref.subscripts)}
            b_vars = {v for v in lvars if any(s.coeff(v) for s in b_ref.subscripts)}
            if a_vars | b_vars != lvars or missing not in (a_vars & b_vars):
                continue
            if len(a_vars) != 2 or len(b_vars) != 2:
                continue
            ok = (
                _pair_injective(stmt.lhs, *sorted(lhs_vars))
                and _pair_injective(a_ref, *sorted(a_vars))
                and _pair_injective(b_ref, *sorted(b_vars))
            )
            if ok:
                return stmt
    return None


def _unit_var_order(nest: LoopNest, ref: ArrayRef) -> tuple[str, ...] | None:
    """Per-dim loop var when every non-constant subscript is a single
    unit-coefficient var covering all loops exactly once, else None."""
    lvars = list(nest.loop_vars)
    order: list[str] = []
    for s in ref.subscripts:
        dim_vars = [v for v in lvars if s.coeff(v)]
        if not dim_vars:
            continue
        if len(dim_vars) > 1 or abs(s.coeff(dim_vars[0])) != 1:
            return None
        order.append(dim_vars[0])
    if sorted(order) != sorted(lvars):
        return None
    return tuple(order)


def _is_transpose(nest: LoopNest) -> bool:
    for stmt in nest.body:
        worder = _unit_var_order(nest, stmt.lhs)
        if worder is None:
            continue
        for ref in stmt.reads():
            if ref.array.name == stmt.lhs.array.name:
                continue
            rorder = _unit_var_order(nest, ref)
            if rorder is not None and rorder != worder:
                return True
    return False


def _is_stencil(nest: LoopNest) -> bool:
    lvars = list(nest.loop_vars)
    by_array: dict[str, list[ArrayRef]] = {}
    for _, ref, _ in nest.refs():
        # a dim mixing >= 2 loop vars is a sliding window / skew
        for s in ref.subscripts:
            if sum(1 for v in lvars if s.coeff(v)) >= 2:
                return True
        by_array.setdefault(ref.array.name, []).append(ref)
    for refs in by_array.values():
        for i, a in enumerate(refs):
            for b in refs[i + 1 :]:
                if a == b or len(a.subscripts) != len(b.subscripts):
                    continue
                same_matrix = all(
                    all(sa.coeff(v) == sb.coeff(v) for v in lvars)
                    for sa, sb in zip(a.subscripts, b.subscripts)
                )
                offsets_differ = any(
                    sa.const != sb.const
                    for sa, sb in zip(a.subscripts, b.subscripts)
                )
                if same_matrix and offsets_differ:
                    return True
    return False


def _is_reduction(nest: LoopNest) -> bool:
    lvars = set(nest.loop_vars)
    for stmt in nest.body:
        used = {v for v in lvars if any(s.coeff(v) for s in stmt.lhs.subscripts)}
        if used != lvars:
            return True
    return False


def classify_nest(nest: LoopNest) -> tuple[str, str]:
    """(derivation rule, human-readable detail) for a nest."""
    stmt = find_contraction(nest)
    if stmt is not None:
        return RULE_CONTRACTION, f"MAC update of {stmt.lhs.array.name}"
    if _is_transpose(nest):
        return RULE_TRANSPOSE, "permutation write/read pair"
    if _is_stencil(nest):
        return RULE_STENCIL, "shifted references / windowed subscripts"
    if _is_reduction(nest):
        return RULE_REDUCTION, "write image of rank < depth"
    return RULE_COLD, "compulsory footprint"


# ---------------------------------------------------------------------------
# per-nest bounds


def nest_lower_bound(
    nest: LoopNest,
    binding: Mapping[str, int],
    shapes: Mapping[str, Sequence[int]],
    *,
    memory_elements: int,
    n_nodes: int = 1,
    warm: bool = False,
) -> NestBound:
    """Lower bound on elements this nest transfers, on any engine path.

    ``memory_elements`` is the per-node capacity ``M`` (use the
    effective peak when the executor overran its nominal budget);
    ``warm`` discounts up to the aggregate memory ``n_nodes * M`` of
    read reuse carried in from earlier nests or repetitions (tile
    cache).  Writes always flush per repetition.
    """
    reads, writes = nest_footprint_counts(nest, binding, shapes)
    r_image = sum(reads.values())
    w_image = sum(writes.values())
    weight = max(1, int(nest.weight))
    m = max(0, int(memory_elements))
    p = max(1, int(n_nodes))

    read_bound = float(weight * (max(0, r_image - p * m) if warm else r_image))
    write_bound = float(weight * w_image)
    cold = read_bound + write_bound

    rule, detail = classify_nest(nest)
    bound = cold
    if rule == RULE_CONTRACTION:
        ops = domain_size(nest, binding)
        hk = weight * ops / (2.0 * math.sqrt(2.0) * math.sqrt(max(1, m))) - 2.0 * p * m
        if hk > bound:
            bound = hk
            detail += f" (Hong-Kung term dominates, T={ops})"
        else:
            detail += f" (footprint dominates, T={ops})"
    return NestBound(
        nest=nest.name,
        rule=rule,
        bound_elements=bound,
        read_elements=read_bound,
        write_elements=write_bound,
        memory_elements=m,
        n_nodes=p,
        weight=weight,
        warm=warm,
        detail=detail,
    )


def program_bounds(
    program: Program,
    *,
    binding: Mapping[str, int] | None = None,
    memory_elements: int | None = None,
    params=None,
    n_nodes: int = 1,
    warm: bool = False,
) -> list[NestBound]:
    """Per-nest I/O lower bounds for a whole program.

    When ``memory_elements`` is omitted, the executor's default budget
    (:meth:`~repro.runtime.MachineParams.memory_budget`) is applied so
    the static bound matches what a default run would be charged against.
    """
    from ..runtime.params import MachineParams, check_n_nodes

    check_n_nodes(n_nodes)
    b = program.binding(binding)
    shapes = {a.name: a.shape(b) for a in program.arrays}
    if memory_elements is None:
        if params is None:
            params = MachineParams()
        memory_elements = params.memory_budget(program.total_elements(b))
    return [
        nest_lower_bound(
            nest,
            b,
            shapes,
            memory_elements=memory_elements,
            n_nodes=n_nodes,
            warm=warm,
        )
        for nest in program.nests
    ]


def bounds_by_nest(bounds: Iterable[NestBound]) -> dict[str, dict]:
    """Serialize a bound list into the mapping ``repro.obs`` consumes."""
    return {b.nest: b.to_dict() for b in bounds}
