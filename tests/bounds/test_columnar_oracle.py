"""The bounds pass and the enumerating dependence oracle
(``tests/dependence/oracle.py``) read iteration domains as
``repro.ir.domain`` columns.  Their answers must equal those of the
per-point recursions they replaced, kept here as the oracle, on every
registry and analytics workload × col / l-opt / c-opt / h-opt at
N = 32: reference images, domain sizes and accesses (and
``analyze_nest`` covers the directions those accesses realise)."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds import analysis, domain_size
from repro.dependence import analyze_nest
from repro.ir.affine import AffineExpr
from repro.ir.statements import Condition, Statement
from repro.optimizer.strategies import build_version
from repro.workloads import (
    analytics_names,
    build_analytics,
    build_workload,
    workload_names,
)

from ..dependence.oracle import accesses, edge_directions, enumerated_directions
from ..engine.test_tile_space import planned_nests

N = 32
VERSIONS = ("col", "l-opt", "c-opt", "h-opt")
WORKLOADS = (*workload_names(), *analytics_names())


@functools.lru_cache(maxsize=None)
def _version(workload, version):
    build = build_workload if workload in workload_names() else build_analytics
    cfg = build_version(version, build(workload, N))
    b = cfg.program.binding()
    return cfg.program, b, {a.name: a.shape(b) for a in cfg.program.arrays}


def _points(nest, binding):
    env = dict(binding)

    def rec(level):
        if level == nest.depth:
            yield {v: env[v] for v in nest.loop_vars}
            return
        loop = nest.loops[level]
        lo, hi = loop.eval_range(env)
        for v in range(lo, hi + 1):
            env[loop.var] = v
            yield from rec(level + 1)
            del env[loop.var]

    return rec(0)


def _old_enumerated_image(nest, ref, binding, shape, used):
    loops = nest.loops
    points = set()
    env = dict(binding)

    def rec(level):
        if level == len(loops):
            idx = tuple(s.evaluate(env) for s in ref.subscripts)
            if all(0 <= x < d for x, d in zip(idx, shape)):
                points.add(idx)
            return
        loop = loops[level]
        lo, hi = loop.eval_range(env)
        if lo > hi:
            return
        if loop.var in used:
            for v in range(lo, hi + 1):
                env[loop.var] = v
                rec(level + 1)
        else:
            env[loop.var] = (lo + hi) // 2
            rec(level + 1)
        del env[loop.var]

    rec(0)
    return len(points)


def _old_domain_size(nest, binding):
    loops = nest.loops

    def rec(level, env):
        if level == len(loops):
            return 1
        loop = loops[level]
        lo, hi = loop.eval_range(env)
        trips = hi - lo + 1
        if trips <= 0:
            return 0
        later_dep = any(
            loop.var in b.expr.names
            for l2 in loops[level + 1 :]
            for b in (*l2.lowers, *l2.uppers)
        )
        if not later_dep:
            return trips * rec(level + 1, {**env, loop.var: (lo + hi) // 2})
        if trips <= analysis.DOMAIN_ENUM_CAP:
            return sum(
                rec(level + 1, {**env, loop.var: v}) for v in range(lo, hi + 1)
            )
        return trips * min(
            rec(level + 1, {**env, loop.var: lo}),
            rec(level + 1, {**env, loop.var: hi}),
        )

    return rec(0, dict(binding))


def _old_accesses(nest, binding):
    """Per reference, guard and element evaluated point by point."""
    out = {}
    for env in _points(nest, binding):
        full = {**binding, **env}
        vec = tuple(env[v] for v in nest.loop_vars)
        for s, stmt in enumerate(nest.body):
            guarded = stmt.guarded_on(full)
            for ref, is_write in dict.fromkeys(stmt.all_refs()):
                pairs = out.setdefault((s, ref, is_write), [])
                if guarded:
                    pairs.append((ref.index(env, binding), vec))
    return out


def _check_accesses_and_edges(nest, binding):
    touched = accesses(nest, binding)
    assert touched == _old_accesses(nest, binding)
    covered = edge_directions(analyze_nest(nest))
    for key, dirs in enumerated_directions(nest, binding).items():
        assert dirs <= covered.get(key, set()), (nest.name, key)


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_images_and_domain_sizes(workload, version):
    program, b, shapes = _version(workload, version)
    for nest in program.nests:
        assert domain_size(nest, b) == _old_domain_size(nest, b), nest.name
        for _, ref, _ in nest.refs():
            used = {
                v for v in nest.loop_vars
                if any(s.coeff(v) for s in ref.subscripts)
            }
            shape = shapes[ref.array.name]
            got = analysis._enumerated_image(nest, ref, b, shape, used)
            want = _old_enumerated_image(nest, ref, b, shape, used)
            assert got == want, (nest.name, str(ref))


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_accesses_and_edges(workload, version):
    program, _, _ = _version(workload, version)
    for nest in program.nests:
        _check_accesses_and_edges(nest, {p: nest.depth + 3 for p in nest.params})


@st.composite
def _guarded_nests(draw):
    """A planned nest's statement twice over, each copy under drawn
    ``==`` / ``>=`` guards, the second writing a shifted element."""
    plan, binding, _ = draw(planned_nests())
    nest = plan.nest
    (stmt,) = nest.body
    names = nest.loop_vars

    def guards():
        out = []
        for _ in range(draw(st.integers(0, 2))):
            coeffs = {v: draw(st.integers(-1, 1)) for v in names}
            expr = AffineExpr.make(coeffs, draw(st.integers(-4, 4)))
            out.append(Condition(expr, draw(st.sampled_from(["==", ">="]))))
        return out

    shift = {names[0]: AffineExpr.var(names[0]) + draw(st.integers(-2, 2))}
    body = [
        Statement.make(stmt.lhs, stmt.rhs, guards()),
        Statement.make(stmt.lhs.substituted(shift), stmt.rhs, guards()),
    ]
    return nest.with_body(body), binding


@settings(max_examples=100, deadline=None)
@given(_guarded_nests())
def test_guarded_accesses_and_edges(guarded):
    _check_accesses_and_edges(*guarded)


def test_domain_size_beyond_the_cap_is_an_under_count(monkeypatch):
    program, b, _ = _version("syr2k", "col")
    (upd,) = [n for n in program.nests if n.name.endswith("upd")]
    exact = sum(1 for _ in _points(upd, b))
    assert domain_size(upd, b) == exact
    monkeypatch.setattr(analysis, "DOMAIN_ENUM_CAP", 5)
    assert 0 < domain_size(upd, b) <= exact
    assert _old_domain_size(upd, b) <= exact
