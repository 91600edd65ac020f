"""`distribute` and `connected_components` work on plain dicts and sets;
the networkx formulations they replaced are kept here as the reference."""

from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence import analyze_nest
from repro.optimizer import connected_components, interference_graph
from repro.transforms import distribute
from repro.transforms.distribution import statement_groups
from repro.workloads import build_analytics, build_workload
from repro.workloads.registry import analytics_names, workload_names

ALL_WORKLOADS = tuple(workload_names()) + tuple(analytics_names())


def _program(name):
    build = build_workload if name in workload_names() else build_analytics
    return build(name, 8)


def nx_statement_groups(n, edges):
    """SCCs of the condensation in topological order, ties by first
    statement — networkx's ordering, re-stabilised by hand."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cond = nx.condensation(g, list(nx.strongly_connected_components(g)))
    remaining = sorted(
        (set(cond.nodes[c]["members"]) for c in nx.topological_sort(cond)),
        key=min,
    )
    placed, used = [], set()
    while remaining:
        for idx, grp in enumerate(remaining):
            preds = {p for m in grp for p in g.predecessors(m) if p not in grp}
            if preds <= used:
                placed.append(sorted(grp))
                used |= grp
                remaining.pop(idx)
                break
    return placed


def nx_connected_components(program):
    comps = []
    order = {n.name: k for k, n in enumerate(program.nests)}
    for comp in nx.connected_components(interference_graph(program)):
        nests = sorted(
            (name for kind, name in comp if kind == "nest"), key=order.get
        )
        arrays = sorted(name for kind, name in comp if kind == "array")
        comps.append((nests, arrays))
    return sorted(comps, key=lambda c: order[c[0][0]])


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workloads_agree_with_networkx(name):
    program = _program(name)
    assert connected_components(program) == nx_connected_components(program)
    for nest in program.nests:
        edges = {
            (e.src_stmt, e.dst_stmt)
            for e in analyze_nest(nest)
            if e.src_stmt != e.dst_stmt
        }
        groups = nx_statement_groups(len(nest.body), edges)
        pieces = distribute(nest)
        if len(groups) == 1:
            assert pieces == [nest]
        else:
            assert [list(p.body) for p in pieces] == [
                [nest.body[m] for m in grp] for grp in groups
            ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    )
))
def test_statement_groups_on_random_digraphs(graph):
    n, edges = graph
    edges = {(a, b) for a, b in edges if a != b}
    succ = {s: {b for a, b in edges if a == s} for s in range(n)}
    assert statement_groups(succ) == nx_statement_groups(n, edges)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.sampled_from("ABCDEFGH"), max_size=3), max_size=8))
def test_connected_components_on_random_bipartite_graphs(arrays_of_nests):
    program = SimpleNamespace(nests=[
        SimpleNamespace(name=f"n{k}", arrays=lambda a=arrays: set(a))
        for k, arrays in enumerate(arrays_of_nests)
    ])
    assert connected_components(program) == nx_connected_components(program)
