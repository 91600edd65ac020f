"""The interference graph (paper Section 3, step 2).

A bipartite graph ``(V_n, V_a, E)``: nest nodes, array nodes, and an edge
wherever a nest references an array.  Its connected components are
program fragments touching disjoint array sets — the global algorithm
optimizes each component independently.
"""

from __future__ import annotations

from ..ir.program import Program


def interference_graph(program: Program):
    """The graph itself, as an ``nx.Graph`` (imported here: nothing in
    the package needs networkx to *use* the components)."""
    import networkx as nx

    g = nx.Graph()
    for nest in program.nests:
        g.add_node(("nest", nest.name), kind="nest")
        for array in sorted(nest.arrays()):
            g.add_node(("array", array), kind="array")
            g.add_edge(("nest", nest.name), ("array", array))
    return g


def connected_components(
    program: Program,
) -> list[tuple[list[str], list[str]]]:
    """Connected components as ``(nest_names, array_names)`` pairs, in
    program order of their first nest."""
    # (nest positions, arrays) per component: a nest joins — and thereby
    # merges — every component it shares an array with
    comps: list[tuple[set[int], set[str]]] = []
    for k, nest in enumerate(program.nests):
        comp = ({k}, set(nest.arrays()))
        for other in [c for c in comps if c[1] & comp[1]]:
            comps.remove(other)
            comp[0].update(other[0])
            comp[1].update(other[1])
        comps.append(comp)
    return [
        ([program.nests[k].name for k in sorted(ks)], sorted(arrays))
        for ks, arrays in sorted(comps, key=lambda c: min(c[0]))
    ]
