"""The enumerating dependence analysis, kept as the reference for the
parametric solver in ``repro.dependence.analyzer``.

At one concrete binding it lists every access of a nest (element and
iteration vector, guards applied) and joins two references on the
element.  Its answer is exact for that binding only; the union over
many bindings is what ``analyze_nest`` and ``reaches_back`` must cover.
"""

import numpy as np

from repro.dependence import direction_of, lex_positive
from repro.ir.domain import affine, domain

_CHUNK = 1 << 20  # row pairs joined at once: bounds the oracle's memory


def touches(nest, binding):
    """Per ``(statement index, ref, is_write)`` of ``nest.refs()``: the
    touched elements and the iteration vectors (loop order), as two int
    arrays of aligned rows, where the statement's guards hold."""
    names, points = nest.loop_vars, domain(nest, binding)
    out = {}
    for s, stmt in enumerate(nest.body):
        live = np.ones(len(points), dtype=bool)
        for g in stmt.guards:
            value = affine([g.expr], names, points, binding)[:, 0]
            live &= value == 0 if g.op == "==" else value >= 0
        for ref, is_write in stmt.all_refs():
            keys = affine(ref.subscripts, names, points[live], binding)
            out[s, ref, is_write] = keys, points[live]
    return out


def accesses(nest, binding):
    """:func:`touches` as lists of ``(element, iteration vector)``."""
    return {
        key: list(zip(map(tuple, keys.tolist()), map(tuple, vecs.tolist())))
        for key, (keys, vecs) in touches(nest, binding).items()
    }


def meeting_signs(first, second):
    """``sign(v2 - v1)`` of every row ``(element, v1)`` of ``first`` and
    ``(element, v2)`` of ``second`` on the same element: a sort-join,
    at most ``_CHUNK`` row pairs at a time."""
    (k1, v1), (k2, v2) = first, second
    if not len(k1) or not len(k2):
        return set()
    keys = np.vstack([k1, k2])
    keys = keys - keys.min(axis=0)  # one int per element
    keys = np.ravel_multi_index(keys.T, keys.max(axis=0) + 1)
    order = np.argsort(keys[: len(k1)], kind="stable")
    a, b = keys[: len(k1)][order], keys[len(k1):]
    cols1, cols2 = v1[order].T.astype(np.int32), v2.T.astype(np.int32)
    lo, hi = np.searchsorted(a, b), np.searchsorted(a, b, side="right")
    reps = hi - lo
    ends = np.cumsum(reps)
    seen, start = np.zeros(3 ** len(cols1), dtype=bool), 0
    while start < len(b):
        first_pair = ends[start] - reps[start]
        stop = max(start + 1, int(np.searchsorted(ends, first_pair + _CHUNK)))
        # pair q of second row j, base_j <= q < base_j + reps_j, is
        # (first row lo_j + q - base_j, second row j)
        r, base = reps[start:stop], ends[start:stop] - reps[start:stop]
        left = np.repeat(lo[start:stop] - base, r)
        left += np.arange(base[0], base[0] + r.sum())
        right = np.repeat(np.arange(start, stop), r)
        code = np.zeros(len(left), np.int32)  # the pattern in base 3
        for c1, c2 in zip(cols1, cols2):
            code = 3 * code + np.sign(c2[right] - c1[left]) + 1
        seen[code] = True
        start = stop
    return {
        tuple(c // 3**k % 3 - 1 for k in reversed(range(len(cols1))))
        for c in np.flatnonzero(seen).tolist()
    }


def enumerated_directions(nest, binding):
    """``{(array, src, dst, kind): direction patterns}`` realised at
    ``binding``: every reference pair of ``nest.refs()`` (one a write)
    joined on the touched element."""
    touched = touches(nest, binding)
    refs = list(nest.refs())
    out, signs = {}, {}  # a read equal to its statement's write joins alike
    for a, (i1, r1, w1) in enumerate(refs):
        for i2, r2, w2 in refs[a:]:
            if not (w1 or w2) or r1.array.name != r2.array.name:
                continue
            if (i1, r1, i2, r2) not in signs:
                signs[i1, r1, i2, r2] = meeting_signs(
                    touched[i1, r1, w1], touched[i2, r2, w2]
                )
            for p in signs[i1, r1, i2, r2]:
                if not any(p) and i1 == i2:
                    continue  # the same instance of the same statement
                forward = lex_positive(p) if any(p) else i1 < i2
                src, src_w, dst, dst_w = (
                    (i1, w1, i2, w2) if forward else (i2, w2, i1, w1)
                )
                kind = "output" if src_w and dst_w else "flow" if src_w else "anti"
                out.setdefault((r1.array.name, src, dst, kind), set()).add(
                    direction_of(p if forward else [-v for v in p])
                )
    return out


def edge_directions(edges):
    """``analyze_nest`` edges as direction patterns per edge key."""
    out = {}
    for e in edges:
        out.setdefault((e.array, e.src_stmt, e.dst_stmt, e.kind), set()).update(
            e.directions
        )
    return out


def touches_back(first, later, prefix_len, binding):
    """At ``binding``: does ``later`` touch an element ``first`` also
    touches, one of the two writing, at a loop prefix (the first
    ``prefix_len`` loops) strictly before ``first``'s?"""
    touched_a, touched_b = touches(first, binding), touches(later, binding)
    return any(
        not lex_positive(p)
        for (_, ra, wa), (ka, va) in touched_a.items()
        for (_, rb, wb), (kb, vb) in touched_b.items()
        if (wa or wb) and ra.array.name == rb.array.name
        for p in meeting_signs((ka, va[:, :prefix_len]), (kb, vb[:, :prefix_len]))
    )
