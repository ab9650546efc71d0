"""Line-by-line and edge-by-edge code the library replaced, kept as a test reference.

The closed forms: every base edge gets its own ``triangles_on_edge`` call,
counters and four :class:`EdgeTerm` objects, every hub edge of the polymeric
expansion is counted per base vertex, and the index is summed in exact
``Fraction`` arithmetic over those copies: in float mode each copy weighs
``fl((a*b)**alpha)`` for its end degrees ``a`` and ``b``, as ``randic_index``
weighs an edge, and the exact sum is rounded once at the end; so is each
breakdown term and edge weight, from its own exact value. Level 1 of the
polymeric expansion keeps its own vertex-by-vertex loop. Counters, powers and
the integrality check are this module's own copies, and :func:`report_json`
renders a report edge by edge, term by term, so the reference calls none of
the code it checks.

The oracle and edge-list I/O: the expansion built word by word from its
definition, a reader that checks one line at a time, a writer that formats
one edge at a time, ``randic_index`` summed edge by edge, the CSR arrays of
:class:`Graph` built with ``lexsort``, and the connectivity and 2-coloring
searches over numpy arrays.

The library must agree with all of it exactly: equal integers in exact mode,
the same correctly rounded floats otherwise, the same per-edge breakdown, the
same graphs, bytes and errors.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from sierpindex.closedform import EdgeTerm, IndexReport, PolymericParts
from sierpindex.construct import repunit, word_to_id
from sierpindex.graphs import Graph, GraphError, ParseError, as_params, triangles_on_edge


# -- the oracle and edge-list I/O ------------------------------------------------

def graph_arrays(n, edges):
    """Canonical edges and CSR ``(indptr, indices)`` as ``Graph(n, edges)``
    built them with ``np.unique`` and ``lexsort``; raises what it raised."""
    if n < 2:
        raise GraphError(f"need at least 2 vertices, got n={n}")
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2 or e.shape[0] == 0:
        raise GraphError("need a nonempty sequence of vertex pairs")
    if e.min() < 1 or e.max() > n:
        raise GraphError(f"vertex id out of range 1..{n}")
    if (e[:, 0] == e[:, 1]).any():
        raise GraphError("self-loops are not allowed")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    key = np.unique(lo * np.int64(n + 1) + hi)
    if key.size != lo.size:
        raise GraphError("duplicate edges are not allowed")
    canon = np.column_stack((key // (n + 1), key % (n + 1)))
    src = np.concatenate((canon[:, 0], canon[:, 1]))
    dst = np.concatenate((canon[:, 1], canon[:, 0]))
    order = np.lexsort((dst, src))
    indices = np.ascontiguousarray(dst[order])
    counts = np.bincount(src, minlength=n + 1)
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return canon, indptr, indices


def expansion_edges(base, t):
    """The level-``t`` expansion's edges as sorted ``(u, v)`` pairs, ``u < v``,
    one per level ``i``, prefix word ``w`` of length ``i - 1`` and base edge
    ``{x, y}``: ``w x y...y`` joined to ``w y x...x``. Duplicates are kept."""
    n, edges = base.n, []
    for i in range(1, t + 1):
        for w in product(range(1, n + 1), repeat=i - 1):
            for x, y in base.iter_edges():
                u = word_to_id((*w, x) + (y,) * (t - i), n)
                v = word_to_id((*w, y) + (x,) * (t - i), n)
                edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def parse_edge_list(text):
    n = m = None
    edges = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "p":
                raise ParseError("expected header 'p <n> <m>'", line_no)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("header counts must be integers", line_no) from None
            if n < 2:
                raise ParseError("need at least 2 vertices", line_no)
            if m < 1:
                raise ParseError("need at least 1 edge", line_no)
            continue
        if len(edges) == m:
            raise ParseError(f"edge count mismatch: header says m={m}", line_no)
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected an edge line '<u> <v>'", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("vertex ids must be integers", line_no) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex id out of range 1..{n}", line_no)
        if u == v:
            raise ParseError("self-loop", line_no)
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise ParseError(f"duplicate edge {{{edge[0]},{edge[1]}}}", line_no)
        seen.add(edge)
        edges.append(edge)
    if n is None:
        raise ParseError("missing header 'p <n> <m>'")
    if len(edges) != m:
        raise ParseError(f"edge count mismatch: header says m={m}, found {len(edges)}")
    return Graph(n, edges)


def render_edge_list(g):
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.iter_edges())
    return "\n".join(lines) + "\n"


def randic_index(g, params):
    p = as_params(params)
    deg = g.degrees().tolist()
    if p.exact:
        a = p.int_alpha
        return sum((deg[u] * deg[v]) ** a for u, v in g.iter_edges())
    return math.fsum((deg[u] * deg[v]) ** p.alpha for u, v in g.iter_edges())


def is_connected(g):
    seen = np.zeros(g.n + 1, dtype=bool)
    seen[1] = True
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v).tolist():
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return bool(seen[1:].all())


def bipartite_semiregular(g):
    """``degree_profile(g).bipartite_semiregular`` from a per-vertex numpy
    2-coloring, every component rooted at its lowest vertex with color 0."""
    color = np.full(g.n + 1, -1, dtype=np.int8)
    for root in range(1, g.n + 1):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v).tolist():
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    deg = g.degrees()[1:]
    part1 = np.flatnonzero(color[1:] == color[1]) + 1
    part2 = np.flatnonzero(color[1:] != color[1]) + 1
    d1, d2 = deg[part1 - 1], deg[part2 - 1]
    if part2.size and d1.min() == d1.max() and d2.min() == d2.max():
        return (int(part1.size), int(part2.size), int(d1[0]), int(d2[0]))
    return None


# -- the closed forms --------------------------------------------------------------

class EdgeWeight(NamedTuple):
    """Total contribution of all copies of one base edge."""

    x: int
    y: int
    terms: tuple
    weight: int | float


class SierpinskiBreakdown(NamedTuple):
    """The breakdown edge by edge, as the library gave it before it grouped
    the edges by class; :func:`expand` turns the library's JSON into this."""

    edge_weights: tuple


class PolymericBreakdown(NamedTuple):
    parts: PolymericParts
    copies_mid_edges: tuple
    copies_top_edges: tuple


def _power(d, p):
    return d ** p.int_alpha if p.exact else d ** p.alpha


def _weight(a, b, p):
    """The weight of one expansion edge with end degrees ``a`` and ``b``: the
    integer ``(a*b)**alpha``, or the float power as an exact Fraction."""
    w = _power(a * b, p)
    return w if p.exact else Fraction(w)


def _rounded(total, p):
    """The exact sum itself, or its correctly rounded float (``OverflowError``
    past the double range)."""
    return total if p.exact else float(total)


def _report(variant, t, p, total, breakdown):
    try:
        value = float(total)
    except OverflowError:
        value = None
    return IndexReport(variant, t, p.alpha, value, total if p.exact else None, breakdown)


def _int_ratio(num, den):
    f = Fraction(num, den)
    if f.denominator != 1:
        raise ArithmeticError(f"prefactor {f} expected to be integral")
    return int(f)


def _counters(n, dx, dy, tau, lead, rep):
    c00 = lead * (n - dx - dy + tau)
    c01 = lead * (dy - tau) - rep * dx
    c10 = lead * (dx - tau) - rep * dy
    c11 = lead * (tau + 1) + rep * (dx + dy + 1)
    if min(c00, c01, c10, c11) < 0:
        raise ArithmeticError(f"negative degree-class counter for (dx, dy, tau) = {(dx, dy, tau)}")
    return c00, c01, c10, c11


def _edge_weight(x, y, dx, dy, counters, shift, p):
    """The edge's breakdown entry, and its exact contribution to the index."""
    terms = []
    exact = 0
    for (i, j), count in zip(((0, 0), (0, 1), (1, 0), (1, 1)), counters):
        a, b = dx + shift + i, dy + shift + j
        value = count * _weight(a, b, p)
        terms.append(EdgeTerm(count, (a, b), _rounded(value, p)))
        exact += value
    return EdgeWeight(x, y, tuple(terms), _rounded(exact, p)), exact


def sierpinski_randic(base, t, params, include_breakdown=False):
    p = as_params(params)
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1:
        return _report("S", t, p, randic_index(base, p), None)

    n = base.n
    lead, rep = n ** (t - 2), repunit(n, t - 2)
    deg = base.degrees().tolist()
    weights = []
    total = 0
    for x, y in base.iter_edges():
        tau = triangles_on_edge(base, x, y)
        counters = _counters(n, deg[x], deg[y], tau, lead, rep)
        weight, exact = _edge_weight(x, y, deg[x], deg[y], counters, 0, p)
        weights.append(weight)
        total += exact
    breakdown = SierpinskiBreakdown(tuple(weights)) if include_breakdown else None
    return _report("S", t, p, _rounded(total, p), breakdown)


def polymeric_level1_randic(base, p):
    """One hub of degree ``n`` joined to every base vertex, every base degree
    lifted by one; summed vertex by vertex and edge by edge."""
    deg = base.degrees().tolist()
    hub_terms = [_weight(base.n, deg[x] + 1, p) for x in range(1, base.n + 1)]
    lift_terms = [_weight(deg[x] + 1, deg[y] + 1, p) for x, y in base.iter_edges()]
    return _rounded(sum(hub_terms) + sum(lift_terms), p)


def polymeric_randic(base, t, params, include_breakdown=False):
    p = as_params(params)
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1:
        return _report("P", t, p, polymeric_level1_randic(base, p), None)

    n = base.n
    deg = base.degrees().tolist()
    psi1 = repunit(n, t - 1)
    psi2 = repunit(n, t - 2)
    lead = n ** (t - 2)
    s_mid_hub = _int_ratio(t - 2 - n * psi2, 1 - n)
    s_mid_copy = _int_ratio(t - 2 - psi2, 1 - n)
    s_links = _int_ratio(t - 1 - psi1, 1 - n)

    def hub_edges(counts):
        # copies of the hub edges at each base vertex: (count, hub degree, vertex degree) per kind
        return sum(c * _weight(h, deg[x] + s, p) for x in range(1, n + 1) for c, h, s in counts(deg[x]))

    hub_root = hub_edges(lambda d: ((1, n, 2),))
    first_copy = sum(_weight(deg[x] + 2, deg[y] + 2, p) for x, y in base.iter_edges())
    hub_mid = hub_edges(lambda d: ((n * psi2 - d * s_mid_hub, n + 1, 2), (d * s_mid_hub, n + 1, 3)))
    level_links = hub_edges(lambda d: ((psi1 - d * s_links, n + 1, 2), (d * s_links, n + 1, 3)))
    hub_top = hub_edges(lambda d: ((n ** (t - 1) - d * psi1, n + 1, 1), (d * psi1, n + 1, 2)))

    mid_edges, top_edges = [], []
    copies_mid = copies_top = 0
    for x, y in base.iter_edges():
        tau = triangles_on_edge(base, x, y)
        weight, exact = _edge_weight(x, y, deg[x], deg[y], _counters(n, deg[x], deg[y], tau, psi2, s_mid_copy), 2, p)
        mid_edges.append(weight)
        copies_mid += exact
        weight, exact = _edge_weight(x, y, deg[x], deg[y], _counters(n, deg[x], deg[y], tau, lead, psi2), 1, p)
        top_edges.append(weight)
        copies_top += exact

    exact_parts = (hub_root, first_copy, hub_mid, copies_mid, level_links, hub_top, copies_top)
    total = _rounded(sum(exact_parts), p)
    breakdown = None
    if include_breakdown:
        parts = PolymericParts(*(_rounded(part, p) for part in exact_parts))
        breakdown = PolymericBreakdown(parts, tuple(mid_edges), tuple(top_edges))
    return _report("P", t, p, total, breakdown)


def _num_json(v):
    return str(v) if isinstance(v, int) else v


def _edge_weights_json(weights):
    return [
        {
            "edge": [w.x, w.y],
            "terms": [
                {"count": str(term.count), "degrees": list(term.degrees), "value": _num_json(term.value)}
                for term in w.terms
            ],
            "weight": _num_json(w.weight),
        }
        for w in weights
    ]


def report_json(report):
    """The per-edge document of ``report``: what ``to_json_dict`` gave before
    the breakdown was grouped by class, every edge and term on its own."""
    doc = {"variant": report.variant, "t": report.t, "alpha": report.alpha, "value": report.value}
    bd = report.breakdown
    if isinstance(bd, SierpinskiBreakdown):
        doc["breakdown"] = {"edge_weights": _edge_weights_json(bd.edge_weights)}
    elif bd is not None:
        doc["breakdown"] = {
            "parts": {k: _num_json(v) for k, v in bd.parts.as_dict().items()},
            "copies_mid_edges": _edge_weights_json(bd.copies_mid_edges),
            "copies_top_edges": _edge_weights_json(bd.copies_top_edges),
        }
    if report.exact is not None:
        doc["exact"] = str(report.exact)
    return doc


def expand(doc, base):
    """The per-edge document of a ``to_json_dict`` document of ``base``: every
    canonical edge gets the terms and weight of its class."""
    def edges(classes, edge_class):
        return [{"edge": [x, y], "terms": classes[i]["terms"], "weight": classes[i]["weight"]}
                for (x, y), i in zip(base.iter_edges(), edge_class)]

    bd = doc.get("breakdown")
    if bd is None:
        return doc
    if "classes" in bd:
        per_edge = {"edge_weights": edges(bd["classes"], bd["edge_class"])}
    else:
        per_edge = {"parts": bd["parts"], "copies_mid_edges": edges(bd["copies_mid"], bd["edge_class"]),
                    "copies_top_edges": edges(bd["copies_top"], bd["edge_class"])}
    return {**doc, "breakdown": per_edge}
