"""Edge-by-edge evaluation of the closed forms, kept as a test reference.

This is the plain loop the library's class-grouped compile replaced: every
base edge gets its own ``triangles_on_edge`` call, counters and four
:class:`EdgeTerm` objects, and the totals are summed in canonical edge order.
Level 1 of the polymeric expansion keeps its own vertex-by-vertex loop.
The library must agree with it exactly: equal integers in exact mode,
bit-identical floats otherwise, and the same per-edge breakdown.
"""

import math

from sierpindex.closedform import (
    EdgeTerm,
    EdgeWeight,
    PolymericBreakdown,
    PolymericParts,
    SierpinskiBreakdown,
    _counters,
    _finish,
    _int_ratio,
    _power,
)
from sierpindex.construct import repunit
from sierpindex.graphs import as_params, is_connected, randic_index, triangles_on_edge


def _edge_weight(x, y, dx, dy, counters, shift, p):
    terms = []
    for (i, j), count in zip(((0, 0), (0, 1), (1, 0), (1, 1)), counters):
        a, b = dx + shift + i, dy + shift + j
        value = count * (_power(a, p) * _power(b, p))
        terms.append(EdgeTerm(count, (a, b), value))
    weight = sum(t.value for t in terms) if p.exact else math.fsum(t.value for t in terms)
    return EdgeWeight(x, y, tuple(terms), weight)


def sierpinski_randic(base, t, params, include_breakdown=False):
    p = as_params(params)
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1:
        return _finish("S", t, p, randic_index(base, p), None)

    n = base.n
    lead, rep = n ** (t - 2), repunit(n, t - 2)
    deg = base.degrees().tolist()
    weights = []
    for x, y in base.iter_edges():
        tau = triangles_on_edge(base, x, y)
        counters = _counters(n, deg[x], deg[y], tau, lead, rep)
        weights.append(_edge_weight(x, y, deg[x], deg[y], counters, 0, p))
    total = sum(w.weight for w in weights) if p.exact else math.fsum(w.weight for w in weights)
    breakdown = SierpinskiBreakdown(tuple(weights)) if include_breakdown else None
    return _finish("S", t, p, total, breakdown)


def polymeric_level1_randic(base, p):
    """One hub of degree ``n`` joined to every base vertex, every base degree
    lifted by one; summed vertex by vertex and edge by edge."""
    deg = base.degrees().tolist()
    hub_terms = [_power(deg[x] + 1, p) for x in range(1, base.n + 1)]
    lift_terms = [_power(deg[x] + 1, p) * _power(deg[y] + 1, p) for x, y in base.iter_edges()]
    if p.exact:
        return base.n ** p.int_alpha * sum(hub_terms) + sum(lift_terms)
    return base.n ** p.alpha * math.fsum(hub_terms) + math.fsum(lift_terms)


def polymeric_randic(base, t, params, include_breakdown=False):
    p = as_params(params)
    if t < 1:
        raise ValueError("t must be >= 1")
    if not is_connected(base):
        raise ValueError("polymeric index needs a connected base graph")
    if t == 1:
        return _finish("P", t, p, polymeric_level1_randic(base, p), None)

    n = base.n
    deg = base.degrees().tolist()
    psi1 = repunit(n, t - 1)
    psi2 = repunit(n, t - 2)
    lead = n ** (t - 2)
    s_mid_hub = _int_ratio(t - 2 - n * psi2, 1 - n)
    s_mid_copy = _int_ratio(t - 2 - psi2, 1 - n)
    s_links = _int_ratio(t - 1 - psi1, 1 - n)

    verts = range(1, n + 1)
    hub_deg_pow = _power(n + 1, p)
    plus1 = {x: _power(deg[x] + 1, p) for x in verts}
    plus2 = {x: _power(deg[x] + 2, p) for x in verts}
    plus3 = {x: _power(deg[x] + 3, p) for x in verts}

    def vsum(values):
        return sum(values) if p.exact else math.fsum(values)

    sum_p2 = vsum(plus2[x] for x in verts)
    sum_d_p2 = vsum(deg[x] * plus2[x] for x in verts)
    sum_d_p3 = vsum(deg[x] * plus3[x] for x in verts)

    hub_root = _power(n, p) * sum_p2
    first_copy = vsum(plus2[x] * plus2[y] for x, y in base.iter_edges())
    hub_mid = hub_deg_pow * ((n * psi2) * sum_p2 + s_mid_hub * (sum_d_p3 - sum_d_p2))
    level_links = hub_deg_pow * (psi1 * sum_p2 + s_links * (sum_d_p3 - sum_d_p2))
    hub_top = hub_deg_pow * (
        vsum(plus1[x] * (n ** (t - 1) - deg[x] * psi1) for x in verts) + psi1 * sum_d_p2
    )

    mid_edges = []
    top_edges = []
    for x, y in base.iter_edges():
        tau = triangles_on_edge(base, x, y)
        mid_edges.append(
            _edge_weight(x, y, deg[x], deg[y], _counters(n, deg[x], deg[y], tau, psi2, s_mid_copy), 2, p)
        )
        top_edges.append(
            _edge_weight(x, y, deg[x], deg[y], _counters(n, deg[x], deg[y], tau, lead, psi2), 1, p)
        )
    copies_mid = vsum(w.weight for w in mid_edges)
    copies_top = vsum(w.weight for w in top_edges)

    parts = PolymericParts(hub_root, first_copy, hub_mid, copies_mid, level_links, hub_top, copies_top)
    breakdown = (
        PolymericBreakdown(parts, tuple(mid_edges), tuple(top_edges)) if include_breakdown else None
    )
    return _finish("P", t, p, parts.total, breakdown)
