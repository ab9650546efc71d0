"""Closed-form evaluation of degree-product indices on graph expansions.

Instead of building the level-``t`` expansion (``n**t`` vertices), the index
is assembled from exact per-edge and per-vertex degree-class counters of the
base graph. Counters and integer prefactors are carried in arbitrary
precision; floating point only enters when a counter multiplies a real power
of a degree, so ``t`` can be large without overflow in exact mode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple, Union

from .construct import EdgeClassCounts, VertexClassCounts, repunit
from .graphs import (
    Graph,
    IndexParams,
    as_params,
    degree_power_sum,
    edge_triangles,
    is_connected,
    randic_index,
    triangle_count,
    triangles_on_edge,
)

Number = Union[int, float]


def _int_ratio(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"prefactor {num}/{den} expected to be integral")
    return q


def _counters(n: int, dx: int, dy: int, tau: int, lead: int, rep: int) -> tuple[int, int, int, int]:
    """The four degree-class counters in (00, 01, 10, 11) increment order.

    ``lead`` multiplies the per-copy census of one level, ``rep`` the
    geometric carry-over from deeper levels; instantiated with
    ``(n**(t-2), repunit(n, t-2))`` this counts edge copies of the level-``t``
    expansion by endpoint degree increments.
    """
    c00 = lead * (n - dx - dy + tau)
    c01 = lead * (dy - tau) - rep * dx
    c10 = lead * (dx - tau) - rep * dy
    c11 = lead * (tau + 1) + rep * (dx + dy + 1)
    if min(c00, c01, c10, c11) < 0:
        raise ArithmeticError(f"negative degree-class counter for (dx, dy, tau) = {(dx, dy, tau)}")
    return c00, c01, c10, c11


def edge_class_counts(base: Graph, x: int, y: int, t: int) -> EdgeClassCounts:
    """Exact copies of base edge ``{x, y}`` in the level-``t`` expansion,
    split by endpoint degree increments; equals the explicit census."""
    if t < 2:
        raise ValueError("degree-class counters need t >= 2")
    if x > y:
        x, y = y, x
    tau = triangles_on_edge(base, x, y)  # validates the edge
    deg = base.degrees()
    c = _counters(base.n, int(deg[x]), int(deg[y]), tau, base.n ** (t - 2), repunit(base.n, t - 2))
    return EdgeClassCounts(x, y, *c)


def vertex_class_counts(base: Graph, x: int, t: int) -> VertexClassCounts:
    """Exact copies of base vertex ``x`` in the level-``t`` expansion, split
    by kept degree (``c0``) vs degree + 1 (``c1``)."""
    if t < 2:
        raise ValueError("degree-class counters need t >= 2")
    bumped = base.degree(x) * repunit(base.n, t - 1)
    return VertexClassCounts(x, base.n ** (t - 1) - bumped, bumped)


# -- term breakdowns and reports ----------------------------------------------

@dataclass(frozen=True)
class EdgeTerm:
    """One degree-class contribution: ``count * dx**alpha * dy**alpha``."""

    count: int
    degrees: tuple[int, int]
    value: Number


@dataclass(frozen=True)
class EdgeWeight:
    """Total contribution of all copies of one base edge."""

    x: int
    y: int
    terms: tuple[EdgeTerm, ...]
    weight: Number


@dataclass(frozen=True)
class SierpinskiBreakdown:
    """Per base edge: the four degree-class terms composing its weight."""

    edge_weights: tuple[EdgeWeight, ...]


class PolymericParts(NamedTuple):
    """The seven edge-group contributions of the polymeric expansion.

    In stacking order: the apex hub fan-out, the level-1 copy of the base,
    the hub fan-outs and expansion edges of middle levels ``2..t-1``, the
    parent links between consecutive levels, and the hub fan-outs and
    expansion edges of the top level ``t``.
    """

    hub_root: Number
    first_copy: Number
    hub_mid: Number
    copies_mid: Number
    level_links: Number
    hub_top: Number
    copies_top: Number

    @property
    def total(self) -> Number:
        if all(isinstance(p, int) for p in self):
            return sum(self)
        return math.fsum(self)

    def as_dict(self) -> dict[str, Number]:
        return dict(zip(self._fields, self))


@dataclass(frozen=True)
class PolymericBreakdown:
    """Seven-part split plus per-edge weights of the two expansion groups."""

    parts: PolymericParts
    copies_mid_edges: tuple[EdgeWeight, ...]
    copies_top_edges: tuple[EdgeWeight, ...]


@dataclass(frozen=True)
class IndexReport:
    """A computed index value with provenance and optional term breakdown.

    ``value`` is the float result (None when an exact integer result exceeds
    the double range); ``exact`` is set in exact mode only.
    """

    variant: str  # "S" (plain expansion) or "P" (polymeric)
    t: int
    alpha: float
    value: float | None
    exact: int | None
    breakdown: SierpinskiBreakdown | PolymericBreakdown | None
    source: str  # "closed-form" or "construction"

    def to_json_dict(self) -> dict:
        doc: dict = {"variant": self.variant, "t": self.t, "alpha": self.alpha, "value": self.value}
        if self.breakdown is not None:
            doc["breakdown"] = _breakdown_json(self.breakdown)
        if self.exact is not None:
            doc["exact"] = str(self.exact)
        return doc


def _num_json(v: Number | None):
    # huge exact integers go to JSON as decimal strings
    return str(v) if isinstance(v, int) else v


def _edge_weights_json(weights: tuple[EdgeWeight, ...]) -> list[dict]:
    # a degree class's edges share their terms and weight objects: render those once
    # (ids are stable while `weights` holds them), but give each edge its own containers
    rendered, docs = {}, []
    for w in weights:
        if (key := (id(w.terms), id(w.weight))) not in rendered:
            rendered[key] = [(str(u.count), *u.degrees, _num_json(u.value)) for u in w.terms], _num_json(w.weight)
        rows, weight = rendered[key]
        terms = [{"count": c, "degrees": [a, b], "value": v} for c, a, b, v in rows]
        docs.append({"edge": [w.x, w.y], "terms": terms, "weight": weight})
    return docs


def _breakdown_json(breakdown) -> dict:
    if isinstance(breakdown, SierpinskiBreakdown):
        return {"edge_weights": _edge_weights_json(breakdown.edge_weights)}
    return {
        "parts": {k: _num_json(v) for k, v in breakdown.parts.as_dict().items()},
        "copies_mid_edges": _edge_weights_json(breakdown.copies_mid_edges),
        "copies_top_edges": _edge_weights_json(breakdown.copies_top_edges),
    }


def _float_or_none(value: Number) -> float | None:
    """``float(value)``, or None when an exact integer exceeds the double range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _finish(variant: str, t: int, p: IndexParams, total: Number, breakdown) -> IndexReport:
    # with finite alpha a float total is non-finite only when a power product overflowed
    if not p.exact and not math.isfinite(total):
        raise OverflowError(f"float {variant} index at t={t}, alpha={p.alpha:g} exceeds the double range")
    exact = int(total) if p.exact else None
    return IndexReport(variant, t, p.alpha, _float_or_none(total), exact, breakdown, "closed-form")


# -- expansion index ----------------------------------------------------------

def _power_table(base: Graph, shifts, extra, p: IndexParams) -> dict[int, Number]:
    """``k ** alpha`` for each ``k`` in ``extra`` and each lifted degree ``k = d + s``
    of a vertex that has edges (an isolated vertex's 0 has no negative power)."""
    a = p.int_alpha if p.exact else p.alpha
    return {k: k ** a for k in {d + s for d in set(base.degrees().tolist()) - {0} for s in shifts}.union(extra)}


def _edge_classes(base: Graph) -> tuple[list[tuple[int, int, int]], Counter]:
    """The class ``(dx, dy, tau)`` of every canonical edge and the size of each
    class. Degrees and triangles are all the closed forms see of an edge, so
    the edges of one class contribute identical terms."""
    deg, e = base.degrees(), base.edges
    keys = list(zip(deg[e[:, 0]].tolist(), deg[e[:, 1]].tolist(), edge_triangles(base).tolist()))
    return keys, Counter(keys)


def _class_sum(weights, sizes, p: IndexParams) -> Number:
    """Sum of class weights, each times its class size. Float mode gives
    ``fsum`` each weight once per member: the same values as a member-by-member
    sum, so the same correctly rounded bits."""
    if p.exact:
        return sum(k * w for w, k in zip(weights, sizes))
    return math.fsum(chain.from_iterable(map(repeat, weights, sizes)))


def _edge_group(base: Graph, keys, classes: Counter, pw: dict[int, Number], lead: int, rep: int, shift: int,
                p: IndexParams, include_breakdown: bool) -> tuple[Number, tuple[EdgeWeight, ...] | None]:
    """Total weight of one copy group of the base edges, each weighed by the
    four degree classes at ``base degree + shift`` with powers from ``pw``;
    per-edge weights in canonical order only when a breakdown is asked for."""
    n, add = base.n, sum if p.exact else math.fsum
    weights, terms = {}, {}
    for key in classes:
        dx, dy, tau = key
        c00, c01, c10, c11 = counters = _counters(n, dx, dy, tau, lead, rep)
        a, b = dx + shift, dy + shift
        pa0, pa1, pb0, pb1 = pw[a], pw[a + 1], pw[b], pw[b + 1]
        values = (c00 * (pa0 * pb0), c01 * (pa0 * pb1), c10 * (pa1 * pb0), c11 * (pa1 * pb1))
        weights[key] = add(values)
        if include_breakdown:
            terms[key] = tuple(map(EdgeTerm, counters, ((a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1)), values))
    total = _class_sum(weights.values(), classes.values(), p)
    if not include_breakdown:
        return total, None
    edges = zip(base.iter_edges(), keys)
    return total, tuple(EdgeWeight(x, y, terms[key], weights[key]) for (x, y), key in edges)


def sierpinski_randic(
    base: Graph,
    t: int,
    params: IndexParams | float,
    include_breakdown: bool = False,
) -> IndexReport:
    """Degree-product index of the level-``t`` expansion, in closed form.

    ``t = 1`` is the base graph itself and reduces to the direct edge sum;
    for ``t >= 2`` each base edge contributes the four degree-class terms of
    its class ``(dx, dy, tau)``, computed once per class.
    """
    p = as_params(params)
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1:
        return _finish("S", t, p, randic_index(base, p), None)

    n = base.n
    keys, classes = _edge_classes(base)
    pw = _power_table(base, (0, 1), (), p)
    lead, rep = n ** (t - 2), repunit(n, t - 2)
    total, weights = _edge_group(base, keys, classes, pw, lead, rep, 0, p, include_breakdown)
    breakdown = SierpinskiBreakdown(weights) if include_breakdown else None
    return _finish("S", t, p, total, breakdown)


# -- polymeric index ----------------------------------------------------------

def polymeric_randic(
    base: Graph,
    t: int,
    params: IndexParams | float,
    include_breakdown: bool = False,
) -> IndexReport:
    """Degree-product index of the level-``t`` polymeric expansion.

    ``t = 1`` is one hub of degree ``n`` joined to every base vertex, every
    base degree lifted by one: the ``hub_root`` and ``first_copy`` terms alone
    (no breakdown). For ``t >= 2`` those degrees are lifted by two and the
    value splits into the seven :class:`PolymericParts` edge groups; all
    integer prefactors (powers, repunits, the telescoped level sums) are
    exact.
    """
    p = as_params(params)
    if t < 1:
        raise ValueError("t must be >= 1")
    if not is_connected(base):
        raise ValueError("polymeric index needs a connected base graph")

    n = base.n
    # the level-1 copy's degrees gain its hub and, below the top, the parent link
    lift = 1 if t == 1 else 2
    degree_classes = Counter(base.degrees()[1:].tolist())
    shifts, hubs = ((1,), (n,)) if t == 1 else ((1, 2, 3), (n, n + 1))  # hubs: n at the root, n+1 below
    pw = _power_table(base, shifts, hubs, p)

    def vsum(f) -> Number:
        return _class_sum(map(f, degree_classes), degree_classes.values(), p)

    sum_p2 = vsum(lambda d: pw[d + lift])
    hub_root = pw[n] * sum_p2
    keys, classes = _edge_classes(base)
    first_copy = _class_sum((pw[dx + lift] * pw[dy + lift] for dx, dy, _ in classes), classes.values(), p)
    if t == 1:
        return _finish("P", t, p, hub_root + first_copy, None)

    psi1, psi2, lead = repunit(n, t - 1), repunit(n, t - 2), n ** (t - 2)
    # level sums of hub/repunit prefactors, telescoped to exact integers:
    #   mid hubs   sum_{i=2..t-1} repunit(i-1), mid copies sum_{i=2..t-1} repunit(i-2),
    #   parent links sum_{i=1..t-1} repunit(i-1)
    s_mid_hub = _int_ratio(t - 2 - n * psi2, 1 - n)
    s_mid_copy = _int_ratio(t - 2 - psi2, 1 - n)
    s_links = _int_ratio(t - 1 - psi1, 1 - n)

    sum_d_p2 = vsum(lambda d: d * pw[d + 2])
    sum_d_p3 = vsum(lambda d: d * pw[d + 3])

    hub_mid = pw[n + 1] * ((n * psi2) * sum_p2 + s_mid_hub * (sum_d_p3 - sum_d_p2))
    level_links = pw[n + 1] * (psi1 * sum_p2 + s_links * (sum_d_p3 - sum_d_p2))
    top = n ** (t - 1)
    hub_top = pw[n + 1] * (vsum(lambda d: pw[d + 1] * (top - d * psi1)) + psi1 * sum_d_p2)

    copies_mid, mid_edges = _edge_group(base, keys, classes, pw, psi2, s_mid_copy, 2, p, include_breakdown)
    copies_top, top_edges = _edge_group(base, keys, classes, pw, lead, psi2, 1, p, include_breakdown)

    parts = PolymericParts(hub_root, first_copy, hub_mid, copies_mid, level_links, hub_top, copies_top)
    breakdown = PolymericBreakdown(parts, mid_edges, top_edges) if include_breakdown else None
    return _finish("P", t, p, parts.total, breakdown)


# -- bounds for triangle-free bases --------------------------------------------

def sierpinski_randic_bounds(base: Graph, t: int, alpha: float) -> tuple[float, float]:
    """Sandwich ``lower <= index(expansion) <= upper`` for triangle-free bases.

    Built by replacing each degree increment ``(d+1)**alpha - d**alpha`` with
    its extreme over the degree range and each degree-class counter with its
    extreme; both bounds collapse to the exact value precisely when the base
    is regular. Requires minimum degree >= 1 and a degree spread small enough
    that the substituted factors stay nonnegative (checked).
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if t < 2:
        raise ValueError("bounds need t >= 2")
    if triangle_count(base) != 0:
        raise ValueError("bounds require a triangle-free base graph")
    degs = base.degrees().tolist()[1:]
    dmin, dmax = min(degs), max(degs)
    if dmin < 1:
        raise ValueError("bounds require no isolated vertices")

    n = base.n
    lead, rep = n ** (t - 2), repunit(n, t - 2)
    r_base = randic_index(base, alpha)
    m_next = degree_power_sum(base, alpha + 1)
    m_edges = base.m  # = M1 / 2

    # Envelope of the per-vertex increment h(d) = (d+1)**a - d**a over
    # d in [dmin, dmax]; the two cross terms swap roles when alpha < 0.
    cross = ((dmin + 1) ** alpha - dmax ** alpha, (dmax + 1) ** alpha - dmin ** alpha)
    e_lo, e_hi = min(cross), max(cross)
    min_pow = min(dmin ** alpha, dmax ** alpha)
    if min_pow + e_lo < 0:
        raise ValueError("degree spread too large for a valid envelope at this alpha")

    def envelope(d_in: int, d_out: int, e: float) -> float:
        return (
            lead * (n - 2 * d_out) * r_base
            + (lead * d_in - d_out * rep) * (2 * r_base + e * m_next)
            + (lead + (2 * d_in + 1) * rep) * (r_base + e * m_next + m_edges * e * e)
        )

    return envelope(dmin, dmax, e_lo), envelope(dmax, dmin, e_hi)

