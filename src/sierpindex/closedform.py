"""Closed-form evaluation of degree-product indices on graph expansions.

Instead of building the level-``t`` expansion (``n**t`` vertices), the index
is assembled from exact per-edge and per-vertex degree-class counters of the
base graph. Once the base, ``alpha`` and the variant are fixed, every counter
is affine in ``n**(t-2)`` (and, for the polymeric expansion, in ``t``), so
:func:`compile_index` sums the whole index once into integer coefficients
over ``(n**(t-2), t, 1)`` and :meth:`LevelForm.at` evaluates any level with
one power of ``n`` and one division.

Exact mode (integer ``alpha >= 1``) returns the integer index. Float mode
returns the correctly rounded value of the exact sum, over the expansion's
edges, of ``fl(a**alpha * b**alpha)`` for end degrees ``a`` and ``b``: each
power and each product is rounded once, and the sum once more at the end. A
value past the double range raises :class:`OverflowError`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

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
    expansion by endpoint degree increments; all four are nonnegative for
    every ``tau`` that :func:`compile_index` accepts.
    """
    c00 = lead * (n - dx - dy + tau)
    c01 = lead * (dy - tau) - rep * dx
    c10 = lead * (dx - tau) - rep * dy
    c11 = lead * (tau + 1) + rep * (dx + dy + 1)
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


def _report(variant: str, t: int, p: IndexParams, total: Number, breakdown) -> IndexReport:
    exact = total if p.exact else None
    return IndexReport(variant, t, p.alpha, _float_or_none(total), exact, breakdown, "closed-form")


# -- the compiled level form ----------------------------------------------------

def _degree_pairs(base: Graph, deg: np.ndarray, tau: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """``[edges, triangles on them]`` per ordered end-degree pair ``(dx, dy)``;
    every counter is linear in an edge's triangles ``tau``. Refuses ``tau``
    outside ``[max(0, dx + dy - n), min(dx, dy) - 1]``, the range where all
    four counters are nonnegative at every level ``t >= 2``."""
    e, n, pairs = base.edges, base.n, {}
    for (dx, dy, k), size in Counter(zip(deg[e[:, 0]].tolist(), deg[e[:, 1]].tolist(), tau.tolist())).items():
        if k < 0 or k < dx + dy - n or k >= dx or k >= dy:
            raise ArithmeticError(f"{k} triangles on an edge with end degrees {dx} and {dy} of a base on {n} vertices")
        acc = pairs.setdefault((dx, dy), [0, 0])
        acc[0], acc[1] = acc[0] + size, acc[1] + size * k
    return pairs


def _affine(*terms) -> tuple[int, int, int]:
    """``sum(scalar * basis)`` over ``(N, t, 1)`` for ``(basis, scalar)`` terms."""
    a = b = c = 0
    for (x, y, z), scalar in terms:
        a, b, c = a + x * scalar, b + y * scalar, c + z * scalar
    return a, b, c


@dataclass(eq=False)
class LevelForm:
    """One base compiled for one variant and :class:`IndexParams`. At ``t >= 2``
    each of ``parts`` (one for ``S``, the seven :class:`PolymericParts` for
    ``P``) and their sum ``total`` is ``(a*N + b*t + c) / den`` with
    ``N = n**(t-2)``; ``den`` is ``(n-1)**2``, times ``2**E`` in float mode.
    ``level1`` is the polymeric level-1 numerator; None marks a weight past the
    double range. ``tau`` and ``powers`` serve breakdowns."""

    variant: str
    base: Graph
    params: IndexParams
    parts: tuple[tuple[int, int, int], ...] | None
    total: tuple[int, int, int] | None
    level1: int | None
    den: int
    tau: np.ndarray
    powers: dict[int, Number]

    def at(self, t: int, include_breakdown: bool = False) -> IndexReport:
        """The index at level ``t``: one ``n**(t-2)``, a few big-integer products
        and one division; a breakdown evaluates the per-class counters at ``t``."""
        if t < 1:
            raise ValueError("t must be >= 1")
        p, n = self.params, self.base.n
        if t == 1:  # no breakdown
            value = randic_index(self.base, p) if self.variant == "S" else self._ratio(t, self.level1)
            return _report(self.variant, t, p, value, None)
        if self.total is None or not p.exact and self._past_double_range(t):
            raise self._overflow(t)
        lead = n ** (t - 2)
        evaluated = (self.total, *self.parts) if include_breakdown else (self.total,)
        total, *parts = (self._ratio(t, a * lead + b * t + c) for a, b, c in evaluated)
        if not include_breakdown:
            return _report(self.variant, t, p, total, None)
        psi2 = (lead - 1) // (n - 1)  # repunit(n, t-2)
        if self.variant == "S":
            return _report("S", t, p, total, SierpinskiBreakdown(self._edge_weights(lead, psi2, 0)))
        mid_copy = (psi2 - (t - 2)) // (n - 1)  # sum of repunit(n, i-2) over levels i = 2..t-1
        mid, top = self._edge_weights(psi2, mid_copy, 2), self._edge_weights(lead, psi2, 1)
        return _report("P", t, p, total, PolymericBreakdown(PolymericParts(*parts), mid, top))

    def _overflow(self, t: int) -> OverflowError:
        alpha = self.params.alpha
        return OverflowError(f"float {self.variant} index at t={t}, alpha={alpha:g} exceeds the double range")

    def _ratio(self, t: int, num: int | None) -> Number:
        """``num / den``: the exact quotient, or the correctly rounded float."""
        if num is None:
            raise self._overflow(t)
        if self.params.exact:
            return _int_ratio(num, self.den)
        try:
            return num / self.den
        except OverflowError:
            raise self._overflow(t) from None

    def _past_double_range(self, t: int) -> bool:
        """Whether the float total is certainly at least ``2**1024``, from bit
        lengths alone, before ``n**(t-2)`` is computed."""
        a, b, c = self.total
        low = a.bit_length() - 2 + int((t - 2) * math.log2(self.base.n))  # a * n**(t-2) >= 2**low
        rest = max(b.bit_length() + t.bit_length(), c.bit_length()) + 1  # |b*t + c| < 2**rest
        return a > 0 and low > rest and low - 1 - self.den.bit_length() >= 1024

    def _edge_weights(self, lead: int, rep: int, shift: int) -> tuple[EdgeWeight, ...]:
        """Per canonical edge, the four degree-class terms of one copy group at
        ``base degree + shift``, one set of terms per class ``(dx, dy, tau)``."""
        base, pw, add = self.base, self.powers, sum if self.params.exact else math.fsum
        deg, e = base.degrees(), base.edges
        keys = list(zip(deg[e[:, 0]].tolist(), deg[e[:, 1]].tolist(), self.tau.tolist()))
        rows = {}
        for dx, dy, tau in set(keys):
            counters = _counters(base.n, dx, dy, tau, lead, rep)
            a, b = dx + shift, dy + shift
            degrees = ((a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1))
            values = [c * (pw[x] * pw[y]) for c, (x, y) in zip(counters, degrees)]
            rows[dx, dy, tau] = tuple(map(EdgeTerm, counters, degrees, values)), add(values)
        return tuple(EdgeWeight(x, y, *rows[key]) for (x, y), key in zip(base.iter_edges(), keys))


def compile_index(base: Graph, params: IndexParams | float, variant: str) -> LevelForm:
    """Compile ``base`` for variant ``"S"`` or ``"P"`` and one exponent: the
    expansion's edges grouped by lifted degree pair ``(a, b)``, each weighed by
    ``fl(a**alpha * b**alpha)`` (exact integers in exact mode), summed once into
    integer coefficients over ``(n**(t-2), t, 1)``. Nothing is cached."""
    p = as_params(params)
    if variant not in ("S", "P"):
        raise ValueError(f"variant must be 'S' or 'P', got {variant!r}")
    if variant == "P" and not is_connected(base):
        raise ValueError("polymeric index needs a connected base graph")
    n, u, deg = base.n, base.n - 1, base.degrees()
    tau = edge_triangles(base)
    pairs, degrees = _degree_pairs(base, deg, tau), deg[1:].tolist()
    # k ** alpha for the hub degrees (n at the polymeric root, n + 1 below) and
    # each lifted degree of a vertex with edges (0 has no negative power)
    shifts, hubs = ((0, 1), ()) if variant == "S" else ((1, 2, 3), (n, n + 1))
    lifted = {d + s for d in set(degrees) - {0} for s in shifts}.union(hubs)
    pw = {k: k ** (p.int_alpha if p.exact else p.alpha) for k in lifted}
    # fl(pa * pb) * 2**scale is an integer: its last bit is at least
    # 2**(ea + eb - 54) for frexp exponents ea, eb, and never below 2**-1074
    low = min(pw.values()) or min(filter(None, pw.values()), default=1.0)  # the least nonzero power
    scale = 0 if p.exact else min(1074, max(0, 54 - 2 * math.frexp(low)[1]))
    weights = {}

    def w(a: int, b: int, ldexp=math.ldexp) -> int:
        # the weight of degree pair (a, b) times 2**scale; OverflowError when it is inf
        if (prod := weights.get((a, b))) is None:
            prod = pw[a] * pw[b]
            if not p.exact:
                try:
                    prod = int(ldexp(prod, scale))
                except OverflowError:  # prod * 2**scale is past the double range, or prod is
                    num, den = prod.as_integer_ratio()
                    prod = num << (scale + 1 - den.bit_length())
            weights[a, b] = prod
        return prod

    def copies(shift: int) -> tuple[int, int, int]:
        # one copy group of the base edges at base degree + shift: the weight sums
        # multiplying its lead and its repunit in the four counters, and the
        # sum of the unlifted pair weights
        on_lead = on_rep = plain = 0
        for (dx, dy), (size, k) in pairs.items():
            a, b = dx + shift, dy + shift
            w00, w01, w10, w11 = w(a, b), w(a, b + 1), w(a + 1, b), w(a + 1, b + 1)
            on_lead += size * ((n - dx - dy) * w00 + dy * w01 + dx * w10 + w11) + k * (w00 - w01 - w10 + w11)
            on_rep += size * ((dx + dy + 1) * w11 - dx * w01 - dy * w10)
            plain += size * w00
        return on_lead, on_rep, plain

    try:  # OverflowError: a weight past the double range
        if variant == "S":  # n**(t-2) and repunit(n, t-2) are (u*u*N) and (u*N - u) over u**2
            on_lead, on_rep, _ = copies(0)
            parts = ((u * u * on_lead + u * on_rep, 0, -u * on_rep),)
        else:
            parts = _polymeric_parts(n, Counter(degrees), w, copies)
    except OverflowError:
        parts = None
    try:  # the polymeric level 1: a root hub over the base, its degrees lifted by one
        level1 = None if variant == "S" else u * u * (
            sum(w(n, d + 1) for d in degrees) + sum(k * w(dx + 1, dy + 1) for (dx, dy), (k, _) in pairs.items()))
    except OverflowError:
        level1 = None
    total = None if parts is None else parts[0] if len(parts) == 1 else tuple(map(sum, zip(*parts)))
    return LevelForm(variant, base, p, parts, total, level1, u * u << scale, tau, pw)


def _polymeric_parts(n: int, degrees: Counter, w, copies) -> tuple[tuple[int, int, int], ...]:
    """The seven :class:`PolymericParts` as ``(N, t, 1)`` triples over ``(n-1)**2``."""
    u = n - 1
    # numerators over (n-1)**2 of n**(t-2), n**(t-1), 1, repunit(n, t-1),
    # repunit(n, t-2), and the level sums over i = 2..t-1 of repunit(n, i-1)
    # and repunit(n, i-2) and over i = 1..t-1 of repunit(n, i-1)
    lead, top, one, psi1, psi2 = (u * u, 0, 0), (u * u * n, 0, 0), (0, 0, u * u), (u * n, 0, -u), (u, 0, -u)
    mid_hub, mid_copy, links = (n, -u, 2 * u - n), (1, -u, 2 * u - 1), (n, -u, u - 1)
    # hub edges to the base vertices: the root hub's at degree d + 2, the
    # others' at d + 1..3, plain and times d
    root = v1 = v2 = d1 = d2 = d3 = 0
    for d, size in degrees.items():
        w1, w2, w3 = w(n + 1, d + 1), w(n + 1, d + 2), w(n + 1, d + 3)
        root, v1, v2 = root + size * w(n, d + 2), v1 + size * w1, v2 + size * w2
        d1, d2, d3 = d1 + size * d * w1, d2 + size * d * w2, d3 + size * d * w3
    (top_lead, top_rep, _), (mid_lead, mid_rep, first) = copies(1), copies(2)
    return (
        _affine((one, root)),
        _affine((one, first)),
        _affine((psi2, n * v2), (mid_hub, d3 - d2)),
        _affine((psi2, mid_lead), (mid_copy, mid_rep)),
        _affine((psi1, v2), (links, d3 - d2)),
        _affine((top, v1), (psi1, d2 - d1)),
        _affine((lead, top_lead), (psi2, top_rep)),
    )


def sierpinski_randic(
    base: Graph,
    t: int,
    params: IndexParams | float,
    include_breakdown: bool = False,
) -> IndexReport:
    """Degree-product index of the level-``t`` expansion, in closed form.

    ``t = 1`` is the base graph itself and reduces to the direct edge sum;
    for ``t >= 2`` each base edge contributes the four degree-class terms of
    its class ``(dx, dy, tau)``. One :func:`compile_index`, one
    :meth:`LevelForm.at`.
    """
    return compile_index(base, params, "S").at(t, include_breakdown)


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
    value splits into the seven :class:`PolymericParts` edge groups. One
    :func:`compile_index`, one :meth:`LevelForm.at`.
    """
    return compile_index(base, params, "P").at(t, include_breakdown)


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

