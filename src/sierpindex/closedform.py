"""Closed-form evaluation of degree-product indices on graph expansions.

Instead of building the level-``t`` expansion (``n**t`` vertices), the index
is assembled from exact per-edge and per-vertex degree-class counters of the
base graph. Once the base and the variant are fixed, the expansion's edges
with end degrees ``a`` and ``b`` number an affine function of ``n**(t-2)``
(and, for the polymeric expansion, of ``t``): :func:`count_table` holds those
counts, alpha-free, and :meth:`CountTable.weigh` sums them, weighed, once
into integer coefficients over ``(n**(t-2), t, 1)``, so that
:meth:`LevelForm.at` evaluates any level with one power of ``n`` and one
division. :func:`compile_index` is the two in a row.

Exact mode (integer ``alpha >= 1``) returns the integer index. Float mode
returns the correctly rounded value of the exact sum, over the expansion's
edges, of ``fl((a*b)**alpha)`` for end degrees ``a`` and ``b``: each edge
weighs one rounded power, as :func:`.graphs.randic_index` weighs it, and the
sum is rounded once at the end, so every float level equals ``randic_index``
of the built expansion bit for bit. A value past the double range raises
:class:`OverflowError`; a degree class with no edges at a level adds nothing
there, whatever its weight.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .construct import EdgeClassCounts, VertexClassCounts, _int_arg, repunit
from .graphs import (
    Graph,
    IndexParams,
    as_params,
    degree_power_sum,
    edge_triangles,
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
    x, y, t = operator.index(x), operator.index(y), _int_arg(t, 2)
    if x > y:
        x, y = y, x
    tau = triangles_on_edge(base, x, y)  # validates the edge
    deg = base.degrees()
    c = _counters(base.n, int(deg[x]), int(deg[y]), tau, base.n ** (t - 2), repunit(base.n, t - 2))
    return EdgeClassCounts(x, y, *c)


def vertex_class_counts(base: Graph, x: int, t: int) -> VertexClassCounts:
    """Exact copies of base vertex ``x`` in the level-``t`` expansion, split
    by kept degree (``c0``) vs degree + 1 (``c1``)."""
    x, t = operator.index(x), _int_arg(t, 2)
    bumped = base.degree(x) * repunit(base.n, t - 1)
    return VertexClassCounts(x, base.n ** (t - 1) - bumped, bumped)


# -- term breakdowns and reports ----------------------------------------------

@dataclass(frozen=True)
class EdgeTerm:
    """One degree-class contribution: ``count * (dx*dy)**alpha``."""

    count: int
    degrees: tuple[int, int]
    value: Number


@dataclass(frozen=True)
class EdgeClass:
    """``edges`` canonical base edges with end degrees ``degrees`` and
    ``triangles`` triangles: each adds its four ``terms``, ``weight`` in all."""

    degrees: tuple[int, int]
    triangles: int
    edges: int
    terms: tuple[EdgeTerm, ...]
    weight: Number


@dataclass(frozen=True)
class SierpinskiBreakdown:
    """The base edges by class ``(dx, dy, tau)``, sorted, and the class of
    each canonical edge of the base."""

    classes: tuple[EdgeClass, ...]
    edge_class: tuple[int, ...]

    @property
    def edge_weights(self) -> tuple[EdgeClass, ...]:
        """Per canonical edge, its class, whose ``terms`` and ``weight`` are the
        edge's. Kept for the benchmark's breakdown check, which counts its rows."""
        return tuple(map(self.classes.__getitem__, self.edge_class))


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
        try:
            return math.fsum(self)
        except OverflowError:
            raise OverflowError("float P parts total exceeds the double range") from None

    def as_dict(self) -> dict[str, Number]:
        return self._asdict()


@dataclass(frozen=True)
class PolymericBreakdown:
    """Seven-part split plus the two expansion groups by class, one edge index."""

    parts: PolymericParts
    copies_mid: tuple[EdgeClass, ...]
    copies_top: tuple[EdgeClass, ...]
    edge_class: tuple[int, ...]


@dataclass(frozen=True)
class IndexReport:
    """A closed-form index value with an optional term breakdown (none at ``t = 1``).

    ``value`` is the float result (None when an exact integer result exceeds
    the double range); ``exact`` is set in exact mode only.
    """

    variant: str  # "S" (plain expansion) or "P" (polymeric)
    t: int
    alpha: float
    value: float | None
    exact: int | None
    breakdown: SierpinskiBreakdown | PolymericBreakdown | None

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


def _breakdown_json(breakdown) -> dict:
    def table(classes: tuple[EdgeClass, ...]) -> list[dict]:
        return [{"degrees": list(c.degrees), "triangles": c.triangles, "edges": c.edges,
                 "terms": [{"count": str(u.count), "degrees": list(u.degrees), "value": _num_json(u.value)}
                           for u in c.terms],
                 "weight": _num_json(c.weight)} for c in classes]

    if isinstance(breakdown, SierpinskiBreakdown):
        return {"classes": table(breakdown.classes), "edge_class": list(breakdown.edge_class)}
    return {
        "parts": {k: _num_json(v) for k, v in breakdown.parts.as_dict().items()},
        "copies_mid": table(breakdown.copies_mid),
        "copies_top": table(breakdown.copies_top),
        "edge_class": list(breakdown.edge_class),
    }


def _float_or_none(value: Number) -> float | None:
    """``float(value)``, or None when an exact integer exceeds the double range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _report(variant: str, t: int, p: IndexParams, total: Number, breakdown) -> IndexReport:
    exact = total if p.exact else None
    return IndexReport(variant, t, p.alpha, _float_or_none(total), exact, breakdown)


# -- the count table and its weigher --------------------------------------------

Triple = tuple[int, int, int]
#: (basis, column) groups: a numerator triple over ``(n**(t-2), t, 1)`` and
#: ``(n-1)**2``, and the name of a column of coefficients per lifted pair
Part = tuple[tuple[Triple, str], ...]


def _degree_pairs(base: Graph, deg: np.ndarray, tau: np.ndarray) -> tuple[dict, dict]:
    """The edges, and the triangles on them, per sorted end-degree pair ``(dx, dy)``,
    counted by ``(dx, dy, tau)`` in C; every counter is linear in ``tau``. Refuses ``tau``
    outside ``[max(0, dx + dy - n), min(dx, dy) - 1]``, the range where all
    four counters are nonnegative at every level ``t >= 2``."""
    n, sizes, taus = base.n, {}, {}
    for (dx, dy, k), size in Counter(zip(*deg[base.edges.T].tolist(), tau.tolist())).items():
        if k < 0 or k < dx + dy - n or k >= dx or k >= dy:
            raise ArithmeticError(f"{k} triangles on an edge with end degrees {dx} and {dy} of a base on {n} vertices")
        pair = (dx, dy) if dx <= dy else (dy, dx)
        sizes[pair], taus[pair] = sizes.get(pair, 0) + size, taus.get(pair, 0) + size * k
    return sizes, taus


def _copies(n: int, sizes: dict, taus: dict, shift: int) -> tuple[dict, dict]:
    """One copy group of the base edges at base degree + ``shift``: the
    :func:`_counters` coefficients of their lead and of their repunit, summed
    per lifted pair."""
    lead, rep = {}, {}
    at_lead, at_rep = lead.get, rep.get
    for ((dx, dy), size), k in zip(sizes.items(), taus.values()):  # both in the order of the pairs
        a, b = dx + shift, dy + shift
        ab, up, right, both = (a, b), (a, b + 1), (a + 1, b) if a < b else (a, a + 1), (a + 1, b + 1)
        lead[ab] = at_lead(ab, 0) + size * (n - dx - dy) + k
        lead[up] = at_lead(up, 0) + size * dy - k
        lead[right] = at_lead(right, 0) + size * dx - k
        lead[both] = at_lead(both, 0) + size + k
        rep[up] = at_rep(up, 0) - size * dx
        rep[right] = at_rep(right, 0) - size * dy
        rep[both] = at_rep(both, 0) + size * (dx + dy + 1)
    return lead, rep


def _lift(col: dict) -> dict:  # the same edges with both end degrees one higher
    return {(a + 1, b + 1): k for (a, b), k in col.items()}


def _weights(p: IndexParams, products: set[int]) -> tuple[int, dict[int, int]]:
    """The one weigher: per degree product ``k``, ``fl(k**alpha) * 2**E`` as an
    exact integer, one rounded power per product as the oracle weighs an edge
    (the exact power in exact mode, with ``E = 0``); returns ``E`` and them.
    A power past the double range weighs ``2**(E + 1024)``: every count is a
    nonnegative integer and every other weight nonnegative, so one edge of that
    pair puts a level's quotient past the double range, and a pair with no
    edges adds nothing."""
    alpha, weights, E = p.int_alpha if p.exact else p.alpha, {}, 0
    for k in products:
        try:
            weights[k] = k ** alpha
        except OverflowError:
            weights[k] = math.inf
    if not p.exact:
        # w * 2**E is an integer for every power w: its last bit is at least 2**(e - 53)
        # for frexp exponent e, and never below 2**-1074
        low = min(weights.values()) or min(filter(None, weights.values()), default=1.0)  # the least nonzero power
        E = min(1074, max(0, 53 - math.frexp(low)[1]))
        for k, w in weights.items():
            try:
                weights[k] = int(math.ldexp(w, E))
            except OverflowError:  # w * 2**E is past the double range, or w is
                num, den = w.as_integer_ratio() if w < math.inf else (1 << 1024, 1)  # den is a power of two
                weights[k] = num << (E + 1 - den.bit_length())
    return E, weights


def _fold(parts: tuple[Part, ...], columns: dict[str, dict], weights: dict) -> list[Triple]:
    """Each part summed into one triple, every coefficient times the weight of
    its pair's degree product; plain loops, as a column holds a few pairs."""
    sums = {}
    for name, col in columns.items():
        s = 0
        for (a, b), c in col.items():
            s += c * weights[a * b]
        sums[name] = s
    folded = []
    for part in parts:
        a = b = c = 0
        for (x, y, z), name in part:
            s = sums[name]
            a, b, c = a + x * s, b + y * s, c + z * s
        folded.append((a, b, c))
    return folded


def _overflow(what: str, t: int, alpha: float) -> OverflowError:
    return OverflowError(f"float {what} index at t={t}, alpha={alpha:g} exceeds the double range")


def _ratio(num: int, den: int, p: IndexParams, what: str, t: int) -> Number:
    """``num / den``: the exact quotient, or the correctly rounded float; past
    the double range it raises, naming ``what``, ``t`` and alpha."""
    if p.exact:
        return _int_ratio(num, den)
    try:
        return num / den
    except OverflowError:
        raise _overflow(what, t, p.alpha) from None


def _weigh_terms(what: str, t: int, alpha: float, *tables) -> Number | PolymericParts:
    """Each table of ``(count, a, b)`` terms summed as ``count * fl((a*b)**alpha)``,
    correctly rounded (the exact integer in exact mode), all over one weigher:
    one table gives its value, seven give the :class:`PolymericParts`. Past the
    double range it raises, naming ``what`` (and the part), ``t`` and alpha."""
    p = as_params(alpha)
    E, weights = _weights(p, {a * b for table in tables for _, a, b in table})
    names = [what] if len(tables) == 1 else [f"{what} {field}" for field in PolymericParts._fields]
    values = [_ratio(sum(c * weights[a * b] for c, a, b in table), 1 << E, p, name, t)
              for name, table in zip(names, tables)]
    return values[0] if len(tables) == 1 else PolymericParts(*values)


@dataclass(eq=False)
class CountTable:
    """One base's expansion edges by unordered lifted degree pair, alpha-free.
    ``columns`` hold integer coefficients per pair; per part (one for ``S``,
    the seven :class:`PolymericParts` for ``P``) a pair has
    ``sum(columns[name][pair] * (x*N + y*t + z)) / (n-1)**2`` edges at level
    ``t >= 2`` over the part's groups ``((x, y, z), name)``, ``N = n**(t-2)``.
    ``level1`` is the level-1 part: the base itself for ``S``, a hub over the
    base for ``P``. Hold one to weigh several exponents."""

    variant: str
    base: Graph
    tau: np.ndarray
    columns: dict[str, dict[tuple[int, int], int]]
    parts: tuple[Part, ...]
    level1: Part

    def weigh(self, params: IndexParams | float) -> LevelForm:
        """The :class:`LevelForm` of one exponent: the weights summed once into
        ``(N, t, 1)`` coefficients, a weight past the double range as
        ``2**(E + 1024)``, so that pair makes a level refuse where it has edges
        and nowhere else."""
        p, u = as_params(params), self.base.n - 1
        E, weights = _weights(p, {a * b for col in self.columns.values() for a, b in col})
        *folded, level1 = _fold((*self.parts, self.level1), self.columns, weights)
        total = folded[0] if len(folded) == 1 else tuple(map(sum, zip(*folded)))
        return LevelForm(self.variant, self.base, p, tuple(folded), total, level1[2], u * u << E, self.tau, weights)


def count_table(base: Graph, variant: str) -> CountTable:
    """The alpha-free step of :func:`compile_index` for variant ``"S"`` or
    ``"P"``, of any base: degrees and range-checked edge triangles, once. Per
    edge only the triangle kernel and one C-level count by class run; what
    follows loops over degree pairs and degrees. Nothing is cached."""
    if variant not in ("S", "P"):
        raise ValueError(f"variant must be 'S' or 'P', got {variant!r}")
    n, u, deg, tau = base.n, base.n - 1, base.degrees(), edge_triangles(base)
    edges0, taus = _degree_pairs(base, deg, tau)
    # numerators over (n-1)**2 of 1, n**(t-2) and repunit(n, t-2)
    one, lead, psi2 = (0, 0, u * u), (u * u, 0, 0), (u, 0, -u)
    if variant == "S":
        lead0, rep0 = _copies(n, edges0, taus, 0)
        return CountTable("S", base, tau, {"lead": lead0, "rep": rep0, "edges0": edges0},
                          (((lead, "lead"), (psi2, "rep")),), ((one, "edges0"),))
    # numerators of n**(t-1), repunit(n, t-1), and the level sums over i = 2..t-1
    # of repunit(n, i-1) and repunit(n, i-2) and over i = 1..t-1 of repunit(n, i-1)
    top, psi1 = (u * u * n, 0, 0), (u * n, 0, -u)
    mid_hub, mid_copy, links = (n, -u, 2 * u - n), (1, -u, 2 * u - 1), (n, -u, u - 1)
    # the hub edges to the base vertices: the root hub's (degree n) at base
    # degree + 1 (level 1) and + 2, the other hubs' (degree n + 1) at + 1 and
    # + 2, and, times the base degree, those at + 3 less those at + 2 (rise)
    # and those at + 2 less those at + 1 (drop); as the degrees ascend, the
    # pair at + 3 is new to rise and the pair at + 2 to drop
    hub, root1, root2, hub1, hub2, rise, drop = n + 1, {}, {}, {}, {}, {}, {}
    for d, size in enumerate(np.bincount(deg[1:]).tolist()):  # the base's vertices by degree
        if size:
            lo, mid, hi = (d + 1, hub), (d + 2, hub), (d + 3, hub) if d + 3 <= hub else (hub, d + 3)
            root1[d + 1, n], root2[(d + 2, n) if d + 2 <= n else (n, hub)], hub1[lo], hub2[mid] = size, size, size, size
            weighted = size * d  # times the base degree
            rise[hi], rise[mid] = weighted, rise.get(mid, 0) - weighted
            drop[mid], drop[lo] = weighted, drop.get(lo, 0) - weighted
    (lead1, rep1), edges1 = _copies(n, edges0, taus, 1), _lift(edges0)
    columns = {"root1": root1, "root2": root2, "hub1": hub1, "hub2": hub2, "rise": rise, "drop": drop,
               "lead1": lead1, "rep1": rep1, "lead2": _lift(lead1), "rep2": _lift(rep1), "edges1": edges1,
               "edges2": _lift(edges1)}
    parts = (
        ((one, "root2"),),
        ((one, "edges2"),),
        (((u * n, 0, -u * n), "hub2"), (mid_hub, "rise")),
        ((psi2, "lead2"), (mid_copy, "rep2")),
        ((psi1, "hub2"), (links, "rise")),
        ((top, "hub1"), (psi1, "drop")),
        ((lead, "lead1"), (psi2, "rep1")),
    )
    return CountTable("P", base, tau, columns, parts, ((one, "root1"), (one, "edges1")))


# -- the compiled level form ----------------------------------------------------

@dataclass(eq=False)
class LevelForm:
    """One base compiled for one variant and :class:`IndexParams`. At ``t >= 2``
    each of ``parts`` (one for ``S``, the seven :class:`PolymericParts` for
    ``P``) and their sum ``total`` is ``(a*N + b*t + c) / den`` with
    ``N = n**(t-2)``; ``den`` is ``(n-1)**2``, times ``2**E`` in float mode.
    A weight past the double range is ``2**(E + 1024)`` in every numerator,
    so a level where its pair has edges raises in that one division.
    ``level1`` is the level-1 numerator over ``den``, of either variant.
    ``tau`` and ``weights`` (per degree product, over ``2**E``) serve breakdowns."""

    variant: str
    base: Graph
    params: IndexParams
    parts: tuple[Triple, ...]
    total: Triple
    level1: int
    den: int
    tau: np.ndarray
    weights: dict[int, int]

    def at(self, t: int, include_breakdown: bool = False) -> IndexReport:
        """The index at level ``t``: one ``n**(t-2)``, a few big-integer products
        and one division; a breakdown evaluates the per-class counters at ``t``."""
        t, p, n = _int_arg(t, 1), self.params, self.base.n
        if t == 1:  # no breakdown
            return _report(self.variant, t, p, _ratio(self.level1, self.den, p, self.variant, t), None)
        if not p.exact and self._past_double_range(t):
            raise _overflow(self.variant, t, p.alpha)
        lead, (a, b, c) = n ** (t - 2), self.total
        total = _ratio(a * lead + b * t + c, self.den, p, self.variant, t)
        if not include_breakdown:
            return _report(self.variant, t, p, total, None)
        parts = [_ratio(a * lead + b * t + c, self.den, p, self.variant, t) for a, b, c in self.parts]
        psi2 = (lead - 1) // (n - 1)  # repunit(n, t-2)
        # the edges by sorted class (dx, dy, tau), as int64 keys below n**2 and m**2
        deg, e, d, k = self.base.degrees(), self.base.edges, self.base.n, int(self.tau.max()) + 1
        pairs, pair = np.unique(deg[e[:, 0]] * d + deg[e[:, 1]], return_inverse=True)
        keys, index, sizes = np.unique(pair * k + self.tau, return_inverse=True, return_counts=True)
        pairs, edge_class = pairs.tolist(), tuple(index.tolist())
        classes = [(*divmod(pairs[i // k], d), i % k, size) for i, size in zip(keys.tolist(), sizes.tolist())]
        if self.variant == "S":
            return _report("S", t, p, total, SierpinskiBreakdown(
                self._class_terms(t, classes, lead, psi2, 0), edge_class))
        mid_copy = (psi2 - (t - 2)) // (n - 1)  # sum of repunit(n, i-2) over levels i = 2..t-1
        mid, top = self._class_terms(t, classes, psi2, mid_copy, 2), self._class_terms(t, classes, lead, psi2, 1)
        return _report("P", t, p, total, PolymericBreakdown(PolymericParts(*parts), mid, top, edge_class))

    def _past_double_range(self, t: int) -> bool:
        """Whether the float total is certainly at least ``2**1024``, from bit
        lengths alone, before ``n**(t-2)`` is computed."""
        a, b, c = self.total
        low = a.bit_length() - 2 + int((t - 2) * math.log2(self.base.n))  # a * n**(t-2) >= 2**low
        return (a > 0 and low - 1 - self.den.bit_length() >= 1024  # and |b*t + c| below 2**(low - 1):
                and low > max(b.bit_length() + t.bit_length(), c.bit_length()) + 1)

    def _class_terms(self, t: int, classes: list, lead: int, rep: int, shift: int) -> tuple[EdgeClass, ...]:
        """Per class, the four terms of one copy group at ``base degree + shift`` and
        their sum, the class weight: each its exact numerator over ``2**E``, divided once by :func:`_ratio`."""
        n, w, p, rows = self.base.n, self.weights, self.params, []
        unit = self.den // (n - 1) ** 2  # 2**E
        for dx, dy, tau, size in classes:
            counters = _counters(n, dx, dy, tau, lead, rep)
            a, b = dx + shift, dy + shift
            degrees = ((a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1))
            nums = [c * w[x * y] for c, (x, y) in zip(counters, degrees)]
            *values, weight = (_ratio(v, unit, p, self.variant, t) for v in (*nums, sum(nums)))
            rows.append(EdgeClass((dx, dy), tau, size, tuple(map(EdgeTerm, counters, degrees, values)), weight))
        return tuple(rows)


def compile_index(base: Graph, params: IndexParams | float, variant: str) -> LevelForm:
    """Compile ``base`` for variant ``"S"`` or ``"P"`` and one exponent: the
    :func:`count_table` weighed once. Nothing is cached."""
    p = as_params(params)
    return count_table(base, variant).weigh(p)


def sierpinski_randic(
    base: Graph,
    t: int,
    params: IndexParams | float,
    include_breakdown: bool = False,
) -> IndexReport:
    """Degree-product index of the level-``t`` expansion, in closed form.

    ``t = 1`` is the base graph itself and reduces to the direct edge sum (no
    breakdown); for ``t >= 2`` each base edge contributes the four degree-class
    terms of its class ``(dx, dy, tau)``. One :func:`compile_index`, one
    :meth:`LevelForm.at`.
    """
    t = _int_arg(t, 1)  # refuse a level before the compile
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
    t = _int_arg(t, 1)  # refuse a level before the compile
    return compile_index(base, params, "P").at(t, include_breakdown)


# -- bounds for triangle-free bases --------------------------------------------

def sierpinski_randic_bounds(base: Graph, t: int, alpha: float) -> tuple[float, float]:
    """Sandwich ``lower <= index(expansion) <= upper`` for triangle-free bases.

    Built by replacing each degree increment ``(d+1)**alpha - d**alpha`` with
    its extreme over the degree range and each degree-class counter with its
    extreme; on exact inputs both bounds equal the exact index precisely when the
    base is regular. Evaluated exactly on rounded float inputs, a bound can miss
    that index, and the float value, by their rounding. Requires minimum degree >= 1
    and a degree spread small enough that the substituted factors stay nonnegative
    (checked). A bound past the double range raises :class:`OverflowError`.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    t = _int_arg(t, 2)
    if triangle_count(base) != 0:
        raise ValueError("bounds require a triangle-free base graph")
    degs = base.degrees().tolist()[1:]
    dmin, dmax = min(degs), max(degs)
    if dmin < 1:
        raise ValueError("bounds require no isolated vertices")

    n, m_edges = base.n, base.m  # m = M1 / 2
    lead, rep = n ** (t - 2), repunit(n, t - 2)

    def envelope(d_in: int, d_out: int, e: Fraction) -> float:
        return float(
            lead * (n - 2 * d_out) * r_base
            + (lead * d_in - d_out * rep) * (2 * r_base + e * m_next)
            + (lead + (2 * d_in + 1) * rep) * (r_base + e * m_next + m_edges * e * e)
        )

    try:  # exact on the float inputs, each bound rounded once; OverflowError: past a float
        r_base, m_next = Fraction(randic_index(base, alpha)), Fraction(degree_power_sum(base, alpha + 1))
        at_min, at_max, past_min, past_max = (Fraction(d ** alpha) for d in (dmin, dmax, dmin + 1, dmax + 1))
        # Envelope of the per-vertex increment h(d) = (d+1)**a - d**a over
        # d in [dmin, dmax]; the two cross terms swap roles when alpha < 0.
        cross = (past_min - at_max, past_max - at_min)
        e_lo, e_hi = min(cross), max(cross)
        if min(at_min, at_max) + e_lo < 0:
            raise ValueError("degree spread too large for a valid envelope at this alpha")
        return envelope(dmin, dmax, e_lo), envelope(dmax, dmin, e_hi)
    except OverflowError:
        raise OverflowError(f"float S bounds at t={t}, alpha={alpha:g} exceed the double range") from None
