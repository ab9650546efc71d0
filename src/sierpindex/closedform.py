"""Closed-form evaluation of degree-product indices on graph expansions.

Instead of building the level-``t`` expansion (``n**t`` vertices), the index is
assembled from the base's profile: ``n``, its vertices per degree, and per
sorted end-degree pair its edges and their triangle sum. ``R_alpha`` of both
expansions depends on the base only through its profile, the paper's theorem in
this form. Once the base and the variant are fixed, the expansion's edges with
end degrees ``a`` and ``b`` number an affine function of ``n**(t-2)`` (and, for
the polymeric expansion, of ``t``): :func:`count_table` holds those counts,
alpha-free, and :meth:`CountTable.weigh` sums them, weighed, once into integer
coefficients over ``(n**(t-2), t, 1)`` and ``(n-1)**2 * D``, the weigher's ``D``
a common denominator. :func:`compile_index` is the two in a row. One reader,
:func:`_read`, reads a level of a :class:`LevelForm`, a family formula or the
bounds: one power of ``n``, which a breakdown reuses, and one division per part.

Exact mode (integer ``alpha >= 1``) returns the integer index. Float mode
returns the correctly rounded value of the exact sum, over the expansion's
edges, of ``fl((a*b)**alpha)`` for end degrees ``a`` and ``b``: each edge
weighs one rounded power, as :func:`.graphs.randic_index` weighs it, and the
sum is rounded once at the end, so every float level equals ``randic_index``
of the built expansion bit for bit. A value past the double range raises
:class:`OverflowError`, before the power where bit lengths show it; a degree
class with no edges at a level adds nothing there, whatever its weight.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Union

import numpy as np

from .construct import EdgeClassCounts, VertexClassCounts, _int_arg, repunit
from .graphs import (
    Graph,
    IndexParams,
    _overflow,
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


#: Edge count up to which :func:`_profile` counts in one ``Counter``: its
#: measured crossover with the numpy sort on the sparsest bases (a dense base
#: crosses sooner)
_COUNTER_EDGES = 256

#: Degree-pair count above which :func:`_profile`, past ``_COUNTER_EDGES``, keeps
#: its pairs as arrays for :func:`_copies_array` to sum the copy group in numpy,
#: rather than as a dict for the loop of :func:`_copies`: their measured crossover
_COPY_ARRAY_PAIRS = 48


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order that sorts ``keys``, the sorted keys, and the start of each run of
    equal keys; the sort is not stable, as no caller reads the order within a run."""
    order = keys.argsort()
    keys = keys[order]
    return order, keys, np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


#: What :func:`count_table` reads of a base (see :func:`_profile`): ``n``, its
#: vertices per degree, and per sorted end-degree pair ``(lo, hi)`` its edges and
#: triangle sum, or those as four int64 arrays ``lo, hi, edges, sums`` to hand on
_Profile = tuple[int, dict[int, int], Union[dict[tuple[int, int], tuple[int, int]], tuple[np.ndarray, ...]]]


def _profile(base: Graph, tau: np.ndarray, variant: str) -> _Profile:
    """The per-edge step of :func:`count_table`: the degrees (for ``"P"`` only, as
    the ``S`` table reads none), and the edges, with their triangles ``tau``,
    grouped by sorted end-degree pair. Up to ``_COUNTER_EDGES`` edges (256) the
    edges are counted by ``(dx, dy, tau)`` in one C-level ``Counter``. Above, they
    are grouped by pair in one numpy sort, the sizes and triangle sums taken per
    run of equal pairs, and kept as arrays when there are more than
    ``_COPY_ARRAY_PAIRS`` pairs (48), as a dict otherwise (a regular or bipartite
    semiregular base has one pair). The int64 sums are exact: a triangle sum is
    below ``m*n``. Refuses ``tau`` outside
    ``[max(0, dx + dy - n), min(dx, dy) - 1]``, the range where all four counters
    are nonnegative at every level ``t >= 2``, naming the first such edge in
    canonical order: above the switch the range is checked in one array pass, and
    a base that fails it is counted by the ``Counter``, which refuses."""
    n, m, deg = base.n, base.m, base.degrees()
    degrees = {d: size for d, size in enumerate(np.bincount(deg[1:]).tolist()) if size} if variant == "P" else {}
    ends = deg[base.edges.T]
    if m > _COUNTER_EDGES:
        dx, dy = ends
        if not ((tau < 0) | (tau < dx + dy - n) | (tau >= dx) | (tau >= dy)).any():
            order, key, start = _runs(np.minimum(dx, dy) * n + np.maximum(dx, dy))  # degrees are below n
            lo, hi = divmod(key[start], n)
            size, taus = np.diff(start, append=m), np.add.reduceat(tau[order], start)
            if len(start) > _COPY_ARRAY_PAIRS:
                return n, degrees, (lo, hi, size, taus)
            return n, degrees, dict(zip(zip(lo.tolist(), hi.tolist()), zip(size.tolist(), taus.tolist())))
    pairs = {}
    for (dx, dy, k), size in Counter(zip(*ends.tolist(), tau.tolist())).items():
        if k < 0 or k < dx + dy - n or k >= dx or k >= dy:
            raise ArithmeticError(f"{k} triangles on an edge with end degrees {dx} and {dy} of a base on {n} vertices")
        pair = (dx, dy) if dx <= dy else (dy, dx)
        edges, sums = pairs.get(pair, (0, 0))
        pairs[pair] = edges + size, sums + size * k
    return n, degrees, pairs


def _copies(n: int, pairs: dict, shift: int) -> tuple[dict, dict, dict]:
    """The edges per pair of ``pairs`` (pair: edges and triangle sum), and one
    copy group of them at base degree + ``shift``: the :func:`_counters`
    coefficients of their lead and of their repunit, summed per lifted pair.
    A Python loop over the pairs, the faster up to ``_COPY_ARRAY_PAIRS`` pairs."""
    edges, lead, rep = {}, {}, {}
    at_lead, at_rep = lead.get, rep.get
    for (dx, dy), (size, k) in pairs.items():
        edges[dx, dy] = size
        a, b = dx + shift, dy + shift
        ab, up, right, both = (a, b), (a, b + 1), (a + 1, b) if a < b else (a, a + 1), (a + 1, b + 1)
        lead[ab] = at_lead(ab, 0) + size * (n - dx - dy) + k
        lead[up] = at_lead(up, 0) + size * dy - k
        lead[right] = at_lead(right, 0) + size * dx - k
        lead[both] = at_lead(both, 0) + size + k
        rep[up] = at_rep(up, 0) - size * dx
        rep[right] = at_rep(right, 0) - size * dy
        rep[both] = at_rep(both, 0) + size * (dx + dy + 1)
    return edges, lead, rep


#: Per key of a copy group, ``(a, b)``, up, right and both, its lead and then its
#: repunit coefficient in :func:`_copies`, over ``(size*n, size*dx, size*dy, size, tau)``
_COPY_COEFFICIENTS = np.array([[1, -1, -1, 0, 1], [0, 0, 1, 0, -1], [0, 1, 0, 0, -1], [0, 0, 0, 1, 1],
                               [0, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 1, 1, 1, 0]])


def _copies_array(n: int, arrays: tuple[np.ndarray, ...], shift: int) -> tuple[dict, dict, dict]:
    """:func:`_copies` of pairs ``(lo, hi)`` held as int64 ``arrays``, with their
    sizes and triangle sums: every pair's four lifted keys packed into one array,
    sorted once, and both columns summed per run of equal keys. A key is in the
    repunit column when an up, right or both key of some pair is it, as in the
    loop. The same three dicts of Python ints, the two columns in key order. The
    int64 sums are exact: every coefficient is at most ``2*m*n`` in absolute value."""
    (lo, hi, size, taus), w = arrays, n + 2  # lifted end degrees are at most n + 1
    keys = (lo + shift) * w + hi + shift + np.array([[0], [1], [w], [w + 1]])
    keys[2] -= (lo == hi) * (w - 1)  # right is (a, a + 1) where a == b
    coef = (_COPY_COEFFICIENTS @ np.stack((size * n, size * lo, size * hi, size, taus))).reshape(2, -1)
    order, keys, start = _runs(keys.ravel())
    lead, rep = np.add.reduceat(coef[:, order], start, axis=1).tolist()
    pairs = list(zip(*(x.tolist() for x in divmod(keys[start], w))))
    in_rep = (np.maximum.reduceat(order, start) >= len(lo)).tolist()  # a run holding an up, right or both key
    edges = dict(zip(zip(lo.tolist(), hi.tolist()), size.tolist()))
    return edges, dict(zip(pairs, lead)), dict(compress(zip(pairs, rep), in_rep))


def _lift(col: dict) -> dict:  # the same edges with both end degrees one higher
    return {(a + 1, b + 1): k for (a, b), k in col.items()}


def _weigh(p: IndexParams, parts: tuple[Part, ...], columns: dict[str, dict]) -> tuple[int, dict, list[Triple]]:
    """The one weigher. Per degree product ``k`` of ``columns``, ``fl(k**alpha) * D``
    as an exact integer, one rounded power per product as the oracle weighs an edge
    (the exact power in exact mode); then each part summed into one triple, every
    coefficient times the weight of its pair's product, in plain loops, as a column
    holds a few pairs. Returns the common denominator ``D`` (``2**E`` in float
    mode, ``1`` in exact mode), the weights and the triples. A power past the
    double range weighs ``2**1024 * D``: every count is a nonnegative integer and
    every other weight nonnegative, so one edge of that pair puts a level's
    quotient past the double range, and a pair with no edges adds nothing."""
    alpha, weights, E = p.int_alpha if p.exact else p.alpha, {}, 0
    for k in {a * b for col in columns.values() for a, b in col}:
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
    return 1 << E, weights, folded


def _ratio(num: int, den: int, p: IndexParams, what: str, t: int) -> Number:
    """``num / den``, exact or correctly rounded; past the double range it raises, naming ``what``, ``t`` and alpha."""
    if p.exact:
        return _int_ratio(num, den)
    try:
        return num / den
    except OverflowError:
        raise _overflow(what, p.alpha, t) from None


def _read(nums: Iterable[Triple], n: int, t: int, den: int, p: IndexParams, names: Iterable[str], power: bool = False):
    """The one level reader: ``(a*n**(t-2) + b*t + c) / den`` per numerator by :func:`_ratio`, a float past range
    refused from bit lengths before the one power, which is formed at the first ``a != 0`` or for ``power`` (else 0)."""
    values, lead = [], 0
    for (a, b, c), what in zip(nums, names):
        if a and not p.exact:
            low = a.bit_length() - 1 + (t - 2) * (n.bit_length() - 1)  # |a * n**(t-2)| >= 2**low
            if low - 1 - den.bit_length() >= 1024 and low > max(b.bit_length() + t.bit_length(), c.bit_length()) + 1:
                raise _overflow(what, p.alpha, t)  # |b*t + c| < 2**(low-1), so |num/den| >= 2**1024
        lead = lead or a and n ** (t - 2)  # formed at the first a != 0
        values.append(_ratio(a * lead + b * t + c, den, p, what, t))
    return values, lead or (n ** (t - 2) if power else 0)  # a breakdown's power: every a is 0 where every weight is


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
        """The :class:`LevelForm` of one exponent: every column weighed by
        :func:`_weigh` and summed once into ``(N, t, 1)`` coefficients over
        ``(n-1)**2 * D``, so a pair whose power is past the double range makes a
        level refuse where it has edges and nowhere else."""
        p, u = as_params(params), self.base.n - 1
        D, weights, (*folded, level1) = _weigh(p, (*self.parts, self.level1), self.columns)
        total = folded[0] if len(folded) == 1 else tuple(map(sum, zip(*folded)))
        return LevelForm(self.variant, self.base, p, tuple(folded), total, level1[2], u * u * D, self.tau, weights)


def count_table(base: Graph, variant: str) -> CountTable:
    """The alpha-free step of :func:`compile_index` for variant ``"S"`` or
    ``"P"``, of any base: its triangles per edge (:func:`.graphs.edge_triangles`),
    its :func:`_profile`, and the arithmetic of :func:`_table`, which reads the
    base only through that profile. Nothing is cached."""
    if variant not in ("S", "P"):
        raise ValueError(f"variant must be 'S' or 'P', got {variant!r}")
    tau = edge_triangles(base)
    return CountTable(variant, base, tau, *_table(_profile(base, tau, variant), variant))


def _table(profile: _Profile, variant: str) -> tuple[dict[str, dict], tuple[Part, ...], Part]:
    """The arithmetic step of :func:`count_table`: the ``columns``, ``parts`` and
    ``level1`` of a base with this profile. It loops over the degree pairs and
    degrees present, so a family formula's profile, a line of its parameters,
    costs the same at any ``n``."""
    n, degrees, pairs = profile
    shift, u = (0 if variant == "S" else 1), n - 1
    edges0, leads, reps = (_copies if isinstance(pairs, dict) else _copies_array)(n, pairs, shift)
    # numerators over (n-1)**2 of 1, n**(t-2) and repunit(n, t-2)
    one, lead, psi2 = (0, 0, u * u), (u * u, 0, 0), (u, 0, -u)
    if variant == "S":
        return {"lead": leads, "rep": reps, "edges0": edges0}, (((lead, "lead"), (psi2, "rep")),), ((one, "edges0"),)
    # numerators of n**(t-1), repunit(n, t-1), and the level sums over i = 2..t-1
    # of repunit(n, i-1) and repunit(n, i-2) and over i = 1..t-1 of repunit(n, i-1)
    top, psi1 = (u * u * n, 0, 0), (u * n, 0, -u)
    mid_hub, mid_copy, links = (n, -u, 2 * u - n), (1, -u, 2 * u - 1), (n, -u, u - 1)
    # the hub edges to the base vertices: the root hub's (degree n) at base
    # degree + 1 (level 1) and + 2, the other hubs' (degree n + 1) at + 1 and
    # + 2, and, times the base degree, those at + 3 less those at + 2 (rise)
    # and those at + 2 less those at + 1 (drop)
    hub, root1, root2, hub1, hub2, rise, drop = n + 1, {}, {}, {}, {}, {}, {}
    for d, size in degrees.items():
        lo, mid, hi = (d + 1, hub), (d + 2, hub), (d + 3, hub) if d + 3 <= hub else (hub, d + 3)
        root1[d + 1, n], root2[(d + 2, n) if d + 2 <= n else (n, hub)], hub1[lo], hub2[mid] = size, size, size, size
        weighted = size * d  # times the base degree
        rise[hi], rise[mid] = rise.get(hi, 0) + weighted, rise.get(mid, 0) - weighted
        drop[mid], drop[lo] = drop.get(mid, 0) + weighted, drop.get(lo, 0) - weighted
    edges1 = _lift(edges0)
    columns = {"root1": root1, "root2": root2, "hub1": hub1, "hub2": hub2, "rise": rise, "drop": drop,
               "lead1": leads, "rep1": reps, "lead2": _lift(leads), "rep2": _lift(reps), "edges1": edges1,
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
    return columns, parts, ((one, "root1"), (one, "edges1"))


def _index(what: str, t: int, alpha: IndexParams | float, variant: str, profile: _Profile) -> Number | PolymericParts:
    """A family formula's index at level ``t`` of this profile, named ``what`` past the double range: weighed
    over only the nonzero entries of the columns this level reads, so no pair without edges is powered."""
    p, n = as_params(alpha), profile[0]
    columns, parts, level1 = _table(profile, variant)
    parts = parts if t > 1 else (level1,)
    columns = {name: {pair: c for pair, c in columns[name].items() if c} for part in parts for _, name in part}
    D, _, folded = _weigh(p, parts, columns)
    names = [what] if len(folded) == 1 else [f"{what} {field}" for field in PolymericParts._fields]
    values, _ = _read(folded, n, t, (n - 1) ** 2 * D, p, names)
    return values[0] if len(values) == 1 else PolymericParts(*values)


# -- the compiled level form ----------------------------------------------------

@dataclass(eq=False)
class LevelForm:
    """One base compiled for one variant and :class:`IndexParams`. At ``t >= 2``
    each of ``parts`` (one for ``S``, the seven :class:`PolymericParts` for
    ``P``) and their sum ``total`` is ``(a*N + b*t + c) / den`` with
    ``N = n**(t-2)``; ``den`` is ``(n-1)**2 * D``, ``D`` the :func:`_weigh`
    denominator. A weight past the double range is ``2**1024 * D`` in every
    numerator, so a level where its pair has edges raises in that one division.
    ``level1`` is the level-1 numerator over ``den``, of either variant.
    ``tau`` and ``weights`` (per degree product, over ``D``) serve breakdowns."""

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
        """The index at level ``t``, read by :func:`_read`: one ``n**(t-2)``, a few big-integer
        products and one division; a breakdown evaluates the per-class counters at ``t`` from that power."""
        t, p, n = _int_arg(t, 1), self.params, self.base.n
        breakdown = include_breakdown and t > 1  # no breakdown at level 1
        nums = (self.total, *self.parts) if breakdown and self.variant == "P" else (self.total,)
        nums = nums if t > 1 else ((0, 0, self.level1),)
        (total, *parts), lead = _read(nums, n, t, self.den, p, repeat(self.variant), breakdown)
        if not breakdown:
            return _report(self.variant, t, p, total, None)
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

    def _class_terms(self, t: int, classes: list, lead: int, rep: int, shift: int) -> tuple[EdgeClass, ...]:
        """Per class, the four terms of one copy group at ``base degree + shift`` and
        their sum, the class weight: each its exact numerator over ``D``, divided once by :func:`_ratio`."""
        n, w, p, rows = self.base.n, self.weights, self.params, []
        unit = self.den // (n - 1) ** 2  # D
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
    p = as_params(params)  # refuse a bad exponent before the compile
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
    that index, and the float value, by their rounding. Requires minimum degree >= 1 and a degree
    spread small enough that the substituted factors stay nonnegative (checked). :func:`_read` reads
    both bounds: one past the double range raises :class:`OverflowError`, before ``n**(t-2)``.
    """
    alpha, t = as_params(alpha).alpha, _int_arg(t, 2)  # a zero, non-finite, text or bool exponent first
    if triangle_count(base) != 0:
        raise ValueError("bounds require a triangle-free base graph")
    degs = base.degrees().tolist()[1:]
    dmin, dmax = min(degs), max(degs)
    if dmin < 1:
        raise ValueError("bounds require no isolated vertices")

    n, m_edges = base.n, base.m  # m = M1 / 2
    def envelope(d_in: int, d_out: int, e: Fraction) -> tuple[Fraction, Fraction]:
        # lead*x + repunit(n, t-2)*y is ((x*(n-1) + y)*n**(t-2) - y) / (n-1): (a, c) of that numerator
        w1, w2 = 2 * r_base + e * m_next, r_base + e * m_next + m_edges * e * e
        y = (2 * d_in + 1) * w2 - d_out * w1
        return ((n - 2 * d_out) * r_base + d_in * w1 + w2) * (n - 1) + y, -y

    try:  # exact on the float inputs, each bound rounded once; OverflowError: past a float
        r_base, m_next = Fraction(randic_index(base, alpha)), Fraction(degree_power_sum(base, alpha + 1))
        at_min, at_max, past_min, past_max = (Fraction(d ** alpha) for d in (dmin, dmax, dmin + 1, dmax + 1))
        # Envelope of the per-vertex increment h(d) = (d+1)**a - d**a over
        # d in [dmin, dmax]; the two cross terms swap roles when alpha < 0.
        cross = (past_min - at_max, past_max - at_min)
        e_lo, e_hi = min(cross), max(cross)
        if min(at_min, at_max) + e_lo < 0:
            raise ValueError("degree spread too large for a valid envelope at this alpha")
        nums = envelope(dmin, dmax, e_lo), envelope(dmax, dmin, e_hi)
        scale = max(v.denominator for num in nums for v in num)  # powers of two: a multiple of each
        nums = [(int(a * scale), 0, int(c * scale)) for a, c in nums]
        return tuple(_read(nums, n, t, (n - 1) * scale, IndexParams(alpha), "SS")[0])
    except OverflowError:
        raise OverflowError(f"float S bounds at t={t}, alpha={alpha:g} exceed the double range") from None
