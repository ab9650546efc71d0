"""Explicit expansion of self-similar graphs, plus degree-class censuses.

The level-``t`` expansion of a base graph on ``n`` vertices lives on the
words of length ``t``: per base edge ``{x, y}``, prefix ``w`` and level ``i``,
an edge ``w x y...y`` ~ ``w y x...x``. So each level is the one below with
every word one letter longer plus the base under each new prefix, and the
polymeric variant stacks levels ``1..t``, each copy of the base on a hub.

Everything here builds the graphs outright, so it serves as the brute-force
ground truth for the closed forms. One function, :func:`_expansion_size`,
counts an expansion's vertices and edges; every builder and census checks
that vertex count against a vertex budget before it builds anything.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, _simple_edge_keys

#: Hard default cap on explicit construction size (vertices).
DEFAULT_VERTEX_BUDGET = 10_000_000


def _count_text(count: int) -> str:
    """``count`` in decimal up to 2000 bits (603 digits, under the least int-to-str limit CPython takes), else
    the power of two at or below it, so a refusal never converts a count past that limit."""
    return str(count) if count.bit_length() <= 2000 else f"at least 2**{count.bit_length() - 1}"


class VertexBudgetError(OverflowError):
    """Requested expansion exceeds the configured vertex budget."""

    def __init__(self, requested: int, budget: int):
        super().__init__(
            f"vertex budget exceeded: construction needs {_count_text(requested)} vertices"
            f" (budget {_count_text(budget)}); use the closed form instead"
        )
        self.requested = requested
        self.budget = budget


def _int_arg(value, least: int | None, name: str = "t", most: int | None = None) -> int:
    """``value`` as a Python int, for every level and size that feeds a power:
    numpy integers pass, anything else (a bool, a float, a string, None) raises
    ``TypeError``, and a value below ``least`` or above ``most`` raises ``ValueError``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}")
    return value


def repunit(n: int, t: int) -> int:
    """``1 + n + ... + n**(t-1)`` exactly (0 for ``t = 0``): per base edge, its
    copies in the level-``t`` expansion."""
    n, t = _int_arg(n, 2, "n"), _int_arg(t, 0)
    return (n ** t - 1) // (n - 1)


def _expansion_size(n: int, m: int, t: int, variant: str, budget: int | None = None) -> tuple[int, int]:
    """``(vertices, edges)`` of the level-``t`` ``S`` or ``P`` expansion of a base with ``n`` vertices and ``m``
    edges, from one power: ``R = repunit(n, t)`` copies of each base edge, and ``n**t = (n-1)*R + 1``. More
    vertices than a given ``budget`` raise :class:`VertexBudgetError`."""
    copies = repunit(n, t := _int_arg(t, 1))
    vertices = (n - 1) * copies + 1 if variant == "S" else (n + 1) * copies
    if budget is not None and vertices > budget:
        raise VertexBudgetError(vertices, budget)
    # P, per level i: m * repunit(n, i) copies, n**i hub fan-outs and, below the top, n**i parent links
    return vertices, (m * copies if variant == "S" else m * (n * copies - t) // (n - 1) + vertices - 1)


# -- word encoding -----------------------------------------------------------

def word_to_id(word: Sequence[int], n: int) -> int:
    """Pack a word (most significant letter first) into an id in ``1..n**t``."""
    n, vid = _int_arg(n, 1, "n"), 0
    for letter in map(operator.index, word):
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside alphabet 1..{n}")
        vid = vid * n + (letter - 1)
    return vid + 1


def id_to_word(vid: int, n: int, t: int) -> tuple[int, ...]:
    """Inverse of :func:`word_to_id` for words of length ``t``."""
    vid, n, t = operator.index(vid), _int_arg(n, 1, "n"), _int_arg(t, 0)
    if not 1 <= vid <= n ** t:
        raise ValueError(f"id {vid} outside 1..{n}**{t}")
    rem = vid - 1
    word = [0] * t
    for pos in range(t - 1, -1, -1):
        word[pos] = rem % n + 1
        rem //= n
    return tuple(word)


def _expansion_levels(base: Graph, t: int) -> Iterator[np.ndarray]:
    """0-based edge arrays of the level-``1..t`` expansions, one row per edge.

    Level ``i`` grows each row of level ``i-1`` by a letter (``y`` and ``x`` for
    base edge ``{x, y}``) and adds ``(p*n + x-1, p*n + y-1)`` per new prefix ``p``.
    Each level is a view of one buffer, valid until the next level overwrites it.
    """
    n, ends = base.n, base.edges - 1
    copies = np.empty((repunit(n, t), base.m, 2), dtype=np.int64)
    top = 0  # copies written: the level below
    for i in range(1, t + 1):
        copies[:top] *= n  # in place: numpy skips the store back of a view onto itself
        copies[:top] += ends[:, ::-1]
        fresh = n ** (i - 1)  # new prefixes
        np.add(np.arange(0, fresh * n, n, dtype=np.int64)[:, None, None], ends, out=copies[top:top + fresh])
        top += fresh
        yield copies[:top].reshape(-1, 2)
    if top != copies.shape[0]:
        raise ArithmeticError(f"edge block filled {top} of {copies.shape[0]} copies")


def _expansion_edge_block(base: Graph, t: int) -> np.ndarray:
    """0-based edge array of the level-``t`` expansion: the last of :func:`_expansion_levels`."""
    *_, block = _expansion_levels(base, t)
    return block


def sierpinski_graph(base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Build the level-``t`` expansion explicitly: ``n**t`` vertices.

    Level 1 is the base graph itself. Raises :class:`VertexBudgetError` when
    ``n**t`` exceeds ``budget``.
    """
    t = _int_arg(t, 1)
    total, _ = _expansion_size(base.n, base.m, t, "S", budget)
    return Graph(total, _expansion_edge_block(base, t) + 1)


def vertex_labels(base: Graph, t: int) -> list[str]:
    """Word label per expansion vertex id (dot-joined when letters exceed 9):
    the words of length ``t`` in id order, as :func:`id_to_word` spells them."""
    sep = "" if base.n <= 9 else "."
    return list(map(sep.join, product(map(str, range(1, base.n + 1)), repeat=_int_arg(t, 1))))


# -- polymeric layout and construction ---------------------------------------

@dataclass(frozen=True)
class PolymericLayout:
    """Vertex numbering of the layered polymeric expansion.

    Level ``i`` (1-based) occupies one contiguous id block: first its
    ``n**(i-1)`` hub vertices, then the ``n**i`` word vertices of the
    level-``i`` expansion. Total order size is ``(n+1) * (1 + n + ... +
    n**(t-1))``.
    """

    n: int
    t: int

    def __post_init__(self):
        object.__setattr__(self, "n", _int_arg(self.n, 2, "n"))
        object.__setattr__(self, "t", _int_arg(self.t, 1))

    def level_offset(self, i: int) -> int:
        """Vertices below level ``i`` in ``1..t+1``; ``t + 1`` gives ``total_vertices``."""
        return (self.n + 1) * repunit(self.n, _int_arg(i, 1, "i", self.t + 1) - 1)

    def hub_id(self, i: int, j: int) -> int:
        """Hub ``j`` (1-based, ``j <= n**(i-1)``) of level ``i`` in ``1..t``."""
        i = _int_arg(i, 1, "i", self.t)
        return self.level_offset(i) + _int_arg(j, 1, "j", self.n ** (i - 1))

    def hub_ids(self, i: int) -> range:
        i = _int_arg(i, 1, "i", self.t)
        start = self.level_offset(i)
        return range(start + 1, start + self.n ** (i - 1) + 1)

    @property
    def total_vertices(self) -> int:
        return _expansion_size(self.n, 0, self.t, "P")[0]

    def total_edges(self, m: int) -> int:
        """Edges over a base with ``m`` edges, in closed form."""
        return _expansion_size(self.n, _int_arg(m, 0, "m"), self.t, "P")[1]


def polymeric_layout(n: int, t: int) -> PolymericLayout:
    return PolymericLayout(n, t)


def polymeric_graph(base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Build the level-``t`` polymeric expansion of any base.

    Three edge groups per level ``i``: the expansion edges that
    :func:`_expansion_levels` grows, the hub fan-outs (hub ``j`` to word
    vertices ``(j-1)*n+1 .. j*n``, the ``j``-th base copy) and, for ``i < t``,
    the parent links (word vertex ``j`` of level ``i`` to hub ``j`` of level ``i+1``).
    """
    layout = polymeric_layout(base.n, t)
    n, t = base.n, layout.t
    total, _ = _expansion_size(n, base.m, t, "P", budget)

    blocks: list[np.ndarray] = []
    for i, level in enumerate(_expansion_levels(base, t), 1):
        hubs = n ** (i - 1)  # one per base copy at level i
        word_base = layout.level_offset(i) + hubs  # ids are word_base + k
        k = np.arange(1, hubs * n + 1, dtype=np.int64)
        fan = np.column_stack((layout.level_offset(i) + (k - 1) // n + 1, word_base + k))
        blocks.extend((level + (word_base + 1), fan))  # a copy: the next level overwrites ``level``
        if i < t:  # parent links
            blocks.append(np.column_stack((word_base + k, layout.level_offset(i + 1) + k)))
    return Graph(total, np.concatenate(blocks))


def polymeric_vertex_labels(base: Graph, t: int) -> list[str]:
    """Readable label per polymeric vertex id: ``hub/<level>/<j>`` or
    ``word/<level>/<word>``."""
    layout, labels = polymeric_layout(base.n, t), []
    for i in range(1, layout.t + 1):
        labels.extend(f"hub/{i}/{j}" for j in range(1, base.n ** (i - 1) + 1))
        labels.extend(f"word/{i}/{word}" for word in vertex_labels(base, i))
    if len(labels) != layout.total_vertices:
        raise ArithmeticError(f"{len(labels)} labels for {layout.total_vertices} vertices")
    return labels


# -- censuses ----------------------------------------------------------------

@dataclass(frozen=True)
class EdgeClassCounts:
    """Copies of one base edge classified by endpoint degree increments.

    ``cIJ`` counts copies whose endpoint over ``x`` has degree ``deg(x) + I``
    and whose endpoint over ``y`` has degree ``deg(y) + J`` (``x < y``).
    """

    x: int
    y: int
    c00: int
    c01: int
    c10: int
    c11: int

    @property
    def total(self) -> int:
        return self.c00 + self.c01 + self.c10 + self.c11

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.c00, self.c01, self.c10, self.c11)


@dataclass(frozen=True)
class VertexClassCounts:
    """Copies of one base vertex split by degree: kept (``c0``) vs +1 (``c1``)."""

    x: int
    c0: int
    c1: int

    @property
    def total(self) -> int:
        return self.c0 + self.c1


def _decode_edge_origin(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per expansion edge ``(u, v)`` (0-based ids): the 0-based base letters
    ``(x, y)`` whose copies the two endpoints are.

    An expansion edge always reads ``w a b...b`` / ``w b a...a`` for a base
    edge ``{a, b}``; each endpoint is a copy of its own last letter (the tail
    letter, or the differing letter itself when the edge sits at the last
    position). Decoding checks the constant-tail structure. The tail length is
    the most last letters whose stripping leaves the two ids differing; as ids
    that differ after a strip differed before it, one strip a pass counts it.
    """
    if (u == v).any():
        raise ArithmeticError("self-copy edge found")
    tail, live, qu, qv = np.zeros_like(u), np.arange(u.size), u, v
    while live.size:  # the edges whose ids still differ with ``tail`` letters stripped
        keep = (qu := qu // n) != (qv := qv // n)
        live, qu, qv = live[keep], qu[keep], qv[keep]
        tail[live] += 1
    p = n ** tail
    qu, qv = u // p, v // p
    a, b, rep = qu - qu // n * n, qv - qv // n * n, (p - 1) // (n - 1)
    if (u - qu * p != b * rep).any():
        raise ArithmeticError("tail of first endpoint is not constant")
    if (v - qv * p != a * rep).any():
        raise ArithmeticError("tail of second endpoint is not constant")
    return u - u // n * n, v - v // n * n


def _census_block(base: Graph, t: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The edge block (0-based) at a checked level ``t``, as :func:`sierpinski_graph` checks,
    and each vertex's degree above its base letter's (vertex ``k`` copies letter ``k % n + 1``)."""
    total, _ = _expansion_size(base.n, base.m, t, "S", budget)
    block = _expansion_edge_block(base, t)
    _simple_edge_keys(block, total)
    return block, np.bincount(block.ravel(), minlength=total) - np.tile(base.degrees()[1:], total // base.n)


def census_edge_classes(
    base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[EdgeClassCounts]:
    """Empirical degree-class counts per base edge, from the expansion's edge block.

    Requires ``t >= 2``. Every expansion endpoint must sit at its base degree
    or one above it; anything else is an internal invariant failure.
    """
    t, n = _int_arg(t, 2), base.n
    block, inc = _census_block(base, t, budget)
    u, v = block.T
    x, y = _decode_edge_origin(u, v, n)
    inc_x, inc_y = inc[u], inc[v]
    # copies by ordered letter pair and end increments (checked below); a base edge's copies run either way
    copies = np.bincount((x * n + y) << 2 | (inc_x << 1 | inc_y) & 3, minlength=n * n << 2).reshape(n, n, 2, 2)
    lo, hi = (base.edges - 1).T
    pairs = copies.sum((2, 3))
    pairs = np.triu(pairs + pairs.T)
    pairs[lo, hi] = 0
    if (unknown := np.flatnonzero(pairs)).size:
        a, b = divmod(int(unknown[0]), n)
        raise ArithmeticError(f"decoded pair {{{a + 1},{b + 1}}} is not a base edge")
    if ((inc_x | inc_y) >> 1).any():  # a bit above the lowest, or the sign: not both in {0, 1}
        raise ArithmeticError("endpoint degree outside {d, d+1}")
    counts = (copies[lo, hi] + copies[hi, lo].transpose(0, 2, 1)).reshape(-1, 4)
    if counts.sum() != block.shape[0]:
        raise ArithmeticError("census does not cover every expansion edge")
    return [EdgeClassCounts(a, b, *c) for (a, b), c in zip(base.iter_edges(), counts.tolist())]


def census_vertex_classes(
    base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[VertexClassCounts]:
    """Empirical degree-class counts per base vertex over its ``n**(t-1)``
    copies in the expansion's edge block (copies share the final letter)."""
    _, inc = _census_block(base, _int_arg(t, 2), budget)
    if (inc >> 1).any():
        raise ArithmeticError("copy degree outside {d, d+1}")
    bumped = inc.reshape(-1, base.n).sum(0).tolist()  # vertex k copies letter k % n + 1
    return [VertexClassCounts(x, inc.size // base.n - c1, c1) for x, c1 in enumerate(bumped, 1)]
