"""Explicit expansion of self-similar graphs, plus degree-class censuses.

The level-``t`` expansion of a base graph on ``n`` vertices lives on all
words of length ``t`` over the base alphabet: one edge per base edge
``{x, y}``, prefix word ``w`` and level ``i``, joining ``w x y...y`` to
``w y x...x``. The polymeric variant stacks levels ``1..t`` of those
expansions and wires each level-``i`` copy of the base to a hub vertex.

Everything here builds the graphs outright, so it serves as the brute-force
ground truth for the closed forms; sizes are gated by a vertex budget.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _simple_edge_keys, is_connected

#: Hard default cap on explicit construction size (vertices).
DEFAULT_VERTEX_BUDGET = 10_000_000


class VertexBudgetError(OverflowError):
    """Requested expansion exceeds the configured vertex budget."""

    def __init__(self, requested: int, budget: int):
        super().__init__(
            f"vertex budget exceeded: construction needs {requested} vertices"
            f" (budget {budget}); use the closed form instead"
        )
        self.requested = requested
        self.budget = budget


def _check_budget(requested: int, budget: int) -> None:
    if requested > budget:
        raise VertexBudgetError(requested, budget)


def _int_arg(value, least: int, name: str = "t") -> int:
    """``value`` as a Python int, for every level and size that feeds a power:
    numpy integers pass, anything else (a float, a string, None) raises
    ``TypeError``, and a value below ``least`` raises ``ValueError``."""
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def repunit(n: int, t: int) -> int:
    """``1 + n + ... + n**(t-1)`` exactly (0 for ``t = 0``): per base edge, its
    copies in the level-``t`` expansion."""
    n, t = _int_arg(n, 2, "n"), _int_arg(t, 0)
    return (n ** t - 1) // (n - 1)


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


def _expansion_edge_block(base: Graph, t: int) -> np.ndarray:
    """0-based edge array of the level-``t`` expansion, one row per edge.

    Level ``i`` contributes, for every prefix ``p`` in ``0..n**(i-1)-1`` and
    base edge ``(x, y)``, the pair ``(p*n + x-1, p*n + y-1)`` extended by the
    constant tails ``y...y`` / ``x...x`` of length ``t - i``.
    """
    n = base.n
    x, y = (base.edges - 1).T[:, :, None]  # one row per base edge, one column per prefix
    out = np.empty((base.m * repunit(n, t), 2), dtype=np.int64)
    row = 0
    for i in range(1, t + 1):
        tail = t - i
        shift = n ** tail
        rep = repunit(n, tail)
        prefixes = np.arange(n ** (i - 1), dtype=np.int64) * n
        rows = slice(row, row + base.m * prefixes.size)
        out[rows, 0] = ((prefixes + x) * shift + y * rep).ravel()
        out[rows, 1] = ((prefixes + y) * shift + x * rep).ravel()
        row = rows.stop
    if row != out.shape[0]:
        raise ArithmeticError(f"edge block filled {row} of {out.shape[0]} rows")
    return out


def sierpinski_graph(base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Build the level-``t`` expansion explicitly: ``n**t`` vertices.

    Level 1 is the base graph itself. Raises :class:`VertexBudgetError` when
    ``n**t`` exceeds ``budget``.
    """
    t = _int_arg(t, 1)
    total = base.n ** t
    _check_budget(total, budget)
    return Graph(total, _expansion_edge_block(base, t) + 1)


def vertex_labels(base: Graph, t: int) -> list[str]:
    """Word label per expansion vertex id (dot-joined when letters exceed 9)."""
    sep = "" if base.n <= 9 else "."
    return [
        sep.join(map(str, id_to_word(vid, base.n, t)))
        for vid in range(1, base.n ** _int_arg(t, 1) + 1)
    ]


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
        return (self.n + 1) * repunit(self.n, i - 1)

    def hub_id(self, i: int, j: int) -> int:
        """Hub ``j`` (1-based, ``j <= n**(i-1)``) of level ``i``."""
        return self.level_offset(i) + j

    def hub_ids(self, i: int) -> range:
        i = _int_arg(i, 1, "i")
        start = self.level_offset(i)
        return range(start + 1, start + self.n ** (i - 1) + 1)

    @property
    def total_vertices(self) -> int:
        return (self.n + 1) * repunit(self.n, self.t)

    def total_edges(self, m: int) -> int:
        """Edges over a base with ``m`` edges: per level ``i``, ``m * repunit(n, i)``
        copies, ``n**i`` hub fan-outs and, below the top, ``n**i`` parent links."""
        m = _int_arg(m, 0, "m")
        return sum(m * repunit(self.n, i) + 2 * self.n ** i for i in range(1, self.t + 1)) - self.n ** self.t


def polymeric_layout(n: int, t: int) -> PolymericLayout:
    return PolymericLayout(n, t)


def polymeric_graph(base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET) -> Graph:
    """Build the level-``t`` polymeric expansion of a connected base.

    Three edge groups per level ``i``: the level-``i`` expansion edges, the
    hub fan-outs (hub ``j`` joined to every vertex of the ``j``-th base copy,
    i.e. word vertices ``(j-1)*n+1 .. j*n``), and for ``i < t`` the parent
    links (word vertex ``j`` of level ``i`` to hub ``j`` of level ``i+1``).
    """
    layout = polymeric_layout(base.n, t)
    if not is_connected(base):
        raise ValueError("polymeric expansion needs a connected base graph")
    _check_budget(layout.total_vertices, budget)

    n, t = base.n, layout.t
    blocks: list[np.ndarray] = []
    for i in range(1, t + 1):
        word_base = layout.level_offset(i) + n ** (i - 1)  # ids are word_base + k
        level_edges = _expansion_edge_block(base, i) + (word_base + 1)
        k = np.arange(1, n ** i + 1, dtype=np.int64)
        fan = np.column_stack((layout.level_offset(i) + (k - 1) // n + 1, word_base + k))
        blocks.extend((level_edges, fan))
        if i < t:
            links = np.column_stack((word_base + k, layout.level_offset(i + 1) + k))
            blocks.append(links)
    return Graph(layout.total_vertices, np.concatenate(blocks))


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


def _decode_edge_origin(u: np.ndarray, v: np.ndarray, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per expansion edge ``(u, v)`` (0-based ids): the base letters ``(x, y)``
    whose copies the two endpoints are.

    An expansion edge always reads ``w a b...b`` / ``w b a...a`` for a base
    edge ``{a, b}``; each endpoint is a copy of its own last letter (the tail
    letter, or the differing letter itself when the edge sits at the last
    position). Decoding checks the constant-tail structure.
    """
    power = n ** np.arange(t + 1, dtype=np.int64)
    # tail length after the first differing letter: the words agree on their
    # prefixes of length t - j exactly when j > tail
    tail = (u[:, None] // power != v[:, None] // power).sum(axis=1) - 1
    if (tail < 0).any():
        raise ArithmeticError("self-copy edge found")
    a, b = u // power[tail] % n, v // power[tail] % n
    rep = (power[tail] - 1) // (n - 1)
    if (u % power[tail] != b * rep).any():
        raise ArithmeticError("tail of first endpoint is not constant")
    if (v % power[tail] != a * rep).any():
        raise ArithmeticError("tail of second endpoint is not constant")
    return u % n + 1, v % n + 1


def _census_block(base: Graph, t: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-``t`` edge block (0-based) and vertex degrees, checked as in :func:`sierpinski_graph`."""
    t = _int_arg(t, 2)
    total = base.n ** t
    _check_budget(total, budget)
    block = _expansion_edge_block(base, t)
    _simple_edge_keys(block, total)
    return block, np.bincount(block.ravel(), minlength=total)


def census_edge_classes(
    base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[EdgeClassCounts]:
    """Empirical degree-class counts per base edge, from the expansion's edge block.

    Requires ``t >= 2``. Every expansion endpoint must sit at its base degree
    or one above it; anything else is an internal invariant failure.
    """
    block, deg = _census_block(base, t, budget)
    u, v = block.T
    x, y = _decode_edge_origin(u, v, base.n, t)
    # orient every copy along its canonical (min, max) base edge, packed as min*(n+1)+max
    n1, swap = base.n + 1, x > y
    pair = np.where(swap, y, x) * n1 + np.where(swap, x, y)
    base_keys = base.edges[:, 0] * n1 + base.edges[:, 1]
    decoded = np.unique(pair)
    unknown = decoded[~np.isin(decoded, base_keys)]
    if unknown.size:
        a, b = divmod(int(unknown[0]), n1)
        raise ArithmeticError(f"decoded pair {{{a},{b}}} is not a base edge")
    base_deg = base.degrees()
    inc_x = deg[u] - base_deg[x]
    inc_y = deg[v] - base_deg[y]
    if not (((inc_x == 0) | (inc_x == 1)) & ((inc_y == 0) | (inc_y == 1))).all():
        raise ArithmeticError("endpoint degree outside {d, d+1}")

    code = (pair << 2) | (np.where(swap, inc_y, inc_x) << 1) | np.where(swap, inc_x, inc_y)
    counts = np.bincount(code, minlength=n1 ** 2 << 2).reshape(-1, 4)[base_keys]
    if counts.sum() != block.shape[0]:
        raise ArithmeticError("census does not cover every expansion edge")
    return [EdgeClassCounts(a, b, *c) for (a, b), c in zip(base.iter_edges(), counts.tolist())]


def census_vertex_classes(
    base: Graph, t: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[VertexClassCounts]:
    """Empirical degree-class counts per base vertex over its ``n**(t-1)``
    copies in the expansion's edge block (copies share the final letter)."""
    _, deg = _census_block(base, t, budget)
    last = np.arange(deg.size, dtype=np.int64) % base.n + 1
    inc = deg - base.degrees()[last]
    if not ((inc == 0) | (inc == 1)).all():
        raise ArithmeticError("copy degree outside {d, d+1}")
    counts = np.bincount(last * 2 + inc, minlength=(base.n + 1) * 2).reshape(-1, 2)
    return [VertexClassCounts(x, *c) for x, c in enumerate(counts[1:].tolist(), 1)]
