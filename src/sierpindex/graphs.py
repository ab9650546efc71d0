"""Immutable simple graphs with a canonical edge order, plus degree-based indices.

Vertices are dense integer ids ``1..n``. A graph holds its edge list,
lexicographically sorted with ``u < v`` so every sum over edges has a single
reproducible order, and its degree table. The adjacency (CSR: one flat sorted
neighbor array plus offsets) is derived from the edges once, on first use by a
neighbor query or a search, and is read-only like the rest; graphs are safe to
share across threads, where a race only builds equal arrays twice.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph data: bad vertex ids, self-loops, duplicate edges, ..."""


class ParseError(GraphError):
    """Malformed edge-list document; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


#: Most vertices a :class:`Graph` takes: its largest int64 key, an arc
#: ``n * (n+1) + n``, is ``(n+1)**2 - 1``.
_MAX_VERTICES = math.isqrt(1 << 63) - 1


class Graph:
    """Simple undirected graph on vertices ``1..n`` with at least one edge.

    ``edges`` is an ``(m, 2)`` int64 array sorted lexicographically with
    ``u < v`` in every row; this is the canonical iteration order used by all
    index computations. Neighbor arrays are sorted ascending.
    """

    __slots__ = ("n", "m", "_edges", "_degrees", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        self.n = n = operator.index(n)
        if n < 2:
            raise GraphError(f"need at least 2 vertices, got n={n}")
        if n > _MAX_VERTICES:
            raise GraphError(f"n={n} is more vertices than int64 edge keys hold (at most {_MAX_VERTICES})")
        pairs = None if isinstance(edges, np.ndarray) else list(edges)
        try:
            e = edges if pairs is None else np.asarray(pairs)
        except ValueError:  # rows of unequal length, which numpy cannot stack, are not pairs
            raise GraphError("need a nonempty sequence of vertex pairs") from None
        if e.ndim != 2 or e.shape[1] != 2 or e.shape[0] == 0:
            raise GraphError("need a nonempty sequence of vertex pairs")
        if e.dtype.kind not in "iu":
            # numpy holds a list with an int past int64 as floats or objects: ask each id
            for v in chain.from_iterable(e.tolist() if e is edges else pairs):
                operator.index(v)  # a float, a string, ... raises TypeError
        if e.min() < 1 or e.max() > n:
            raise GraphError(f"vertex id out of range 1..{n}")

        key = _simple_edge_keys(e.astype(np.int64, copy=False), n)
        # sorted (lo, hi) keys are exactly lexicographic edge order
        lo = key // (n + 1)
        canon = np.column_stack((lo, key - lo * (n + 1)))
        degrees = np.bincount(canon.ravel(), minlength=n + 1)
        canon.flags.writeable = degrees.flags.writeable = False
        self.m = int(canon.shape[0])
        self._edges = canon
        self._degrees = degrees
        self._csr = None

    _indptr = property(lambda self: self._adjacency()[0])
    _indices = property(lambda self: self._adjacency()[1])

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR offsets and sorted neighbor ids, built on first use; a race builds equal arrays twice."""
        if self._csr is None:
            n1, (lo, hi) = self.n + 1, self._edges.T
            # both orientations of every edge as src*(n+1)+dst arcs: one sort gives CSR order
            arcs = np.sort(np.concatenate((lo * n1 + hi, hi * n1 + lo)))
            indices = arcs - arcs // n1 * n1
            indptr = np.zeros(n1 + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr = indptr, indices
        return self._csr

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array in canonical order."""
        return self._edges

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Canonical edges as plain Python int pairs."""
        return (tuple(edge) for edge in self._edges.tolist())

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise GraphError(f"vertex id {v} out of range 1..{self.n}")

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        self._check_vertex(v)
        indptr, indices = self._adjacency()
        return indices[indptr[v]:indptr[v + 1]]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        """Read-only degree table indexed by vertex id (entry 0 is unused and zero)."""
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(v)
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < nb.size and nb[i] == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edges, other._edges)

    __hash__ = None  # mutable-free but identity hashing would mislead

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _simple_edge_keys(e: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys ``min * (n+1) + max`` of the pairs ``e``; no self-loops, no duplicates."""
    if (e[:, 0] == e[:, 1]).any():
        raise GraphError("self-loops are not allowed")
    key = np.sort(np.minimum(e[:, 0], e[:, 1]) * np.int64(n + 1) + np.maximum(e[:, 0], e[:, 1]))
    if (key[1:] == key[:-1]).any():
        raise GraphError("duplicate edges are not allowed")
    return key


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format into a canonical :class:`Graph`.

    Format: optional comment lines starting ``#``, one header line
    ``p <n> <m>``, then exactly ``m`` lines ``<u> <v>`` with 1-based ids,
    ``u != v``, whitespace separated. Errors report the first offending line
    in file order.
    """
    # A document exactly as render_edge_list writes it (after the header, m lines of two
    # ASCII digit runs of 1 to 18, which fit int64, split by one space) is converted in one
    # call, and Graph checks range, self-loops and duplicates. Any other document, or a failed
    # check, goes to the loop below: it alone takes int()'s ids (+2, 1_0, ...) and comments, and names the bad line.
    if (head := re.match(r"p ([0-9]{1,18}) ([0-9]{1,18})\n", text)) and (m := int(head[2])):
        body = np.frombuffer(text.encode(), dtype=np.uint8, offset=head.end())  # the header is ASCII
        sep = np.flatnonzero((body < 48) | (body > 57))  # anything but the digits 0-9
        run = np.diff(sep, prepend=-1)  # each separator's digit run, plus one
        if (sep.size == 2 * m and sep[-1] == body.size - 1 and run.min() > 1 and run.max() <= 19
                and (body[sep].reshape(-1, 2) == (32, 10)).all()):
            with suppress(GraphError):
                return Graph(int(head[1]), np.fromstring(text[head.end():], dtype=np.int64, sep=" ").reshape(-1, 2))
    n = m = None
    edges: dict[tuple[int, int], None] = {}  # a set that keeps file order, which Graph converts fastest
    for line_no, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
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
        if edge in edges:
            raise ParseError(f"duplicate edge {{{edge[0]},{edge[1]}}}", line_no)
        edges[edge] = None
    if n is None:
        raise ParseError("missing header 'p <n> <m>'")
    if len(edges) != m:
        raise ParseError(f"edge count mismatch: header says m={m}, found {len(edges)}")
    return Graph(n, edges)


def render_edge_list(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list`; canonical order, LF newlines."""
    # one row of bytes per id: its digits right-aligned over NULs, then a space or a newline;
    # the ids in the least unsigned type that holds n, the cheapest to divide
    w, q = len(str(g.n)), g._edges.ravel().astype(np.min_scalar_type(g.n))
    rows = np.zeros((2 * g.m, w + 1), dtype=np.uint8)
    rows[0::2, w], rows[1::2, w] = 32, 10
    for k in range(w - 1, -1, -1):
        r = q // 10
        np.add(q - r * 10, 48, out=rows[:, k], where=q > 0, casting="unsafe")
        q = r
    return f"p {g.n} {g.m}\n" + str(rows[rows > 0].data, "ascii")


# -- named families ----------------------------------------------------------

#: Fixed edge list of the 7-vertex demo graph: a 4-cycle sharing an edge with
#: a triangle, plus a 2-edge tail. Degrees span 1..3 and it has one triangle,
#: which makes it a convenient irregular test base.
DEMO_EDGES = ((1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7))


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Graph(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(r: int) -> Graph:
    """Star with center 1 and ``r`` leaves."""
    if r < 1:
        raise ValueError("star needs r >= 1 leaves")
    return Graph(r + 1, [(1, leaf) for leaf in range(2, r + 2)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Parts ``1..a`` and ``a+1..a+b``."""
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs a, b >= 1")
    return Graph(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])


def demo_graph() -> Graph:
    return Graph(7, DEMO_EDGES)


_FAMILIES = {
    "complete": (complete_graph, 1),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "star": (star_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "demo": (demo_graph, 0),
}


def generate_family(family: str, params: Sequence[int] = ()) -> Graph:
    """Build a named family member; see ``_FAMILIES`` for accepted names."""
    try:
        builder, arity = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}") from None
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# -- triangles ---------------------------------------------------------------

def triangles_on_edge(g: Graph, u: int, v: int) -> int:
    """Number of triangles through the edge ``{u, v}`` (= common neighbors)."""
    if not g.has_edge(u, v):
        raise ValueError(f"{{{u},{v}}} is not an edge")
    return len(set(g.neighbors(u).tolist()).intersection(g.neighbors(v).tolist()))


#: Edge count up to which :func:`edge_triangles` runs its Python bitmask kernel (the measured crossover)
_BITMASK_KERNEL_EDGES = 96
#: Most entries, ``(n+1)**2``, per wedge of the int32 edge-id table in which
#: :func:`edge_triangles` looks its wedges up: the measured crossover with a
#: binary search of the sorted keys, which a base with fewer wedges keeps
_EDGE_TABLE_PER_WEDGE = 64
#: Most entries of that table in all (16 MiB, so n <= 2047), a bound on its memory
_EDGE_TABLE_ENTRIES = 1 << 22


def edge_triangles(g: Graph) -> np.ndarray:
    """Triangles through every edge, as an int64 array in canonical edge order.

    Up to ``_BITMASK_KERNEL_EDGES`` edges (96), the popcount of the AND of its
    ends' neighbour bitmasks (Python ints) per edge. Above, each canonical edge
    is oriented from its lower- to its higher-ranked end (rank: degree, then
    id; no adjacency is built), so a triangle is met exactly once, as a wedge
    of two out-neighbors of its lowest-ranked vertex closed by an edge, and is
    credited to all three of its edges; the wedges number O(m**1.5) even next
    to a hub on every vertex. A wedge's closing edge is read from a dense table
    of edge ids by key while its ``(n+1)**2`` entries are at most
    ``_EDGE_TABLE_PER_WEDGE`` (64) per wedge and ``_EDGE_TABLE_ENTRIES`` (2**22,
    so n <= 2047) in all, and found by a binary search of the sorted edge keys
    otherwise: the table costs time in n**2, the search in the wedges.
    """
    if g.m <= _BITMASK_KERNEL_EDGES:
        edges, nbrs = g._edges.tolist(), [0] * (g.n + 1)
        for u, v in edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return np.array([(nbrs[u] & nbrs[v]).bit_count() for u, v in edges], dtype=np.int64)
    n1, m, deg, (lo, hi) = g.n + 1, g.m, g.degrees(), g._edges.T
    keys = lo * n1 + hi  # sorted: canonical order
    flip = deg[lo] > deg[hi]
    src, dst = np.where(flip, hi, lo), np.where(flip, lo, hi)
    eid = (src * n1 + dst).argsort()  # canonical ids of the arcs grouped by src, dst ascending
    src, dst = src[eid], dst[eid]
    # slot j of a group ending before slot `end[j]` pairs with each of the
    # `later[j]` slots after it
    slot, end = np.arange(m), src.searchsorted(src, "right")
    later = end - slot - 1
    first = slot.repeat(later)
    second = np.arange(first.size) + (end - later.cumsum()).repeat(later)
    wedge = dst[first] * n1 + dst[second]  # dst ascends in a group: a canonical key
    if n1 * n1 <= min(_EDGE_TABLE_PER_WEDGE * first.size, _EDGE_TABLE_ENTRIES):
        table = np.zeros(n1 * n1, dtype=np.int32)  # edge id + 1 by key, 0 for no edge
        table[keys] = np.arange(1, m + 1, dtype=np.int32)
        pos = table.take(wedge) - 1
        hit = pos >= 0
    else:
        pos = keys.searchsorted(wedge)
        hit = keys.take(pos, mode="clip") == wedge
    return np.bincount(np.concatenate((pos[hit], eid[first[hit]], eid[second[hit]])), minlength=m)


def triangle_count(g: Graph) -> int:
    """Total number of triangles; each is met once per incident edge."""
    total = int(edge_triangles(g).sum())
    if total % 3:
        raise ArithmeticError(f"edge-wise triangle sum {total} is not divisible by 3")
    return total // 3


def _bfs_colors(g: Graph, roots: Iterable[int]) -> tuple[bytearray, bool]:
    """Breadth-first search on plain lists from each root not yet reached.

    ``color[v]`` is 1 or 2 by the parity of ``v``'s depth below its root and 0
    if ``v`` was not reached (entry 0 is unused). The flag says whether an
    edge joins two vertices of one color: a reached component is not bipartite.
    """
    indptr, indices = g._indptr.tolist(), g._indices.tolist()
    color = bytearray(g.n + 1)
    clash = False
    for root in roots:
        if color[root]:
            continue
        color[root] = 1
        queue = [root]
        for v in queue:  # grows while it is walked: first in, first out
            other = 3 - color[v]
            for w in indices[indptr[v]:indptr[v + 1]]:
                if not color[w]:
                    color[w] = other
                    queue.append(w)
                elif color[w] != other:
                    clash = True
    return color, clash


def is_connected(g: Graph) -> bool:
    return _bfs_colors(g, (1,))[0].find(0, 1) < 0


# -- degree-product indices --------------------------------------------------

@dataclass(frozen=True)
class IndexParams:
    """Exponent and arithmetic mode for degree-product indices.

    ``alpha`` must be finite and nonzero (edge counting is just ``m``); it is kept
    as a float, and a number with no double value is refused. Exact mode keeps
    every term an arbitrary-precision integer and requires an integer
    ``alpha >= 1``; it exists because the ``alpha = 1`` index of large
    expansions overflows 64-bit and double ranges.
    """

    alpha: float
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite(self.alpha))
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.exact and not (self.alpha.is_integer() and self.alpha >= 1):
            raise ValueError("exact mode requires an integer alpha >= 1")

    @property
    def int_alpha(self) -> int:
        return int(self.alpha)


def as_params(params: IndexParams | float) -> IndexParams:
    """Accept a bare exponent anywhere an :class:`IndexParams` is expected."""
    return params if isinstance(params, IndexParams) else IndexParams(params)


def _finite(alpha: float) -> float:
    """``alpha`` as a float: text or a bool raises ``TypeError``, a number with no finite double ``ValueError``."""
    if isinstance(alpha, (str, bytes, bytearray, bool, np.bool_)):
        raise TypeError(f"alpha must be a number, not {type(alpha).__name__}")
    try:
        alpha = float(alpha)
    except OverflowError:
        alpha = math.inf
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return alpha


def _overflow(what: str, alpha: float, t: int | None = None) -> OverflowError:
    """The one double-range refusal: the float ``what`` index at ``alpha`` (and level ``t``) has no double value."""
    at = "" if t is None else f"t={t}, "
    return OverflowError(f"float {what} index at {at}alpha={alpha:g} exceeds the double range")


def _fsum(terms: Iterable[float], what: str, alpha: float) -> float:
    """``math.fsum(terms)``; a term or the sum past the double range raises :func:`_overflow` for ``what``."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise _overflow(what, alpha) from None


def randic_index(g: Graph, params: IndexParams | float) -> float | int:
    """Sum over edges of ``(deg(u) * deg(v)) ** alpha``, one power per distinct
    degree product. Float mode gives ``fsum`` each power once per edge: the
    edge-by-edge multiset, so the same correctly rounded bits; a power or the
    sum past the double range raises the named :class:`OverflowError`."""
    p = as_params(params)
    deg = g.degrees()
    prods, counts = np.unique(deg[g._edges[:, 0]] * deg[g._edges[:, 1]], return_counts=True)
    classes = zip(prods.tolist(), counts.tolist())
    if p.exact:
        a = p.int_alpha
        return sum(k * d ** a for d, k in classes)
    return _fsum(chain.from_iterable(repeat(d ** p.alpha, k) for d, k in classes), "randic", p.alpha)


def degree_power_sum(g: Graph, alpha: float) -> float:
    """Sum over vertices of ``deg(v) ** alpha``.

    ``alpha = 1`` gives twice the edge count; ``alpha = 2`` the classic
    squared-degree sum. A power or the sum past the double range raises the
    named :class:`OverflowError`.
    """
    checked = _finite(alpha)
    deg = g.degrees().tolist()[1:]
    if alpha <= 0 and min(deg) == 0:
        raise ValueError("graph has an isolated vertex; alpha <= 0 is undefined")
    # powers by a Python number: numpy's would wrap round int64 or overflow to inf
    alpha = int(alpha) if isinstance(alpha, np.integer) else checked if isinstance(alpha, np.floating) else alpha
    return _fsum((d ** alpha for d in deg), "degree_power_sum", checked)


# -- degree profile ----------------------------------------------------------

@dataclass(frozen=True)
class DegreeProfile:
    """What the degree sequence allows: regularity, triangle freeness, and
    bipartite semiregularity ``(n1, n2, d1, d2)`` when it applies (part 1 is
    the side containing vertex 1)."""

    min_degree: int
    max_degree: int
    is_regular: bool
    regular_degree: int | None
    is_triangle_free: bool
    bipartite_semiregular: tuple[int, int, int, int] | None


def degree_profile(g: Graph) -> DegreeProfile:
    deg = g.degrees()[1:]
    dmin, dmax = int(deg.min()), int(deg.max())
    regular = dmin == dmax
    semi = None
    color, odd_cycle = _bfs_colors(g, range(1, g.n + 1))
    if not odd_cycle:
        side1 = np.frombuffer(color, dtype=np.uint8)[1:] == 1  # every root, vertex 1 too, has color 1
        d1, d2 = deg[side1], deg[~side1]
        if d2.size and d1.min() == d1.max() and d2.min() == d2.max():
            semi = (int(d1.size), int(d2.size), int(d1[0]), int(d2[0]))
    return DegreeProfile(
        min_degree=dmin,
        max_degree=dmax,
        is_regular=regular,
        regular_degree=dmin if regular else None,
        is_triangle_free=triangle_count(g) == 0,
        bipartite_semiregular=semi,
    )
