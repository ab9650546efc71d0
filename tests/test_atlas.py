"""Every base on at most 7 vertices: the count table against the edge census of
the built expansion, over networkx's graph atlas (every graph on at most 7
vertices up to isomorphism; the 1 245 with an edge, isolated vertices and
disconnected graphs included).

Premise, the affine form: at ``t >= 2`` the expansion edges with a given pair
of end degrees number ``a*n**(t-2) + b*t + c``, with ``b = 0`` for ``S``. So
``S`` at t = 2, 3 fixes its two coefficients and ``P`` at t = 2, 3, 4 its
three, and t = 1 is a level of its own: a table equal to the census at ``S``
t = 1..3 and ``P`` t = 1..4 is the census at every level, and ``R_alpha`` at
every level and exponent with it."""

from collections import Counter, defaultdict
from itertools import chain

import networkx as nx
import numpy as np
import pytest

import sierpindex as sx

ATLAS = nx.graph_atlas_g()
WITH_EDGES = [i for i, g in enumerate(ATLAS) if g.number_of_edges()]
LEVELS = {"S": (1, 2, 3), "P": (1, 2, 3, 4)}
BUILD = {"S": sx.sierpinski_graph, "P": sx.polymeric_graph}


def base_of(g: nx.Graph) -> sx.Graph:
    return sx.Graph(g.number_of_nodes(), [(u + 1, v + 1) for u, v in g.edges()])


def census(built: sx.Graph) -> Counter:
    """Edges of an explicit graph by sorted end-degree pair, in one numpy pass:
    ``test_count_table.census`` by ``Counter`` would take most of this module's
    time over the atlas."""
    deg, e, n = built.degrees(), built.edges, built.n
    a, b = deg[e[:, 0]], deg[e[:, 1]]
    keys, sizes = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)  # degrees are below n
    return Counter({divmod(k, n): size for k, size in zip(keys.tolist(), sizes.tolist())})


def level_counts(table, t: int) -> Counter:
    """The level-``t`` expansion's edges by end-degree pair, all parts together,
    read off the table's columns; a count that is not an integer fails. One
    ``Counter`` in all, where summing ``conftest.table_counts`` builds one a part."""
    u, lead, basis = table.base.n - 1, table.base.n ** (t - 2) if t > 1 else 0, Counter()
    for (x, y, z), name in chain(*table.parts) if t > 1 else table.level1:
        basis[name] += x * lead + y * t + z
    counts = Counter()
    for name, w in basis.items():
        for pair, k in table.columns[name].items():
            counts[pair] += w * k
    assert all(c % (u * u) == 0 for c in counts.values()), (t, counts)
    return Counter({pair: c // (u * u) for pair, c in counts.items() if c})


def test_the_count_table_is_the_census_of_every_atlas_graph():
    assert len(WITH_EDGES) == 1245
    for i in WITH_EDGES:  # in atlas order, so the first failure is the smallest index
        base = base_of(ATLAS[i])
        for variant, levels in LEVELS.items():
            table = sx.count_table(base, variant)
            for t in levels:
                got, want = level_counts(table, t), census(BUILD[variant](base, t))
                if got != want:
                    pair = min(p for p in got.keys() | want.keys() if got[p] != want[p])
                    pytest.fail(f"atlas graph {i}, {variant} t={t}, pair {pair}: "
                                f"table {got[pair]}, census {want[pair]}")


def profile(g: nx.Graph) -> tuple:
    """``n``, the vertices per degree, and per sorted end-degree pair its edges
    and triangle sum, read by networkx."""
    deg, pairs = dict(g.degree), defaultdict(lambda: [0, 0])
    for u, v in g.edges():
        pair = pairs[min(deg[u], deg[v]), max(deg[u], deg[v])]
        pair[0] += 1
        pair[1] += len(list(nx.common_neighbors(g, u, v)))
    return g.number_of_nodes(), sorted(Counter(deg.values()).items()), sorted((k, tuple(v)) for k, v in pairs.items())


def test_atlas_graphs_with_one_profile_have_one_count_table():
    # distinct atlas graphs are not isomorphic: 12 pairs of them share a profile,
    # and so, by the count table above, every level's census and index
    groups = defaultdict(list)
    for i in WITH_EDGES:
        groups[repr(profile(ATLAS[i]))].append(i)
    shared = [ids for ids in groups.values() if len(ids) > 1]
    assert len(shared) == 12 and all(len(ids) == 2 for ids in shared)
    for i, j in shared:
        for variant in LEVELS:
            a, b = (sx.count_table(base_of(ATLAS[k]), variant) for k in (i, j))
            assert (a.columns, a.parts, a.level1) == (b.columns, b.parts, b.level1), (i, j, variant)
