from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import sierpindex as sx
from sierpindex.closedform import _int_ratio


def build_corpus() -> dict:
    """The small graphs every cross-check runs over: complete, cycle, path,
    star and bipartite families plus the irregular 7-vertex demo graph."""
    return {
        "K2": sx.complete_graph(2),
        "K3": sx.complete_graph(3),
        "K4": sx.complete_graph(4),
        "K5": sx.complete_graph(5),
        "C4": sx.cycle_graph(4),
        "C5": sx.cycle_graph(5),
        "C6": sx.cycle_graph(6),
        "P3": sx.path_graph(3),
        "P4": sx.path_graph(4),
        "P5": sx.path_graph(5),
        "K1_3": sx.star_graph(3),
        "K2_3": sx.complete_bipartite_graph(2, 3),
        "demo7": sx.demo_graph(),
    }


CORPUS_NAMES = list(build_corpus())


def random_graph(seed: int, n: int, m: int) -> sx.Graph:
    """A seeded simple graph: ``m`` distinct vertex pairs of ``1..n``."""
    pool = list(combinations(range(1, n + 1), 2))
    return sx.Graph(n, [pool[i] for i in np.random.default_rng(seed).choice(len(pool), m, replace=False)])


#: seeded bases at the bitmask kernel's edge limit in ``edge_triangles``, one edge
#: above it (the numpy kernel) and at the size of the larger ``sweep`` base
KERNEL_BASES = {
    "at_limit": random_graph(1, 20, sx.graphs._BITMASK_KERNEL_EDGES),
    "above_limit": random_graph(2, 20, sx.graphs._BITMASK_KERNEL_EDGES + 1),
    "n400_m2000": random_graph(3, 400, 2000),
}

#: corpus members with no triangles (the bounds only apply to these)
TRIANGLE_FREE = ["K2", "C4", "C5", "C6", "P3", "P4", "P5", "K1_3", "K2_3"]

ALPHAS = [-1.0, -0.5, 0.5, 1.0, 2.0]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= max(tol * abs(b), 1e-12)


def table_counts(table, t: int) -> list[Counter]:
    """Per part of a :func:`sierpindex.count_table`, the level-``t`` expansion's
    edges by end-degree pair, read off its columns, each pair at its column's
    lift (``t = 1``: the one part ``level1``); a count that is not an integer
    raises."""
    n = table.base.n
    lead = n ** (t - 2) if t > 1 else 0  # a level-1 basis has no n**(t-2) term
    out = []
    for part in table.parts if t > 1 else (table.level1,):
        count = Counter()
        for (x, y, z), (name, lift) in part:
            for (a, b), k in table.columns[name, lift].items():
                count[a + lift, b + lift] += (x * lead + y * t + z) * k
        out.append(Counter({pair: _int_ratio(c, (n - 1) ** 2) for pair, c in count.items() if c}))
    return out
