"""The construction oracle against networkx: degrees, neighbors and the index
of every ``S`` and ``P`` expansion of the corpus bases up to ``t = 3``, read
from networkx's own adjacency rather than from the CSR arrays."""

import math

import networkx as nx
import pytest

import sierpindex as sx

from conftest import CORPUS_NAMES, KERNEL_BASES

FLOAT_ALPHAS = (-1.0, -0.5, 0.5, 2.0)
EXACT_ALPHAS = (1, 2)


def expansions(base):
    for t in (1, 2, 3):
        yield f"S t={t}", sx.sierpinski_graph(base, t)
        if sx.is_connected(base):
            yield f"P t={t}", sx.polymeric_graph(base, t)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_oracle_matches_networkx(corpus, name):
    for label, g in expansions(corpus[name]):
        G = nx.Graph()
        G.add_nodes_from(range(1, g.n + 1))
        G.add_edges_from(g.iter_edges())
        assert G.number_of_edges() == g.m, label
        assert g.degrees()[1:].tolist() == [G.degree[v] for v in range(1, g.n + 1)], label
        assert all(g.neighbors(v).tolist() == sorted(G[v]) for v in range(1, g.n + 1)), label
        products = [G.degree[u] * G.degree[v] for u, v in G.edges()]
        for alpha in FLOAT_ALPHAS:
            expected = math.fsum(d ** alpha for d in products)
            assert math.isclose(sx.randic_index(g, alpha), expected, rel_tol=1e-12), (label, alpha)
        for a in EXACT_ALPHAS:
            assert sx.randic_index(g, sx.IndexParams(a, exact=True)) == sum(d ** a for d in products), (label, a)
        assert sx.is_connected(g) == nx.is_connected(G), label


@pytest.mark.parametrize("name", KERNEL_BASES)
def test_edge_triangles_match_networkx(name):
    # the bases on both sides of the set kernel's edge limit, and a sweep-sized one
    g = KERNEL_BASES[name]
    G = nx.Graph(g.iter_edges())
    assert sx.edge_triangles(g).tolist() == [sum(1 for _ in nx.common_neighbors(G, u, v)) for u, v in g.iter_edges()]
    assert sx.triangle_count(g) == sum(nx.triangles(G).values()) // 3
