"""A ``Graph`` derives its adjacency once, on first use: whichever call builds
it, the arrays are the same and read-only; the triangle kernel and the
closed-form compile never build it; and the edge list renders the same bytes
at every id width."""

import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

import sierpindex as sx

import per_edge_reference as reference
from conftest import CORPUS_NAMES, KERNEL_BASES, build_corpus, random_graph
from test_properties import both_kernels, small_graphs


def through_degrees(g):
    """Degree-side reads first, which build no adjacency, then every neighbour list."""
    sx.randic_index(g, -0.5)
    g.degrees()
    sx.render_edge_list(g)
    assert g._csr is None
    return [g.neighbors(v) for v in range(1, g.n + 1)]


def through_neighbors(g):
    return [g.neighbors(v) for v in range(1, g.n + 1)]


def assert_same_adjacency(build):
    a, b = build(), build()
    assert a._csr is None and b._csr is None
    for nbrs_a, nbrs_b in zip(through_degrees(a), through_neighbors(b), strict=True):
        assert np.array_equal(nbrs_a, nbrs_b)
    assert a._indptr.dtype == b._indptr.dtype == a._indices.dtype == b._indices.dtype == np.int64
    assert np.array_equal(a._indptr, b._indptr) and np.array_equal(a._indices, b._indices)
    assert np.array_equal(a.degrees(), b.degrees())
    assert np.array_equal(a.degrees(), np.diff(a._indptr))
    pairs = list(combinations(range(1, min(a.n, 30) + 1), 2)) + [(v, u) for u, v in a.iter_edges()]
    assert [a.has_edge(u, v) for u, v in pairs] == [b.has_edge(u, v) for u, v in pairs]
    assert sx.is_connected(a) == sx.is_connected(b)
    assert sx.degree_profile(a) == sx.degree_profile(b)
    _, indptr, indices = reference.graph_arrays(a.n, a.edges)
    assert np.array_equal(a._indptr, indptr) and np.array_equal(a._indices, indices)
    for arr in (a._indptr, a._indices, a.edges, a.degrees()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[-1] = 0


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_is_the_same_whichever_call_builds_it(g):
    assert_same_adjacency(lambda: sx.Graph(g.n, g.edges))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_adjacency_of_expansions_is_the_same_whichever_call_builds_it(name):
    base = build_corpus()[name]
    for t in (1, 2, 3):
        assert_same_adjacency(lambda: sx.sierpinski_graph(base, t))
        assert_same_adjacency(lambda: sx.polymeric_graph(base, t))


def test_threads_reading_a_fresh_graph_see_one_adjacency():
    want = through_neighbors(sx.polymeric_graph(sx.demo_graph(), 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so first uses overlap
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(10):
                g = sx.polymeric_graph(sx.demo_graph(), 3)
                assert g._csr is None
                for future in [pool.submit(through_neighbors, g) for _ in range(4)]:
                    nbrs = future.result(timeout=60)
                    assert all(np.array_equal(a, b) for a, b in zip(nbrs, want, strict=True))
    finally:
        sys.setswitchinterval(interval)


# -- the CSR-free triangle kernel ------------------------------------------------

def star_joined_to_clique(leaves=60, clique=14):
    """A hub on every vertex, and a clique among the first leaves."""
    hub = [(1, v) for v in range(2, leaves + 2)]
    return sx.Graph(leaves + 1, hub + list(combinations(range(2, clique + 2), 2)))


TRIANGLE_BASES = {
    **KERNEL_BASES,
    "star_and_clique": star_joined_to_clique(),
    "isolated_vertices": sx.Graph(60, random_graph(4, 40, 150).edges),
}


@pytest.mark.parametrize("name", TRIANGLE_BASES)
def test_wedge_kernel_matches_bitmask_kernel_and_networkx(name):
    g = sx.Graph(TRIANGLE_BASES[name].n, TRIANGLE_BASES[name].edges)  # fresh: no adjacency yet
    G = nx.Graph(list(g.iter_edges()))
    common = [len(list(nx.common_neighbors(G, u, v))) for u, v in g.iter_edges()]
    small, wedge = both_kernels(g)
    assert g._csr is None
    assert small.dtype == wedge.dtype == np.int64
    assert small.tolist() == wedge.tolist() == common
    assert [sx.triangles_on_edge(g, u, v) for u, v in g.iter_edges()] == common


def test_closed_form_compile_builds_no_adjacency():
    base = random_graph(3, 400, 2000)  # fresh, the size of the larger sweep base
    assert base.m > sx.graphs._BITMASK_KERNEL_EDGES
    for variant in ("S", "P"):
        sx.compile_index(base, -0.5, variant)
    assert base._csr is None


# -- edge-list bytes at every id width -------------------------------------------

#: ids of every width from 1 to 8 digits, each width's least and greatest where n allows
WIDE_IDS = [1, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 99_999, 100_000, 999_999, 10 ** 6, 9_999_999, 10 ** 7]


@pytest.mark.parametrize("n, edges", [
    (10 ** 7, list(combinations(WIDE_IDS, 2))),
    # each side of a bound of the least unsigned type that holds n
    *((n, [(1, n - 1), (1, n), (n - 1, n)]) for n in (255, 256, 65_535, 65_536)),
])
def test_render_edge_list_at_every_id_width(n, edges):
    g = sx.Graph(n, edges)
    text = sx.render_edge_list(g)
    assert text == reference.render_edge_list(g)
    assert sx.parse_edge_list(text) == g
