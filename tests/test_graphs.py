import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sierpindex as sx
from sierpindex.graphs import GraphError, ParseError

import per_edge_reference as reference
from conftest import CORPUS_NAMES, rel_close
from test_oracle_reference import outcome
from test_properties import small_graphs


# -- parsing -------------------------------------------------------------------

def test_parse_triangle():
    g = sx.parse_edge_list("p 3 3\n1 2\n1 3\n2 3\n")
    assert (g.n, g.m) == (3, 3)
    assert list(g.iter_edges()) == [(1, 2), (1, 3), (2, 3)]


def test_parse_single_edge_and_comments():
    g = sx.parse_edge_list("# a pair\np 2 1\n1 2\n")
    assert (g.n, g.m) == (2, 1)


def test_parse_canonicalizes_orientation():
    g = sx.parse_edge_list("p 3 2\n3 1\n2 1\n")
    assert list(g.iter_edges()) == [(1, 2), (1, 3)]


@pytest.mark.parametrize(
    "text, fragment, line_no",
    [
        ("p 3 3\n1 2\n1 3\n2 3\n2 1\n", "edge count mismatch", 5),
        ("p 3 4\n1 2\n1 3\n2 3\n", "edge count mismatch", None),
        ("p 3 2\n1 2\n1 4\n", "out of range", 3),
        ("p 3 2\n1 2\n2 2\n", "self-loop", 3),
        ("p 3 2\n1 2\n2 1\n", "duplicate edge", 3),
        ("p 3 2\n1 2\nx y\n", "integers", 3),
        ("p 3 2\n1 2\n1 2 3\n", "edge line", 3),
        ("1 2\n", "header", 1),
        ("p 1 0\n", "at least 2 vertices", 1),
        ("", "missing header", None),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line_no):
    with pytest.raises(ParseError) as exc:
        sx.parse_edge_list(text)
    assert fragment in str(exc.value)
    assert exc.value.line_no == line_no


@st.composite
def mutated_canonical_texts(draw):
    """A document as render_edge_list writes it with up to three byte edits:
    a byte replaced, dropped or added, from digits, both separators and the
    bytes the bulk path must refuse."""
    text = sx.render_edge_list(draw(small_graphs()))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(list("0123456789 \n") + [" ", "\n", "\t", "\r", "+", "-", "#", "x", "\u0663"]))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        text = text[:i] + (byte if edit != "drop" else "") + text[i + (edit != "add"):]
    return text


@given(mutated_canonical_texts())
@settings(max_examples=500, deadline=None)
def test_bulk_parse_agrees_with_the_line_loop(text):
    # a trailing blank line changes nothing for the line loop but keeps the bulk
    # path out, so the two sides compare the bulk path (where it answers) with the loop
    assert outcome(sx.parse_edge_list, text) == outcome(sx.parse_edge_list, text + "\n\n")
    assert outcome(sx.parse_edge_list, text) == outcome(reference.parse_edge_list, text)


def test_round_trip(corpus):
    for g in corpus.values():
        assert sx.parse_edge_list(sx.render_edge_list(g)) == g


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        sx.Graph(1, [(1, 1)])
    with pytest.raises(GraphError):
        sx.Graph(3, [])
    with pytest.raises(GraphError):
        sx.Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(GraphError):
        sx.Graph(3, [(1, 3), (2, 2)])
    with pytest.raises(GraphError):
        sx.Graph(3, [(0, 1)])


@pytest.mark.parametrize("edges", [
    [1, 2],
    [(1, 2), (2, 3, 1)],  # ragged: numpy cannot stack these rows
    [(1, 2), 2],
    [(1, 2), (2,)],
    [(1, 2), ()],
    [(1, 2, 3), (2, 3, 1)],
])
def test_graph_refuses_anything_but_pairs(edges):
    with pytest.raises(GraphError, match=r"^need a nonempty sequence of vertex pairs$"):
        sx.Graph(3, edges)


# the bound and one past it, and the largest int64; no graph is built at the
# bound (it would need an n-entry degree table)
@pytest.mark.parametrize("n", [3_037_000_499, 2**63 - 1, 2**70])
def test_graph_refuses_more_vertices_than_int64_keys_hold(n):
    assert (3_037_000_498 + 1) ** 2 - 1 < 2**63 <= (n + 1) ** 2 - 1  # the largest arc key, n*(n+1) + n
    with pytest.raises(GraphError, match=rf"^n={n} is more vertices than int64 edge keys hold \(at most 3037000498\)$"):
        sx.Graph(n, [(1, 2)])


@pytest.mark.parametrize("edges", [
    [(1.5, 2)],  # not truncated to {1, 2}
    [(1.0, 2)],
    np.array([[1.9, 2.0]]),
    [("1", "2")],  # not read from the strings
    np.array([["1", "2"]]),
    [(1, 2), (2, 2.5)],
    [(2**63, 2.5)],
])
def test_graph_takes_integer_vertex_ids_only(edges):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sx.Graph(3, edges)


@pytest.mark.parametrize("edges", [
    [(2**63, 1)],  # numpy reads this list as float64
    [(1, 2), (-2**63 - 1, 1)],
    [(2**70, 1)],
    np.array([[2**64 - 1, 1]], dtype=np.uint64),
    np.array([[2**70, 1]], dtype=object),
    [(0, 1)],
    [(1, 4)],
])
def test_graph_refuses_integer_ids_outside_the_vertices_of_any_size(edges):
    with pytest.raises(GraphError, match=r"^vertex id out of range 1\.\.3$"):
        sx.Graph(3, edges)


@pytest.mark.parametrize("edges", [
    np.array([[2, 1], [3, 2]], dtype=np.int32),
    np.array([[2, 1], [3, 2]], dtype=np.uint64),
    np.array([[2, 1], [3, 2]], dtype=object),
    [(np.int16(2), 1), (3, np.uint64(2))],
    [(True, 2), (3, 2)],  # numpy reads a bool id as an int
])
def test_graph_takes_any_integer_ids(edges):
    assert sx.Graph(3, edges) == sx.Graph(3, [(1, 2), (2, 3)])


def test_graph_converts_an_int64_array_without_a_copy(monkeypatch):
    seen = []
    keys = sx.graphs._simple_edge_keys
    monkeypatch.setattr(sx.graphs, "_simple_edge_keys", lambda e, n: seen.append(e) or keys(e, n))
    e = np.array([[1, 2], [2, 3]], dtype=np.int64)
    sx.Graph(3, e)
    assert seen[0] is e


def test_graph_arrays_are_read_only():
    g = sx.complete_graph(3)
    with pytest.raises(ValueError):
        g.edges[0, 0] = 5
    with pytest.raises(ValueError):
        g.neighbors(1)[0] = 5


# ids outside 1..n must be refused, not wrapped round (-1 is vertex n) or read
# past the end of the offsets
OUTSIDE = [-2, -1, 0, 5, 6]


@pytest.mark.parametrize("v", OUTSIDE)
def test_neighbors_refuses_ids_outside_the_graph(v):
    with pytest.raises(GraphError, match=rf"vertex id {v} out of range 1\.\.4"):
        sx.complete_graph(4).neighbors(v)


@pytest.mark.parametrize("v", OUTSIDE)
def test_degree_refuses_ids_outside_the_graph(v):
    with pytest.raises(GraphError, match=rf"vertex id {v} out of range 1\.\.4"):
        sx.complete_graph(4).degree(v)


@pytest.mark.parametrize("v", OUTSIDE)
def test_has_edge_refuses_ids_outside_the_graph(v):
    g = sx.complete_graph(4)
    for u, w in ((v, 1), (1, v)):
        with pytest.raises(GraphError, match=rf"vertex id {v} out of range 1\.\.4"):
            g.has_edge(u, w)


@pytest.mark.parametrize("v", OUTSIDE)
def test_triangles_on_edge_refuses_ids_outside_the_graph(v):
    # GraphError is a ValueError, as triangles_on_edge documents
    g = sx.complete_graph(4)
    for u, w in ((v, 1), (1, v)):
        with pytest.raises(ValueError, match="out of range"):
            sx.triangles_on_edge(g, u, w)
    # the end ids 1 and n are still vertices
    assert sx.triangles_on_edge(g, 1, 4) == 2 and g.degree(4) == 3 and g.has_edge(4, 1)


# -- families ------------------------------------------------------------------

def test_generate_family_dispatch():
    k3 = sx.generate_family("complete", [3])
    assert k3.m == 3 and set(k3.degrees().tolist()[1:]) == {2}
    star = sx.generate_family("star", [3])
    assert star.degree(1) == 3 and star.m == 3
    both = sx.generate_family("complete_bipartite", [2, 3])
    assert (both.n, both.m) == (5, 6)


def test_demo_graph_shape():
    g = sx.generate_family("demo", [])
    assert (g.n, g.m) == (7, 8)
    assert g.degrees().tolist()[1:] == [2, 2, 3, 3, 3, 2, 1]


@pytest.mark.parametrize(
    "family, params",
    [("cycle", [2]), ("path", [1]), ("star", [0]), ("complete", [1]),
     ("complete_bipartite", [0, 2]), ("nosuch", []), ("complete", [])],
)
def test_generate_family_rejects(family, params):
    with pytest.raises(ValueError):
        sx.generate_family(family, params)


# -- triangles -----------------------------------------------------------------

def _triangles_brute(g):
    return sum(
        1
        for a, b, c in combinations(range(1, g.n + 1), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def test_triangles_on_edge_examples():
    assert sx.triangles_on_edge(sx.complete_graph(3), 1, 2) == 1
    c5 = sx.cycle_graph(5)
    assert all(sx.triangles_on_edge(c5, u, v) == 0 for u, v in c5.iter_edges())
    # common neighbor 5 closes the one triangle of the demo graph
    assert sx.triangles_on_edge(sx.demo_graph(), 3, 4) == 1


def test_triangles_on_edge_requires_an_edge():
    with pytest.raises(ValueError):
        sx.triangles_on_edge(sx.cycle_graph(4), 1, 3)


def test_triangle_count_examples():
    assert sx.triangle_count(sx.complete_graph(3)) == 1
    assert sx.triangle_count(sx.demo_graph()) == 1
    assert sx.triangle_count(sx.complete_graph(4)) == 4  # C(4, 3)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_triangle_count_matches_brute_force(corpus, name):
    g = corpus[name]
    assert sx.triangle_count(g) == _triangles_brute(g)
    edge_sum = sum(sx.triangles_on_edge(g, u, v) for u, v in g.iter_edges())
    assert edge_sum == 3 * sx.triangle_count(g)


# -- indices -------------------------------------------------------------------

def test_randic_examples():
    assert math.isclose(sx.randic_index(sx.complete_graph(3), -0.5), 1.5)
    # degree pairs (1,2), (2,2), (2,1)
    assert math.isclose(sx.randic_index(sx.path_graph(4), -0.5), 2 / math.sqrt(2) + 0.5)
    assert sx.randic_index(sx.path_graph(3), sx.IndexParams(1, exact=True)) == 4


def test_index_params_validation():
    with pytest.raises(ValueError):
        sx.IndexParams(0)
    with pytest.raises(ValueError):
        sx.IndexParams(0.5, exact=True)
    with pytest.raises(ValueError):
        sx.IndexParams(-1, exact=True)
    for alpha in (math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400):  # an int past the double range too
        with pytest.raises(ValueError, match="finite"):
            sx.IndexParams(alpha)
        with pytest.raises(ValueError, match="finite"):
            sx.degree_power_sum(sx.complete_graph(3), alpha)
    with pytest.raises(ValueError, match="finite"):
        sx.sierpinski_randic(sx.demo_graph(), 2, 10 ** 400)
    assert sx.IndexParams(2, exact=True).int_alpha == 2
    assert type(sx.IndexParams(2, exact=True).alpha) is float and sx.IndexParams(2) == sx.graphs.as_params(2)


@pytest.mark.parametrize("alpha", ["1", " 1e0 ", b"1", bytearray(b"1"), True, False, np.True_, np.False_])
def test_text_and_bool_exponents_are_refused_by_type(alpha):
    # float() would read each of them as a number
    refusal = rf"^alpha must be a number, not {type(alpha).__name__}$"
    k4 = sx.complete_graph(4)
    for call in (lambda: sx.IndexParams(alpha), lambda: sx.IndexParams(alpha, exact=True),
                 lambda: sx.degree_power_sum(k4, alpha), lambda: sx.randic_index(k4, alpha),
                 lambda: sx.sierpinski_randic(k4, 3, alpha), lambda: sx.polymeric_randic(k4, 3, alpha),
                 lambda: sx.sierpinski_complete(4, 3, alpha), lambda: sx.polymeric_level1_complete(4, alpha),
                 lambda: sx.sierpinski_randic_bounds(sx.cycle_graph(4), 3, alpha)):
        with pytest.raises(TypeError, match=refusal):
            call()


def test_numeric_exponents_of_any_real_type_are_taken():
    want = sx.randic_index(sx.complete_graph(4), 0.5)
    for alpha in (np.float32(0.5), np.float64(0.5), Fraction(1, 2)):
        assert sx.randic_index(sx.complete_graph(4), alpha) == want
    assert sx.IndexParams(np.int64(2), exact=True) == sx.IndexParams(2, exact=True)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_randic_exact_matches_float_at_alpha_one(corpus, name):
    g = corpus[name]
    exact = sx.randic_index(g, sx.IndexParams(1, exact=True))
    assert isinstance(exact, int)
    assert float(exact) == sx.randic_index(g, 1.0)


def test_degree_power_sum_examples():
    assert sx.degree_power_sum(sx.complete_graph(3), 1) == 6.0
    assert sx.degree_power_sum(sx.path_graph(3), 2) == 6.0  # 1 + 4 + 1
    assert sx.degree_power_sum(sx.demo_graph(), 1) == 16.0  # twice m = 8


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_degree_power_sum_alpha_one_is_twice_m(corpus, name):
    g = corpus[name]
    assert sx.degree_power_sum(g, 1) == 2 * g.m


def test_degree_power_sum_rejects_isolated_vertex_for_nonpositive_alpha():
    g = sx.Graph(3, [(1, 2)])  # vertex 3 is isolated
    with pytest.raises(ValueError):
        sx.degree_power_sum(g, -1)
    assert sx.degree_power_sum(g, 1) == 2.0


@pytest.mark.parametrize("index, alpha, text", [
    (sx.randic_index, 400.0, "randic index at alpha=400"),  # 9**400
    (sx.randic_index, 1e6, "randic index at alpha=1e+06"),
    (sx.degree_power_sum, 1e6, "degree_power_sum index at alpha=1e+06"),
    (sx.degree_power_sum, Fraction(10 ** 4), "degree_power_sum index at alpha=10000"),  # an exact 3**10000
])
def test_float_indices_name_their_double_range_refusal(index, alpha, text):
    with pytest.raises(OverflowError) as exc:
        index(sx.complete_graph(4), alpha)
    assert str(exc.value) == f"float {text} exceeds the double range"


# -- degree profile --------------------------------------------------------------

def test_degree_profile_cycle():
    p = sx.degree_profile(sx.cycle_graph(4))
    assert p.is_regular and p.regular_degree == 2
    assert p.is_triangle_free
    assert p.bipartite_semiregular == (2, 2, 2, 2)


def test_degree_profile_star():
    p = sx.degree_profile(sx.star_graph(3))
    assert p.bipartite_semiregular == (1, 3, 3, 1)
    assert not p.is_regular and (p.min_degree, p.max_degree) == (1, 3)


def test_degree_profile_demo():
    p = sx.degree_profile(sx.demo_graph())
    assert (p.min_degree, p.max_degree) == (1, 3)
    assert not p.is_regular and p.regular_degree is None
    assert not p.is_triangle_free
    assert p.bipartite_semiregular is None


def test_degree_profile_odd_cycle_not_bipartite():
    assert sx.degree_profile(sx.cycle_graph(5)).bipartite_semiregular is None


def test_degree_profile_semiregular_consistency(corpus):
    for g in corpus.values():
        semi = sx.degree_profile(g).bipartite_semiregular
        if semi is not None:
            n1, n2, d1, d2 = semi
            assert n1 + n2 == g.n
            assert n1 * d1 == n2 * d2 == g.m


# -- misc ------------------------------------------------------------------------

def test_degree_sum_is_twice_edge_count(corpus):
    for g in corpus.values():
        assert int(g.degrees().sum()) == 2 * g.m


def test_is_connected():
    assert sx.is_connected(sx.path_graph(5))
    assert not sx.is_connected(sx.Graph(4, [(1, 2), (3, 4)]))


def test_neighbors_sorted(corpus):
    for g in corpus.values():
        for v in range(1, g.n + 1):
            nb = g.neighbors(v)
            assert np.all(np.diff(nb) > 0)
