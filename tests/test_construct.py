import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import networkx as nx

import sierpindex as sx
from sierpindex import construct
from sierpindex.construct import VertexBudgetError

from conftest import CORPUS_NAMES


def to_nx(g: sx.Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.iter_edges())
    return G


# -- word encoding ---------------------------------------------------------------

def test_word_codec_round_trip():
    for n, t in ((2, 4), (3, 3), (5, 2)):
        for vid in range(1, n ** t + 1):
            assert sx.word_to_id(sx.id_to_word(vid, n, t), n) == vid


def test_word_codec_rejects_bad_input():
    with pytest.raises(ValueError):
        sx.word_to_id((1, 4), 3)
    with pytest.raises(ValueError):
        sx.id_to_word(9, 2, 3)


def test_constant_words_sit_at_block_corners():
    # xx...x encodes to the id of the x-th copy's own corner
    assert sx.word_to_id((1, 1, 1), 3) == 1
    assert sx.word_to_id((3, 3, 3), 3) == 27


# -- plain expansion ---------------------------------------------------------------

def test_expansion_of_pair_is_a_path():
    k2 = sx.complete_graph(2)
    p4 = sx.sierpinski_graph(k2, 2)
    assert list(p4.iter_edges()) == [(1, 2), (2, 3), (3, 4)]
    for t in (3, 4, 5):
        g = sx.sierpinski_graph(k2, t)
        degs = sorted(g.degrees().tolist()[1:])
        assert g.n == 2 ** t
        assert degs == [1, 1] + [2] * (g.n - 2)
        assert sx.is_connected(g)


def test_level_one_is_the_base(corpus):
    for g in corpus.values():
        assert sx.sierpinski_graph(g, 1) == g


def test_triangle_expansion_counts():
    s = sx.sierpinski_graph(sx.complete_graph(3), 2)
    assert (s.n, s.m) == (9, 12)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("t", [2, 3, 4])
def test_expansion_sizes(corpus, name, t):
    g = corpus[name]
    s = sx.sierpinski_graph(g, t)
    assert s.n == g.n ** t
    assert s.m == g.m * sx.repunit(g.n, t)


@pytest.mark.parametrize("name", ["K3", "P4", "K1_3", "demo7"])
@pytest.mark.parametrize("t", [2, 3])
def test_corner_and_connector_degrees(corpus, name, t):
    g = corpus[name]
    s = sx.sierpinski_graph(g, t)
    # constant words keep their base degree
    for x in range(1, g.n + 1):
        corner = sx.word_to_id((x,) * t, g.n)
        assert s.degree(corner) == g.degree(x)
    # the two endpoints joining copy x to copy y gain exactly one
    for x, y in g.iter_edges():
        u = sx.word_to_id((x,) + (y,) * (t - 1), g.n)
        v = sx.word_to_id((y,) + (x,) * (t - 1), g.n)
        assert s.has_edge(u, v)
        assert s.degree(u) == g.degree(y) + 1
        assert s.degree(v) == g.degree(x) + 1


def test_budget_refusal():
    with pytest.raises(VertexBudgetError) as exc:
        sx.sierpinski_graph(sx.complete_graph(3), 30, budget=10 ** 6)
    assert "vertex budget exceeded" in str(exc.value)
    assert exc.value.requested == 3 ** 30


_REFUSAL = "vertex budget exceeded: construction needs {} vertices (budget 10000000); use the closed form instead"


@pytest.mark.parametrize("build", [sx.sierpinski_graph, sx.polymeric_graph,
                                   sx.census_edge_classes, sx.census_vertex_classes])
def test_a_budget_refusal_past_2000_bits_names_a_power_of_two(build):
    # 4**10000 has 6021 digits, past CPython's int->str limit: the refusal must not print it
    with pytest.raises(VertexBudgetError) as exc:
        build(sx.complete_graph(4), 10_000)
    assert str(exc.value) == _REFUSAL.format("at least 2**20000")
    expected = 5 * sx.repunit(4, 10_000) if build is sx.polymeric_graph else 4 ** 10_000
    assert exc.value.requested == expected


@pytest.mark.parametrize("t, count", [(1999, str(2 ** 1999)), (2000, "at least 2**2000")])
def test_a_budget_refusal_prints_a_count_of_at_most_2000_bits_exactly(t, count):
    # K2 has 2**t vertices at level t: 2000 bits at t = 1999, 2001 at t = 2000
    with pytest.raises(VertexBudgetError) as exc:
        sx.sierpinski_graph(sx.complete_graph(2), t)
    assert str(exc.value) == _REFUSAL.format(count)


def test_a_budget_past_2000_bits_is_named_as_a_power_of_two_too():
    with pytest.raises(VertexBudgetError) as exc:
        sx.sierpinski_graph(sx.complete_graph(2), 5000, budget=2 ** 4500)
    assert "needs at least 2**5000 vertices (budget at least 2**4500)" in str(exc.value)


def test_vertex_labels():
    labels = sx.vertex_labels(sx.complete_graph(3), 2)
    assert labels[0] == "11" and labels[-1] == "33" and len(labels) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 9, 10, 11])
def test_vertex_labels_spell_each_id_as_id_to_word_does(n):
    # letters up to 9 join with no separator, from 10 on with dots
    base, sep = sx.complete_graph(n), "" if n <= 9 else "."

    def words(t):
        return [sep.join(map(str, sx.id_to_word(vid, n, t))) for vid in range(1, n ** t + 1)]

    for t in (1, 2, 3):
        assert sx.vertex_labels(base, t) == words(t)
        hubs_then_words = [[f"hub/{i}/{j}" for j in range(1, n ** (i - 1) + 1)] + [f"word/{i}/{w}" for w in words(i)]
                           for i in range(1, t + 1)]
        assert sx.polymeric_vertex_labels(base, t) == sum(hubs_then_words, [])


# -- censuses -----------------------------------------------------------------------

def test_edge_census_triangle():
    counts = sx.census_edge_classes(sx.complete_graph(3), 2)
    assert [c.as_tuple() for c in counts] == [(0, 1, 1, 2)] * 3


def test_edge_census_path3():
    by_edge = {(c.x, c.y): c.as_tuple() for c in sx.census_edge_classes(sx.path_graph(3), 2)}
    assert by_edge[(1, 2)] == (0, 2, 1, 1)
    assert by_edge[(2, 3)] == (0, 1, 2, 1)


def test_edge_census_totals_at_level_two(corpus):
    # each base edge has n in-copy copies plus one connector
    for g in corpus.values():
        for c in sx.census_edge_classes(g, 2):
            assert c.total == g.n + 1


def test_vertex_census_triangle():
    counts = sx.census_vertex_classes(sx.complete_graph(3), 2)
    assert [(c.c0, c.c1) for c in counts] == [(1, 2)] * 3


def test_vertex_census_pair_level_three():
    counts = sx.census_vertex_classes(sx.complete_graph(2), 3)
    assert [(c.c0, c.c1) for c in counts] == [(1, 3), (1, 3)]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_vertex_census_totals(corpus, name):
    g = corpus[name]
    for t in (2, 3):
        for c in sx.census_vertex_classes(g, t):
            assert c.total == g.n ** (t - 1)


def test_census_guards_survive_optimized_mode():
    # the decode invariants must still refuse a corrupted expansion when
    # python -O strips asserts
    script = """
import sys
import numpy as np
import sierpindex as sx
from sierpindex import construct
if not sys.flags.optimize:
    sys.exit("not running under -O")
base = sx.complete_graph(3)
for edges in ([(0, 8)], [(0, 1)]):  # 0-based rows: a broken tail, a degree below base
    construct._expansion_edge_block = lambda b, t, edges=edges: np.array(edges, dtype=np.int64)
    try:
        construct.census_edge_classes(base, 2)
    except ArithmeticError:
        continue
    sys.exit(f"census accepted the corrupted expansion {edges}")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("base, edges, message", [
    # 0-based rows: "11" ~ "33" has a tail that is not the other end's letter, as "13" ~ "32" has on
    # its second end; "11" ~ "12" leaves vertex "11" below its base degree; "11" ~ "13" copies no P3 edge
    (sx.complete_graph(3), [(0, 8)], "tail of first endpoint is not constant"),
    (sx.complete_graph(3), [(2, 7)], "tail of second endpoint is not constant"),
    (sx.complete_graph(3), [(0, 1)], "endpoint degree outside {d, d+1}"),
    (sx.path_graph(3), [(0, 2)], "decoded pair {1,3} is not a base edge"),
])
def test_each_edge_census_check_refuses_a_corrupted_block_by_name(monkeypatch, base, edges, message):
    monkeypatch.setattr(construct, "_expansion_edge_block", lambda b, t: np.array(edges, dtype=np.int64))
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        sx.census_edge_classes(base, 2)


def test_the_vertex_census_refuses_a_copy_below_its_base_degree(monkeypatch):
    real = construct._expansion_edge_block
    monkeypatch.setattr(construct, "_expansion_edge_block", lambda b, t: real(b, t)[:-1])
    with pytest.raises(ArithmeticError, match=re.escape("copy degree outside {d, d+1}")):
        sx.census_vertex_classes(sx.complete_graph(3), 2)


def test_the_decode_refuses_a_self_copy_edge():
    # inside the census the block's own simplicity check refuses a self-loop first
    with pytest.raises(ArithmeticError, match="self-copy edge found"):
        construct._decode_edge_origin(np.array([0, 4]), np.array([1, 4]), 3)


def _word_edge_ends(wu, wv):
    """The last letters (0-based) of two words ``w a b...b`` / ``w b a...a`` with ``a != b``, or None
    when the two words are not of that shape."""
    i = next((i for i, (a, b) in enumerate(zip(wu, wv)) if a != b), None)
    if i is None or set(wu[i + 1:]) - {wv[i]} or set(wv[i + 1:]) - {wu[i]}:
        return None
    return wu[-1] - 1, wv[-1] - 1


@pytest.mark.parametrize("n, t", [(2, 9), (3, 5), (4, 4), (7, 3)])
def test_the_decode_reads_every_id_pair_as_the_word_definition_does(n, t):
    # random pairs are almost never edges, so the built edges come in too, both ways and one id off
    rng = np.random.default_rng(n * 100 + t)
    block = construct._expansion_edge_block(sx.complete_graph(n), t)
    pairs = np.concatenate([rng.integers(0, n ** t, size=(500, 2)), block, block[:, ::-1],
                            (block + [0, 1]) % n ** t, (block + [1, 0]) % n ** t])
    edges = 0
    for u, v in pairs[pairs[:, 0] != pairs[:, 1]].tolist():
        expected = _word_edge_ends(sx.id_to_word(u + 1, n, t), sx.id_to_word(v + 1, n, t))
        if expected is None:
            with pytest.raises(ArithmeticError):
                construct._decode_edge_origin(np.array([u]), np.array([v]), n)
        else:
            edges += 1
            x, y = construct._decode_edge_origin(np.array([u]), np.array([v]), n)
            assert (x.tolist(), y.tolist()) == ([expected[0]], [expected[1]]), (u, v)
    assert edges >= 2 * block.shape[0]
    # the census decodes the whole block at once, every tail length in one array
    words = [(sx.id_to_word(u + 1, n, t), sx.id_to_word(v + 1, n, t)) for u, v in block.tolist()]
    x, y = construct._decode_edge_origin(block[:, 0], block[:, 1], n)
    assert list(zip(x.tolist(), y.tolist())) == [_word_edge_ends(wu, wv) for wu, wv in words]


@pytest.mark.parametrize("bad_row, message", [(lambda b: (0, 0), "self-loop"), (lambda b: b[0], "duplicate")])
def test_vertex_census_refuses_an_edge_block_that_is_not_simple(monkeypatch, bad_row, message):
    # the census reads its degrees off the edge block, without a Graph, so it
    # checks the block itself
    real = construct._expansion_edge_block

    def corrupted(base, t):
        block = real(base, t)
        block[-1] = bad_row(block)
        return block

    monkeypatch.setattr(construct, "_expansion_edge_block", corrupted)
    with pytest.raises(sx.GraphError, match=message):
        sx.census_vertex_classes(sx.complete_graph(3), 2)


def test_vertex_census_budget_refusal():
    with pytest.raises(VertexBudgetError):
        sx.census_vertex_classes(sx.complete_graph(3), 30, budget=10 ** 6)


def test_census_requires_depth():
    with pytest.raises(ValueError):
        sx.census_edge_classes(sx.complete_graph(3), 1)
    with pytest.raises(ValueError):
        sx.census_vertex_classes(sx.complete_graph(3), 1)


# -- polymeric ------------------------------------------------------------------------

def test_polymeric_level_one_of_triangle_is_k4():
    g = sx.polymeric_graph(sx.complete_graph(3), 1)
    assert (g.n, g.m) == (4, 6)
    assert nx.is_isomorphic(to_nx(g), to_nx(sx.complete_graph(4)))


def test_polymeric_pair_level_two_matches_triangle_expansion():
    p = sx.polymeric_graph(sx.complete_graph(2), 2)
    s = sx.sierpinski_graph(sx.complete_graph(3), 2)
    assert (p.n, p.m) == (s.n, s.m) == (9, 12)
    assert nx.is_isomorphic(to_nx(p), to_nx(s))


def test_polymeric_triangle_level_two_matches_k4_expansion():
    p = sx.polymeric_graph(sx.complete_graph(3), 2)
    s = sx.sierpinski_graph(sx.complete_graph(4), 2)
    assert (p.n, p.m) == (s.n, s.m) == (16, 30)
    assert nx.is_isomorphic(to_nx(p), to_nx(s))


@pytest.mark.parametrize("variant", ["S", "P"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_expansion_sizes(corpus, name, t, variant):
    # the one size function against the built graph and against the sizes counted level by level
    g = corpus[name]
    built = (sx.sierpinski_graph if variant == "S" else sx.polymeric_graph)(g, t)
    n = g.n
    if variant == "S":
        expected = (n ** t, g.m * sx.repunit(n, t))
    else:
        expected_m = sum(g.m * sx.repunit(n, i) + n ** i for i in range(1, t + 1))
        expected_m += sum(n ** i for i in range(1, t))
        expected = ((n + 1) * sx.repunit(n, t), expected_m)
    assert construct._expansion_size(n, g.m, t, variant) == (built.n, built.m) == expected


@pytest.mark.parametrize("n", range(2, 12))
def test_polymeric_total_edges_equals_the_sum_over_levels(n):
    for t in range(1, 40):
        layout = sx.polymeric_layout(n, t)
        for m in (0, 1, 5, 17):
            level_sum = sum(m * sx.repunit(n, i) + 2 * n ** i for i in range(1, t + 1)) - n ** t
            assert layout.total_edges(m) == level_sum


@pytest.mark.parametrize("name", ["demo7", "K4", "C6", "K2_3"])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_polymeric_layout_counts_match_built_graph(corpus, name, t):
    g = corpus[name]
    layout = sx.polymeric_layout(g.n, t)
    built = sx.polymeric_graph(g, t)
    assert (layout.total_vertices, layout.total_edges(g.m)) == (built.n, built.m)


@pytest.mark.parametrize("name", ["K3", "P4", "K1_3"])
def test_polymeric_hub_degrees(corpus, name):
    g, t = corpus[name], 3
    p = sx.polymeric_graph(g, t)
    layout = sx.polymeric_layout(g.n, t)
    assert p.degree(layout.hub_id(1, 1)) == g.n  # apex: no parent link
    for i in range(2, t + 1):
        for j in layout.hub_ids(i):
            assert p.degree(j) == g.n + 1
    # word vertices: expansion degree, plus hub edge, plus parent link below top
    for i in range(1, t + 1):
        s = sx.sierpinski_graph(g, i)
        base = layout.level_offset(i) + g.n ** (i - 1)
        extra = 2 if i < t else 1
        for k in range(1, g.n ** i + 1):
            assert p.degree(base + k) == s.degree(k) + extra


def test_hub_ids_are_the_hubs():
    layout, labels = sx.polymeric_layout(3, 2), sx.polymeric_vertex_labels(sx.complete_graph(3), 2)
    hubs = [v for v, label in enumerate(labels, 1) if label.startswith("hub/")]
    assert [v for i in (1, 2) for v in layout.hub_ids(i)] == hubs
    assert [layout.hub_id(i, j) for i in (1, 2) for j in range(1, 3 ** (i - 1) + 1)] == hubs
    assert layout.hub_id(np.int64(2), np.int64(3)) == hubs[-1]


@pytest.mark.parametrize("method, args, message", [
    ("hub_id", (1, 2), "j must be <= 1"),  # a word vertex
    ("hub_id", (2, 4), "j must be <= 3"),
    ("hub_id", (1, 0), "j must be >= 1"),
    ("hub_id", (3, 1), "i must be <= 2"),  # past the last vertex
    ("hub_id", (0, 1), "i must be >= 1"),
    ("hub_ids", (3,), "i must be <= 2"),
    ("hub_ids", (0,), "i must be >= 1"),
    ("level_offset", (4,), "i must be <= 3"),  # past the end of the last level
    ("level_offset", (0,), "i must be >= 1"),
])
def test_hub_ids_refuse_what_is_not_a_hub(method, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(sx.polymeric_layout(3, 2), method)(*args)


def test_level_offsets_end_at_total_vertices():
    layout = sx.polymeric_layout(3, 2)
    assert [layout.level_offset(np.int64(i)) for i in (1, 2, 3)] == [0, 4, layout.total_vertices]


def test_polymeric_accepts_disconnected_base():
    # two components and an isolated vertex: every word vertex still hangs off its hub
    g = sx.Graph(5, [(1, 2), (3, 4)])
    p = sx.polymeric_graph(g, 2)
    assert p.n == sx.polymeric_layout(5, 2).total_vertices
    assert p.m == sx.polymeric_layout(5, 2).total_edges(g.m)
    assert sx.is_connected(p)


def test_polymeric_budget_refusal():
    with pytest.raises(VertexBudgetError):
        sx.polymeric_graph(sx.complete_graph(3), 20, budget=10 ** 5)


def test_polymeric_labels():
    labels = sx.polymeric_vertex_labels(sx.complete_graph(2), 2)
    assert labels[0] == "hub/1/1"
    assert labels[1] == "word/1/1"
    assert labels[-1] == "word/2/22"
    assert len(labels) == 9
