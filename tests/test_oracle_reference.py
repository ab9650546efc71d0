"""The array oracle and edge-list I/O against the line-by-line and edge-by-edge
code they replaced (``per_edge_reference``): the same graphs, bytes and errors,
bit-identical floats and equal integers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sierpindex as sx

import per_edge_reference as reference
from conftest import CORPUS_NAMES, build_corpus
from test_properties import small_graphs


def outcome(parse, text):
    """A parsed graph as ``(n, edges)``, or an error as type, message and line."""
    try:
        g = parse(text)
    except Exception as exc:  # noqa: BLE001 - any failure must match in kind and wording
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)
    return g.n, g.edges.tolist()


# -- parsing -----------------------------------------------------------------------

HUGE = (2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64)  # past int64, or n + 1 is

vertex_ids = st.one_of(
    st.integers(-1, 7).map(str),
    st.integers(-1, 7).map(str),
    st.sampled_from(["+2", "1_0", "٣", "03", "-0", "x", "2.0", "1_"]),
    st.sampled_from(HUGE).map(str),
)
edge_lines = st.one_of(
    st.tuples(vertex_ids, vertex_ids, st.sampled_from([" ", "\t", "  "])).map(lambda t: t[2].join(t[:2])),
    st.tuples(vertex_ids, vertex_ids).map(" ".join),
    st.tuples(vertex_ids, vertex_ids).map(" ".join),
    st.lists(vertex_ids, min_size=1, max_size=3).map(" ".join),
)
fillers = st.sampled_from(["", "   ", "# comment", "  # indented 1 2", "#"])
counts = st.one_of(st.integers(-1, 7), st.sampled_from(HUGE)).map(str)
headers = st.one_of(
    st.tuples(counts, counts).map(lambda nm: f"p {nm[0]} {nm[1]}"),
    st.tuples(counts, counts).map(lambda nm: f"p {nm[0]} {nm[1]}"),
    st.sampled_from(["p 3", "q 3 3", "p x 3", "p ٣ 2", "p +3 +2", "p 1_0 2", "p 3 2 1"]),
)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(fillers, max_size=2))
    if draw(st.integers(0, 19)):
        lines.append(draw(headers))
    lines += draw(st.lists(st.one_of(edge_lines, edge_lines, edge_lines, fillers), max_size=8))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@st.composite
def edited_renders(draw):
    """A valid document with a few lines replaced, repeated, dropped or added:
    range, self-loop and duplicate errors land in every relative order."""
    g = draw(small_graphs(max_n=6))
    lines = sx.render_edge_list(g).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        u = draw(st.integers(1, g.n))
        edit = draw(st.sampled_from(["repeat", "loop", "range", "drop", "extra", "swap"]))
        if edit == "repeat":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif edit == "loop":
            lines[i] = f"{u} {u}"
        elif edit == "range":
            lines[i] = f"{draw(st.sampled_from([0, g.n + 1, 2 ** 63]))} {u}"
        elif edit == "drop" and len(lines) > 2:
            del lines[i]
        elif edit == "extra":
            lines.append(f"{u} {draw(st.integers(1, g.n))}")
        elif edit == "swap":
            a, b = lines[i].split()
            lines[i] = f"{b} {a}"
    return "\n".join(lines) + "\n"


@given(st.one_of(edge_list_texts(), edited_renders()))
@settings(max_examples=400, deadline=None)
def test_parse_matches_line_reader(text):
    assert outcome(sx.parse_edge_list, text) == outcome(reference.parse_edge_list, text)


@pytest.mark.parametrize(
    "text",
    [
        f"p {2 ** 63 + 5} 2\n{2 ** 63} {2 ** 63 + 1}\n{2 ** 63 + 1} {2 ** 63}\n",  # duplicate past int64
        f"p {2 ** 63 + 5} 2\n{2 ** 63} {2 ** 63}\n1 2\n",  # self-loop past int64
        f"p {2 ** 63 + 5} 1\n{2 ** 63} 3\n",  # valid, but n does not fit the arrays
        f"p {2 ** 64} 1\n1 2\n",
        f"p 5 2\n{2 ** 63} 3\n1 2\n",
        f"p 3 2\n1 2\n{-2 ** 63 - 1} 1\n",
        "p 4 3\r\n# c\r\n\r\n2 1\r\n1 2\r\n",
        "p 3 2\n1 2\n1 3\n2 3\n1 1\n",
        "p 3 3\n1 4\n2 2\n1 2\n",
        "p 3 3\n1 2\n1 x\n2 2\n",
        "p 4 9\n1 2\n2 1\n3 3\n",
        "p 4 2\n1 2\n",
    ],
)
def test_parse_matches_line_reader_examples(text):
    assert outcome(sx.parse_edge_list, text) == outcome(reference.parse_edge_list, text)


# -- the bulk path for canonical documents ------------------------------------------

#: the corpus bases and their S (t = 2, 3) and P (t = 2) expansions, by base name
CORPUS_FAMILIES = {
    name: [base, sx.sierpinski_graph(base, 2), sx.sierpinski_graph(base, 3), sx.polymeric_graph(base, 2)]
    for name, base in build_corpus().items()
}

EDITS = (
    "none", "duplicate", "self-loop", "range", "19 digits", "leading zero",
    "no final newline", "drop", "add", "m off by one", "tab",
)


@st.composite
def edited_canonical_texts(draw):
    """A document as render_edge_list writes it, with at most one edit: the
    result may stay canonical and valid, stay canonical and break a check the
    bulk path must make, or leave the canonical shape."""
    g = draw(st.one_of(small_graphs(), st.sampled_from(sum(CORPUS_FAMILIES.values(), []))))
    lines = sx.render_edge_list(g).splitlines()
    i = draw(st.integers(1, g.m))
    u, v = lines[i].split()
    edit = draw(st.sampled_from(EDITS))
    if edit == "duplicate":
        lines.insert(draw(st.integers(1, len(lines))), lines[i])
    elif edit == "self-loop":
        lines[i] = f"{u} {u}"
    elif edit == "range":
        bad = draw(st.sampled_from([0, g.n + 1]))
        lines[i] = draw(st.sampled_from([f"{bad} {v}", f"{u} {bad}"]))
    elif edit == "19 digits":  # the same id zero-padded, or one out of range
        lines[i] = f"{u} {draw(st.sampled_from([v.zfill(19), str(10 ** 18 + int(v))]))}"
    elif edit == "leading zero":
        lines[i] = f"{draw(st.sampled_from(['0' + u, u.zfill(18)]))} {v}"
    elif edit == "drop":
        del lines[i]
    elif edit == "add":
        lines.insert(draw(st.integers(1, len(lines))), f"{draw(st.integers(1, g.n))} {draw(st.integers(1, g.n))}")
    elif edit == "m off by one":
        lines[0] = f"p {g.n} {g.m + draw(st.sampled_from([-1, 1]))}"
    elif edit == "tab":
        j = draw(st.integers(0, len(lines) - 1))
        lines[j] = lines[j].replace(" ", "\t", 1)
    text = "\n".join(lines) + "\n"
    return text[:-1] if edit == "no final newline" else text


@given(edited_canonical_texts())
@settings(max_examples=600, deadline=None)
def test_bulk_path_matches_line_reader(text):
    assert outcome(sx.parse_edge_list, text) == outcome(reference.parse_edge_list, text)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_comment_line_leaves_the_graph_unchanged(name):
    # a leading comment sends the same document to the line reader
    for g in CORPUS_FAMILIES[name]:
        text = sx.render_edge_list(g)
        assert sx.parse_edge_list(text) == g
        assert sx.parse_edge_list("# c\n" + text) == g


# -- the oracle on built graphs ----------------------------------------------------

PARAMS = (-1.0, -0.5, 0.5, 2.0, sx.IndexParams(1, exact=True), sx.IndexParams(2, exact=True))


def assert_oracle_matches(g):
    canon, indptr, indices = reference.graph_arrays(g.n, g.edges[::-1, ::-1])
    assert np.array_equal(g.edges, canon)
    assert np.array_equal(g._indptr, indptr) and np.array_equal(g._indices, indices)
    assert g._indices.dtype == indices.dtype and g._indptr.dtype == indptr.dtype
    assert sx.render_edge_list(g) == reference.render_edge_list(g)
    for params in PARAMS:
        value = sx.randic_index(g, params)
        assert value == reference.randic_index(g, params) and type(value) is type(reference.randic_index(g, params))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_oracle_matches_reference_on_corpus_expansions(corpus, name):
    base = corpus[name]
    assert_oracle_matches(base)
    for t in (2, 3):
        assert_oracle_matches(sx.sierpinski_graph(base, t))
        if sx.is_connected(base):
            assert_oracle_matches(sx.polymeric_graph(base, t))


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_oracle_matches_reference_on_small_graphs(g):
    assert_oracle_matches(g)
    assert sx.is_connected(g) == reference.is_connected(g)
    assert sx.degree_profile(g).bipartite_semiregular == reference.bipartite_semiregular(g)


def word_blocks(g, n, t):
    """Per level of a polymeric graph, the edges between its word vertices, numbered from 1."""
    layout = sx.polymeric_layout(n, t)
    for i in range(1, t + 1):
        first = layout.level_offset(i) + n ** (i - 1)  # word ids are first + k
        inside = ((g.edges > first) & (g.edges <= first + n ** i)).all(axis=1)
        yield (g.edges[inside] - first).tolist()


def assert_expansions_match_definition(base, t_s, t_p):
    want = [[list(e) for e in reference.expansion_edges(base, t)] for t in range(1, max(t_s, t_p) + 1)]
    for t in range(1, t_s + 1):
        assert sx.sierpinski_graph(base, t).edges.tolist() == want[t - 1], t
    # all levels of one polymeric graph: each one outlives the growth of the levels above it
    assert list(word_blocks(sx.polymeric_graph(base, t_p), base.n, t_p)) == want[:t_p]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_expansions_match_their_definition_on_corpus(corpus, name):
    assert_expansions_match_definition(corpus[name], 4, 3)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_expansions_match_their_definition_on_small_graphs(g):
    assert_expansions_match_definition(g, 3, 3)


def arrays_or_error(build, n, edges):
    try:
        return [a.tolist() for a in build(n, edges)]
    except sx.GraphError as exc:
        return type(exc).__name__, str(exc)


@given(st.integers(2, 6), st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_graph_construction_matches_reference(n, edges):
    def build(n, edges):
        g = sx.Graph(n, edges)
        return g.edges, g._indptr, g._indices

    assert arrays_or_error(build, n, edges) == arrays_or_error(reference.graph_arrays, n, edges)
