"""Randomized invariants over arbitrary small graphs."""

import copy
import json
import math
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sierpindex as sx

import per_edge_reference as reference
from conftest import KERNEL_BASES


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = list(combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pool), min_size=1))
    return sx.Graph(n, sorted(edges))


@st.composite
def connected_graphs(draw, max_n=7):
    # a random spanning tree plus extra edges
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for v in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=v - 1))
        edges.add((parent, v))
    pool = list(combinations(range(1, n + 1), 2))
    edges |= draw(st.sets(st.sampled_from(pool), max_size=n))
    return sx.Graph(n, sorted(edges))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_and_round_trip(g):
    assert int(g.degrees().sum()) == 2 * g.m
    assert sx.parse_edge_list(sx.render_edge_list(g)) == g
    assert sx.degree_power_sum(g, 1) == 2 * g.m


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_triangle_edge_sum_divisibility(g):
    edge_sum = sum(sx.triangles_on_edge(g, u, v) for u, v in g.iter_edges())
    assert edge_sum == 3 * sx.triangle_count(g)
    brute = sum(
        1
        for a, b, c in combinations(range(1, g.n + 1), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )
    assert sx.triangle_count(g) == brute
    common = [
        sum(1 for w in range(1, g.n + 1) if g.has_edge(u, w) and g.has_edge(v, w))
        for u, v in g.iter_edges()
    ]
    assert sx.edge_triangles(g).tolist() == common


def both_kernels(g):
    """``edge_triangles`` of ``g`` by the bitmask kernel and by the numpy kernel."""
    with patch.object(sx.graphs, "_BITMASK_KERNEL_EDGES", g.m):
        small = sx.edge_triangles(g)
    with patch.object(sx.graphs, "_BITMASK_KERNEL_EDGES", g.m - 1):
        return small, sx.edge_triangles(g)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_triangle_kernels_agree(g):
    small, wedge = both_kernels(g)
    assert small.dtype == wedge.dtype == np.int64
    assert np.array_equal(small, wedge)


@pytest.mark.parametrize("name", KERNEL_BASES)
def test_edge_triangles_count_common_neighbours_on_kernel_bases(name):
    g = KERNEL_BASES[name]
    adj = np.zeros((g.n + 1, g.n + 1), dtype=np.int64)
    adj[g.edges[:, 0], g.edges[:, 1]] = adj[g.edges[:, 1], g.edges[:, 0]] = 1
    common = (adj @ adj)[g.edges[:, 0], g.edges[:, 1]]
    assert common.any()
    for got in (sx.edge_triangles(g), *both_kernels(g)):
        assert got.dtype == np.int64 and np.array_equal(got, common)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_randic_is_relabeling_invariant(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    relabeled = sx.Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.iter_edges()])
    for alpha in (-0.5, 1.0, 2.0):
        assert math.isclose(
            sx.randic_index(g, alpha), sx.randic_index(relabeled, alpha), rel_tol=1e-12
        )


@given(small_graphs(max_n=6), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_exact_matches_float_for_integer_exponents(g, a):
    exact = sx.randic_index(g, sx.IndexParams(a, exact=True))
    if exact < 2 ** 53:
        assert float(exact) == sx.randic_index(g, float(a))


@given(small_graphs(max_n=8), st.integers(min_value=2, max_value=3))
@settings(max_examples=30, deadline=None)
def test_closed_counters_match_census_on_random_graphs(g, t):
    census_e = {(c.x, c.y): c.as_tuple() for c in sx.census_edge_classes(g, t)}
    for u, v in g.iter_edges():
        assert sx.edge_class_counts(g, u, v, t).as_tuple() == census_e[(u, v)]
    census_v = {c.x: (c.c0, c.c1) for c in sx.census_vertex_classes(g, t)}
    for x in range(1, g.n + 1):
        closed = sx.vertex_class_counts(g, x, t)
        assert (closed.c0, closed.c1) == census_v[x]


@given(small_graphs(max_n=8), st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_counter_conservation_on_random_graphs(g, t):
    total = sum(sx.edge_class_counts(g, u, v, t).total for u, v in g.iter_edges())
    assert total == g.m * sx.repunit(g.n, t)


@given(small_graphs(max_n=7), st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_expansion_closed_form_matches_construction(g, alpha):
    built = sx.sierpinski_graph(g, 2)
    closed = sx.sierpinski_randic(g, 2, alpha).value
    oracle = sx.randic_index(built, alpha)
    assert abs(closed - oracle) <= max(1e-9 * abs(oracle), 1e-12)


@given(connected_graphs(), st.integers(min_value=1, max_value=3),
       st.sampled_from([-0.5, 1.0]))
@settings(max_examples=30, deadline=None)
def test_polymeric_closed_form_matches_construction(g, t, alpha):
    built = sx.polymeric_graph(g, t)
    closed = sx.polymeric_randic(g, t, alpha).value
    oracle = sx.randic_index(built, alpha)
    assert abs(closed - oracle) <= max(1e-9 * abs(oracle), 1e-12)


# Any base, isolated vertices and several components included: the polymeric
# closed form is the index of the built expansion, bit for bit.
@given(small_graphs(), st.integers(min_value=1, max_value=3),
       st.sampled_from([-1.0, -0.5, 0.5, 2.0, sx.IndexParams(1, exact=True)]))
@settings(max_examples=60, deadline=None)
def test_polymeric_equals_construction_on_any_base(g, t, params):
    report = sx.polymeric_randic(g, t, params)
    oracle = sx.randic_index(sx.polymeric_graph(g, t), params)
    assert (report.exact if report.exact is not None else report.value) == oracle


# The class-grouped compile against the edge-by-edge loop it replaced: floats
# must be the same bits and exact values the same integers, not merely close.
DIFFERENTIAL_LEVELS = (2, 3, 7, 40)
DIFFERENTIAL_PARAMS = (-1.0, -0.5, 0.5, 2.0, sx.IndexParams(1, exact=True), sx.IndexParams(2, exact=True))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_sierpinski_matches_per_edge_reference(g):
    for t in DIFFERENTIAL_LEVELS:
        for params in DIFFERENTIAL_PARAMS:
            assert sx.sierpinski_randic(g, t, params) == reference.sierpinski_randic(g, t, params), (t, params)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_polymeric_matches_per_edge_reference(g):
    # level 1 is its own branch of the reference: a hub over the base
    for t in (1,) + DIFFERENTIAL_LEVELS:
        for params in DIFFERENTIAL_PARAMS:
            assert sx.polymeric_randic(g, t, params) == reference.polymeric_randic(g, t, params), (t, params)


# The breakdown holds one row per class (dx, dy, tau); its parts, and its JSON
# expanded back edge by edge, must equal the reference's, which builds and
# renders every edge.
BREAKDOWN_LEVELS = (2, 3, 7)
BREAKDOWN_PARAMS = (-0.5, 2.0, sx.IndexParams(1, exact=True))


def _assert_breakdowns_match(closed, ref, g):
    for t in BREAKDOWN_LEVELS:
        for params in BREAKDOWN_PARAMS:
            got = closed(g, t, params, include_breakdown=True)
            want = ref(g, t, params, include_breakdown=True)
            if got.variant == "P":
                assert got.breakdown.parts == want.breakdown.parts, (t, params)
            got_json = json.dumps(reference.expand(got.to_json_dict(), g), indent=2)
            assert got_json == json.dumps(reference.report_json(want), indent=2), (t, params)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_sierpinski_breakdown_matches_per_edge_reference(g):
    _assert_breakdowns_match(sx.sierpinski_randic, reference.sierpinski_randic, g)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_polymeric_breakdown_matches_per_edge_reference(g):
    _assert_breakdowns_match(sx.polymeric_randic, reference.polymeric_randic, g)


def test_breakdown_json_class_rows_own_their_containers():
    # a path has three classes; the two polymeric groups list the same classes
    p4 = sx.path_graph(4)
    cases = ((sx.sierpinski_randic(p4, 3, -0.5, include_breakdown=True), ("classes",)),
             (sx.polymeric_randic(p4, 3, sx.IndexParams(1, exact=True), include_breakdown=True),
              ("copies_mid", "copies_top")))
    for report, groups in cases:
        breakdown = report.to_json_dict()["breakdown"]
        before = copy.deepcopy(breakdown)
        for group in groups:
            first = breakdown[group][0]
            first["terms"][0]["count"] = "mutated"
            first["terms"][0]["degrees"].append(0)
            first["terms"].append({})
            first["degrees"].append(0)
        for group in groups:
            assert breakdown[group][1:] == before[group][1:]
        assert breakdown["edge_class"] == before["edge_class"]
        assert report.to_json_dict()["breakdown"] == before


# One compiled form serves every level: its reports equal fresh per-call ones.
FORM_LEVELS = (1, 2, 3, 7, 40)


@given(connected_graphs(), st.sampled_from(DIFFERENTIAL_PARAMS))
@settings(max_examples=40, deadline=None)
def test_one_level_form_equals_per_call_reports(g, params):
    for variant, closed in (("S", sx.sierpinski_randic), ("P", sx.polymeric_randic)):
        form = sx.compile_index(g, params, variant)
        for t in FORM_LEVELS:
            assert form.at(t) == closed(g, t, params), (variant, t)
        assert form.at(3, include_breakdown=True) == closed(g, 3, params, include_breakdown=True), variant
