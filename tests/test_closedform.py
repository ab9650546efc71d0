import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import sierpindex as sx
from sierpindex.closedform import PolymericParts

import per_edge_reference as reference
from conftest import ALPHAS, CORPUS_NAMES, build_corpus, rel_close
from test_properties import connected_graphs


# -- repunit ---------------------------------------------------------------------

def test_repunit_values():
    assert sx.repunit(3, 2) == 4
    assert sx.repunit(5, 0) == 0
    assert sx.repunit(2, 5) == 31
    assert sx.repunit(10, 3) == 111


def test_repunit_validation():
    with pytest.raises(ValueError):
        sx.repunit(1, 2)
    with pytest.raises(ValueError):
        sx.repunit(3, -1)


# -- closed counters vs explicit census ---------------------------------------------

def test_edge_counts_triangle_level_three():
    c = sx.edge_class_counts(sx.complete_graph(3), 1, 2, 3)
    assert c.as_tuple() == (0, 1, 1, 11)


def test_edge_counts_demo_tail_edge():
    # degrees 2 and 1, no shared triangle
    c = sx.edge_class_counts(sx.demo_graph(), 6, 7, 2)
    assert c.as_tuple() == (4, 1, 2, 1)


def test_edge_counts_orientation_independent():
    g = sx.path_graph(3)
    assert sx.edge_class_counts(g, 2, 1, 2) == sx.edge_class_counts(g, 1, 2, 2)


def test_vertex_counts_examples():
    assert sx.vertex_class_counts(sx.complete_graph(3), 1, 2).c1 == 2
    star = sx.star_graph(3)
    c = sx.vertex_class_counts(star, 1, 2)
    assert (c.c0, c.c1) == (1, 3)


@pytest.mark.parametrize("x", [0, 4])
def test_vertex_counts_refuse_ids_outside_the_base(x):
    # Graph.degree's GraphError is a ValueError and names the id and the range
    with pytest.raises(ValueError, match=rf"vertex id {x} out of range 1\.\.3"):
        sx.vertex_class_counts(sx.complete_graph(3), x, 2)


def test_class_counts_convert_numpy_vertex_ids():
    demo = sx.demo_graph()
    edge = sx.edge_class_counts(demo, np.int64(2), np.int64(1), 3)
    vertex = sx.vertex_class_counts(demo, np.int64(1), 3)
    assert (edge, vertex) == (sx.edge_class_counts(demo, 1, 2, 3), sx.vertex_class_counts(demo, 1, 3))
    for record in (edge, vertex):
        fields = dataclasses.asdict(record)
        assert all(type(v) is int for v in fields.values()), fields
        assert json.loads(json.dumps(fields)) == fields


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("t", [2, 3, 4])
def test_closed_counters_match_census(corpus, name, t):
    g = corpus[name]
    if g.n ** t > 5000:
        pytest.skip("census too large for this cell")
    for census in sx.census_edge_classes(g, t):
        closed = sx.edge_class_counts(g, census.x, census.y, t)
        assert closed.as_tuple() == census.as_tuple()
    for census in sx.census_vertex_classes(g, t):
        closed = sx.vertex_class_counts(g, census.x, t)
        assert (closed.c0, closed.c1) == (census.c0, census.c1)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_counter_conservation(corpus, name):
    g = corpus[name]
    for t in (2, 3, 5, 9):
        total = sum(
            sx.edge_class_counts(g, u, v, t).total for u, v in g.iter_edges()
        )
        assert total == g.m * sx.repunit(g.n, t)
        for x in range(1, g.n + 1):
            assert sx.vertex_class_counts(g, x, t).total == g.n ** (t - 1)


# -- expansion index -------------------------------------------------------------------

def test_known_expansion_values():
    k3, k2 = sx.complete_graph(3), sx.complete_graph(2)
    assert rel_close(sx.sierpinski_randic(k3, 2, -0.5).value, 2 + math.sqrt(6))
    assert sx.sierpinski_randic(k3, 2, sx.IndexParams(1, exact=True)).exact == 90
    assert rel_close(sx.sierpinski_randic(k2, 3, -0.5).value, math.sqrt(2) + 2.5)


def test_level_one_reduces_to_direct_sum(corpus):
    for g in corpus.values():
        rep = sx.sierpinski_randic(g, 1, -0.5)
        assert rep.value == sx.randic_index(g, -0.5)
        assert rep.variant == "S" and rep.t == 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("t", [2, 3])
def test_expansion_matches_construction(corpus, name, t):
    g = corpus[name]
    built = sx.sierpinski_graph(g, t)
    for alpha in ALPHAS:
        closed = sx.sierpinski_randic(g, t, alpha).value
        assert rel_close(closed, sx.randic_index(built, alpha)), (name, t, alpha)


ORACLE_ALPHAS = (-2.0, -1.0, -0.5, -1 / 3, 0.5, 1.5, 2.0, 3.7)


def assert_float_levels_are_the_oracle(g: sx.Graph) -> None:
    """Every float level t = 1..3 of both variants equals ``randic_index`` of
    the built expansion with ``==``: both are the correctly rounded exact sum
    of ``fl((a*b)**alpha)`` over the same edges."""
    for closed, build in ((sx.sierpinski_randic, sx.sierpinski_graph), (sx.polymeric_randic, sx.polymeric_graph)):
        for t in (1, 2, 3):
            built = build(g, t)
            for alpha in ORACLE_ALPHAS:
                assert closed(g, t, alpha).value == sx.randic_index(built, alpha), (closed.__name__, t, alpha)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_float_levels_are_the_oracle_bit_for_bit(corpus, name):
    assert_float_levels_are_the_oracle(corpus[name])


@given(connected_graphs())
@settings(max_examples=25, deadline=None)
def test_float_levels_are_the_oracle_bit_for_bit_on_random_graphs(g):
    assert_float_levels_are_the_oracle(g)


def test_rejects_zero_alpha_and_bad_t():
    g = sx.complete_graph(3)
    with pytest.raises(ValueError):
        sx.sierpinski_randic(g, 2, 0)
    with pytest.raises(ValueError):
        sx.sierpinski_randic(g, 0, 1.0)


def test_breakdown_terms_sum_to_value():
    g = sx.demo_graph()
    rep = sx.sierpinski_randic(g, 3, -0.5, include_breakdown=True)
    weights = rep.breakdown.edge_weights
    assert len(weights) == g.m
    assert rel_close(math.fsum(w.weight for w in weights), rep.value)
    for w in weights:
        assert rel_close(math.fsum(term.value for term in w.terms), w.weight)
        assert all(term.count >= 0 for term in w.terms)


def _random_connected_base(seed: int, n: int, m: int) -> sx.Graph:
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
    while len(edges) < m:
        u, v = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        edges.add((u, v))
    return sx.Graph(n, sorted(edges))


BREAKDOWN_BASES = {**build_corpus(), "random30": _random_connected_base(7, 30, 90)}


@pytest.mark.parametrize("base", BREAKDOWN_BASES.values(), ids=BREAKDOWN_BASES)
def test_breakdown_matches_per_edge_reference(base):
    for t in (2, 3, 9):
        for params in (-0.5, 2.0, sx.IndexParams(1, exact=True)):
            for closed, ref in ((sx.sierpinski_randic, reference.sierpinski_randic),
                                (sx.polymeric_randic, reference.polymeric_randic)):
                got = closed(base, t, params, include_breakdown=True)
                want = ref(base, t, params, include_breakdown=True)
                if got.variant == "P":
                    assert got.breakdown.parts == want.breakdown.parts
                got_json = json.dumps(reference.expand(got.to_json_dict(), base), indent=2)
                assert got_json == json.dumps(reference.report_json(want), indent=2), (got.variant, t, params)


def _run_optimized(script: str) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_compile_guards_survive_optimized_mode():
    # the triangle range, prefactor integrality and triangle divisibility checks
    # must still raise when python -O strips asserts; the range check through
    # both closed forms, fed more triangles per edge than its degrees allow
    _run_optimized("""
import sys
import numpy as np
import sierpindex as sx
from sierpindex import closedform, graphs
from sierpindex.closedform import _int_ratio
if not sys.flags.optimize:
    sys.exit("not running under -O")
graphs.edge_triangles = lambda g: np.array([1])
closedform.edge_triangles = lambda g: np.full(g.m, g.n)
k3 = sx.complete_graph(3)
guarded = (lambda: _int_ratio(1, 2), lambda: sx.triangle_count(sx.complete_graph(2)),
           lambda: sx.sierpinski_randic(k3, 2, -0.5), lambda: sx.polymeric_randic(k3, 2, -0.5))
for call in guarded:
    try:
        call()
    except ArithmeticError:
        continue
    sys.exit("guard did not fire")
""")


def test_overcounted_triangles_are_refused_at_compile_time_under_optimized_mode():
    # one triangle too many per edge of K4 (tau = 3 = min(dx, dy)) keeps every
    # counter nonnegative at t = 2 but not at t = 3; the count step refuses it
    # before any exponent or level is asked for, under python -O too
    _run_optimized("""
import sys
import sierpindex as sx
from sierpindex import closedform, graphs
if not sys.flags.optimize:
    sys.exit("not running under -O")
closedform.edge_triangles = lambda g: graphs.edge_triangles(g) + 1
k4 = sx.complete_graph(4)
for call in (lambda: closedform.compile_index(k4, -0.5, "S"), lambda: closedform.compile_index(k4, 1.0, "P"),
             lambda: sx.sierpinski_randic(k4, 2, sx.IndexParams(1, exact=True)),
             lambda: sx.count_table(k4, "S"), lambda: sx.count_table(k4, "P")):
    try:
        call()
    except ArithmeticError as exc:
        if "3 triangles on an edge with end degrees 3 and 3" not in str(exc):
            sys.exit(f"wrong message: {exc}")
        continue
    sys.exit("guard did not fire")
""")


def test_exact_mode_agrees_with_float_within_double_range():
    g = sx.demo_graph()
    for t in (2, 3, 4):
        rep = sx.sierpinski_randic(g, t, sx.IndexParams(1, exact=True))
        assert rep.value == float(rep.exact)
        assert rel_close(sx.sierpinski_randic(g, t, 1.0).value, float(rep.exact))


def test_exact_mode_survives_deep_levels():
    rep = sx.sierpinski_randic(sx.complete_graph(5), 100, sx.IndexParams(1, exact=True))
    assert rep.exact % 1 == 0 and rep.exact > 10 ** 70
    # value stays a float as long as it is representable
    assert rep.value == float(rep.exact)


def test_exact_value_is_none_beyond_double_range():
    rep = sx.sierpinski_randic(sx.complete_graph(5), 500, sx.IndexParams(2, exact=True))
    assert rep.value is None and rep.exact > 10 ** 308


# t of the benchmark's deep_levels grid: the log-midpoints of 32 equal strata of [2, 1e4]
DEEP_TS = sorted({min(max(int(math.exp(math.log(2) + (k + 0.5) / 32 * math.log(5000))), 2), 10_000) for k in range(32)})


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_float_refuses_exactly_where_the_exact_sum_rounds_past_the_double_range(corpus, name):
    # the bit-length pre-check refuses only values certainly past 2**1024; the
    # division refuses the rest; the Fraction reference rounds the same exact sum
    g = corpus[name]
    for variant, ref in (("S", reference.sierpinski_randic), ("P", reference.polymeric_randic)):
        for alpha in (-1.0, -0.5, 0.5, 2.0):
            form = sx.compile_index(g, alpha, variant)
            for t in DEEP_TS:
                try:
                    want = ref(g, t, alpha).value
                except OverflowError:
                    with pytest.raises(OverflowError, match="exceeds the double range"):
                        form.at(t)
                    continue
                assert form.at(t).value == want, (variant, alpha, t)


def test_level_form_evaluates_without_recompiling(corpus, monkeypatch):
    # nothing is cached on the graph or in a module: every call compiles anew,
    # and a held form answers every level from its one compile
    calls = []
    real = sx.closedform.edge_triangles
    monkeypatch.setattr(sx.closedform, "edge_triangles", lambda g: calls.append(g) or real(g))
    g = corpus["demo7"]
    for _ in range(3):
        sx.sierpinski_randic(g, 5, -0.5)
        sx.polymeric_randic(g, 5, -0.5)
    assert len(calls) == 6
    form = sx.compile_index(g, sx.IndexParams(2, exact=True), "P")
    reports = [form.at(t, include_breakdown=True) for t in range(1, 30)]
    assert len(calls) == 7
    assert [r.exact for r in reports] == [sx.polymeric_randic(g, t, sx.IndexParams(2, exact=True)).exact
                                          for t in range(1, 30)]


@pytest.mark.parametrize("closed", [sx.sierpinski_randic, sx.polymeric_randic])
def test_a_refused_level_is_refused_before_the_compile(closed, monkeypatch):
    calls = []
    real = sx.closedform.edge_triangles
    monkeypatch.setattr(sx.closedform, "edge_triangles", lambda g: calls.append(g) or real(g))
    g = sx.demo_graph()
    with pytest.raises(ValueError, match="t must be >= 1"):
        closed(g, 0, -0.5)
    with pytest.raises(TypeError):
        closed(g, 2.0, -0.5)
    assert calls == []
    closed(g, np.int64(1), -0.5)
    assert len(calls) == 1


def test_compile_index_validates_its_arguments():
    k3 = sx.complete_graph(3)
    with pytest.raises(ValueError, match="variant must be 'S' or 'P'"):
        sx.compile_index(k3, -0.5, "Q")
    with pytest.raises(ValueError, match="t must be >= 1"):
        sx.compile_index(k3, -0.5, "S").at(0)


@pytest.mark.parametrize("closed", [sx.sierpinski_randic, sx.polymeric_randic])
@pytest.mark.parametrize("t, alpha", [(2, 300.0), (150, 150.0)])
def test_float_overflow_is_refused_not_returned(closed, t, alpha):
    # (2, 300): a zero counter times an inf power product would be nan;
    # (150, 150): the float total would be inf
    k5 = sx.complete_graph(5)
    with pytest.raises(OverflowError, match="exceeds the double range"):
        closed(k5, t, alpha)
    # the true values are past 1e308, as exact mode shows
    assert closed(k5, t, sx.IndexParams(int(alpha), exact=True)).exact > 10 ** 308


@pytest.mark.parametrize("closed, ref", [(sx.sierpinski_randic, reference.sierpinski_randic),
                                         (sx.polymeric_randic, reference.polymeric_randic)])
def test_a_breakdown_answers_wherever_the_value_does(closed, ref):
    # a count past the double range whose term is not: each term and class
    # weight is its exact value rounded once, as the value is
    k2 = sx.complete_graph(2)
    got = closed(k2, 1100, -100.0, include_breakdown=True)
    assert got.value == closed(k2, 1100, -100.0).value
    classes = got.breakdown.classes if got.variant == "S" else got.breakdown.copies_top
    assert max(u.count for c in classes for u in c.terms) > 2 ** 1024
    want = ref(k2, 1100, -100.0, include_breakdown=True)
    assert json.dumps(reference.expand(got.to_json_dict(), k2)) == json.dumps(reference.report_json(want))


def test_bounds_of_a_regular_base_answer_where_its_value_does():
    # the level counts are past the double range, the bounds are not
    c6 = sx.cycle_graph(6)
    value = sx.sierpinski_randic(c6, 400, -100.0).value
    assert sx.sierpinski_randic_bounds(c6, 400, -100.0) == (value, value)
    # evaluated in floats, both bounds of these cancel to 0.0
    for g in (sx.complete_graph(2), sx.cycle_graph(4)):
        value = sx.sierpinski_randic(g, 2, -100.0).value
        assert all(math.isclose(b, value, rel_tol=1e-9) for b in sx.sierpinski_randic_bounds(g, 2, -100.0))


@pytest.mark.parametrize("t, alpha", [(394, 2.0), (2, 323.0), (3000, 2.0)])
def test_bounds_past_the_double_range_are_refused_not_returned(t, alpha):
    # (394, 2): the level counts times the base sums reach inf; (2, 323): the
    # squared degree increment does; (3000, 2): a level count is past a float
    with pytest.raises(OverflowError, match=f"float S bounds at t={t}, alpha={alpha:g} exceed the double range"):
        sx.sierpinski_randic_bounds(sx.cycle_graph(6), t, alpha)


# -- polymeric index --------------------------------------------------------------------

def test_level_one_polymeric_values():
    assert rel_close(sx.polymeric_randic(sx.complete_graph(3), 1, -0.5).value, 2.0)
    assert sx.polymeric_randic(sx.complete_graph(2), 1, sx.IndexParams(1, exact=True)).exact == 12
    # hub over a 4-cycle: four spokes at 4*3 plus four rim edges at 3*3
    want = 2 / math.sqrt(3) + 4 / 3
    assert rel_close(sx.polymeric_randic(sx.cycle_graph(4), 1, -0.5).value, want)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("t", [1, 2, 3])
def test_polymeric_matches_construction(corpus, name, t):
    g = corpus[name]
    built = sx.polymeric_graph(g, t)
    for alpha in ALPHAS:
        closed = sx.polymeric_randic(g, t, alpha).value
        assert rel_close(closed, sx.randic_index(built, alpha)), (name, t, alpha)


def test_polymeric_known_value():
    assert rel_close(sx.polymeric_randic(sx.complete_graph(3), 2, -0.5).value, 2 * math.sqrt(3) + 4.5)


def test_polymeric_identities_across_paths():
    k2, k3, k4 = sx.complete_graph(2), sx.complete_graph(3), sx.complete_graph(4)
    for alpha in ALPHAS:
        assert rel_close(sx.polymeric_randic(k2, 2, alpha).value, sx.sierpinski_randic(k3, 2, alpha).value)
        assert rel_close(sx.polymeric_randic(k3, 2, alpha).value, sx.sierpinski_randic(k4, 2, alpha).value)


def test_polymeric_middle_groups_vanish_at_level_two(corpus):
    for g in corpus.values():
        rep = sx.polymeric_randic(g, 2, -0.5, include_breakdown=True)
        assert rep.breakdown.parts.hub_mid == 0
        assert rep.breakdown.parts.copies_mid == 0


def test_polymeric_breakdown_sums():
    g = sx.demo_graph()
    rep = sx.polymeric_randic(g, 3, 0.5, include_breakdown=True)
    parts = rep.breakdown.parts
    assert rel_close(parts.total, rep.value)
    bd = rep.breakdown
    assert rel_close(math.fsum(bd.copies_top[i].weight for i in bd.edge_class), parts.copies_top)
    assert rel_close(math.fsum(bd.copies_mid[i].weight for i in bd.edge_class), parts.copies_mid)
    assert isinstance(parts, PolymericParts)


def test_polymeric_accepts_disconnected_base():
    # two components and an isolated vertex: the closed form is the built expansion's index
    g = sx.Graph(5, [(1, 2), (3, 4)])
    for t in (1, 2, 3):
        built = sx.polymeric_graph(g, t)
        assert sx.polymeric_randic(g, t, -0.5).value == sx.randic_index(built, -0.5)
        assert sx.polymeric_randic(g, t, sx.IndexParams(2, exact=True)).exact == sx.randic_index(
            built, sx.IndexParams(2, exact=True))


def test_polymeric_exact_mode(corpus):
    for name in ("K3", "P4", "K1_3"):
        g = corpus[name]
        for t in (2, 3):
            rep = sx.polymeric_randic(g, t, sx.IndexParams(1, exact=True))
            built = sx.polymeric_graph(g, t)
            assert rep.exact == sx.randic_index(built, sx.IndexParams(1, exact=True))


def test_exact_polymeric_parts_total_is_the_exact_value():
    exact = sx.IndexParams(2, exact=True)
    rep = sx.polymeric_randic(sx.demo_graph(), 3, exact, include_breakdown=True)
    assert type(rep.breakdown.parts.total) is int and rep.breakdown.parts.total == rep.exact
    # past the double range the exact parts still add up to the exact value
    deep = sx.polymeric_complete(4, 600, exact).total
    assert deep > 10 ** 308 and deep == sx.polymeric_randic(sx.complete_graph(4), 600, exact).exact


# -- scaling behavior ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["K3", "P4", "demo7"])
@pytest.mark.parametrize("alpha", [-0.5, 1.0])
def test_normalized_value_converges_with_depth(corpus, name, alpha):
    g = corpus[name]
    ratios = [sx.sierpinski_randic(g, t, alpha).value / g.n ** t for t in range(2, 21)]
    gaps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    # successive gaps shrink geometrically until they reach rounding noise
    noise = 1e-12 * max(1.0, abs(ratios[-1]))
    assert all(later <= earlier or later <= noise for earlier, later in zip(gaps, gaps[1:]))
    # the tail is geometric in 1/n, so by t = 20 it has shrunk by many orders
    assert gaps[-1] <= max(1e-6 * abs(ratios[-1]), 1e-12)
    assert gaps[-1] <= 1e-5 * max(gaps[0], 1e-12)


# -- report serialization ---------------------------------------------------------------

def test_report_json_shape():
    g = sx.complete_graph(3)
    doc = sx.sierpinski_randic(g, 2, -0.5, include_breakdown=True).to_json_dict()
    assert list(doc) == ["variant", "t", "alpha", "value", "breakdown"]
    assert doc["variant"] == "S" and doc["t"] == 2
    # all three edges of a triangle are in the one class (2, 2, 1)
    assert list(doc["breakdown"]) == ["classes", "edge_class"]
    (row,) = doc["breakdown"]["classes"]
    assert list(row) == ["degrees", "triangles", "edges", "terms", "weight"]
    assert (row["degrees"], row["triangles"], row["edges"]) == ([2, 2], 1, 3)
    assert doc["breakdown"]["edge_class"] == [0, 0, 0]
    term = row["terms"][0]
    assert list(term) == ["count", "degrees", "value"]
    assert isinstance(term["count"], str)

    doc = sx.polymeric_randic(g, 2, -0.5, include_breakdown=True).to_json_dict()
    assert list(doc["breakdown"]) == ["parts", "copies_mid", "copies_top", "edge_class"]

    exact_doc = sx.sierpinski_randic(g, 2, sx.IndexParams(1, exact=True)).to_json_dict()
    assert exact_doc["exact"] == "90"


def test_breakdown_classes_are_sorted():
    # the edge order of this base is not its class order
    g = _random_connected_base(7, 30, 90)
    for closed, group in ((sx.sierpinski_randic, "classes"), (sx.polymeric_randic, "copies_top")):
        bd = closed(g, 3, -0.5, include_breakdown=True).to_json_dict()["breakdown"]
        keys = [(*row["degrees"], row["triangles"]) for row in bd[group]]
        assert keys == sorted(set(keys))
        assert sorted(set(bd["edge_class"])) == list(range(len(keys)))
        assert bd["edge_class"] != sorted(bd["edge_class"])
        deg, tau = g.degrees(), sx.edge_triangles(g)
        assert [keys[i] for i in bd["edge_class"]] == [(deg[x], deg[y], k) for (x, y), k in zip(g.iter_edges(), tau)]
        assert [row["edges"] for row in bd[group]] == [bd["edge_class"].count(i) for i in range(len(keys))]


def test_report_json_is_deterministic():
    g = sx.demo_graph()
    docs = [
        json.dumps(sx.polymeric_randic(g, 3, -0.5, include_breakdown=True).to_json_dict())
        for _ in range(2)
    ]
    assert docs[0] == docs[1]
