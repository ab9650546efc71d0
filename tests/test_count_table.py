"""The alpha-free count table: its counts are the explicit expansion's edge
census by end-degree pair, one table weighs any number of exponents, and a
degree class with no edges at a level never makes that level overflow."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings

import sierpindex as sx

from conftest import CORPUS_NAMES, table_counts
from test_properties import connected_graphs


def census(built: sx.Graph) -> Counter:
    """Edges of an explicit graph by sorted end-degree pair."""
    deg, e = built.degrees(), built.edges
    return Counter(map(tuple, map(sorted, zip(deg[e[:, 0]].tolist(), deg[e[:, 1]].tolist()))))


def assert_table_is_the_census(base: sx.Graph) -> None:
    for variant, build in (("S", sx.sierpinski_graph), ("P", sx.polymeric_graph)):
        table = sx.count_table(base, variant)
        for t in (1, 2, 3, 4):
            assert sum(table_counts(table, t), Counter()) == census(build(base, t)), (variant, t)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_count_table_is_the_edge_census(corpus, name):
    assert_table_is_the_census(corpus[name])


@given(connected_graphs(max_n=6))
@settings(max_examples=25, deadline=None)
def test_count_table_is_the_edge_census_on_random_graphs(g):
    assert_table_is_the_census(g)


def test_one_table_weighs_every_exponent_like_a_fresh_compile(corpus):
    def outcome(form, t):
        try:
            return form.at(t, True)
        except OverflowError as exc:
            return str(exc)

    for variant in "SP":
        table = sx.count_table(corpus["demo7"], variant)
        for params in (-1.0, 300.0, -0.5, 0.5, 2.0, sx.IndexParams(2, exact=True)):
            form, fresh = table.weigh(params), sx.compile_index(corpus["demo7"], params, variant)
            for t in (1, 2, 3, 40):
                assert outcome(form, t) == outcome(fresh, t), (variant, params, t)


def test_a_class_without_edges_at_a_level_does_not_overflow_it():
    # the middle levels of K2's polymeric expansion have no edges at t = 2, and
    # their hub and copy classes weigh past the double range at alpha = 300
    k2 = sx.complete_graph(2)
    report = sx.polymeric_randic(k2, 2, 300.0, include_breakdown=True)
    exact = sx.polymeric_randic(k2, 2, sx.IndexParams(300, exact=True)).exact
    assert abs(report.value - exact) <= 1e-15 * exact
    assert report.breakdown.parts == sx.polymeric_complete(2, 2, 300.0)
    json.dumps(report.to_json_dict(), allow_nan=False)
    with pytest.raises(OverflowError, match=r"^float P index at t=3, alpha=300 exceeds the double range$"):
        sx.polymeric_randic(k2, 3, 300.0)


def assert_float_levels_follow_their_exact_twins(g: sx.Graph) -> None:
    """Both variants at t = 1..4 and integer alpha 100..520: a float level
    whose exact twin is below ``2**1023`` answers within 1e-15 of it, and one
    whose twin is at least ``2**1025`` raises; the binade between is left to
    rounding. Every base meets both sides on this grid."""
    seen = Counter()
    for variant in "SP":
        table = sx.count_table(g, variant)
        for alpha in range(100, 521):
            form, twin = table.weigh(float(alpha)), table.weigh(sx.IndexParams(alpha, exact=True))
            for t in (1, 2, 3, 4):
                exact = twin.at(t).exact
                if exact < 2 ** 1023:
                    assert abs(form.at(t).value - exact) <= 1e-15 * exact, (variant, alpha, t)
                    seen["answers"] += 1
                elif exact >= 2 ** 1025:
                    message = rf"^float {variant} index at t={t}, alpha={alpha} exceeds the double range$"
                    with pytest.raises(OverflowError, match=message):
                        form.at(t)
                    seen["raises"] += 1
    assert seen["answers"] and seen["raises"], seen


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_float_level_answers_wherever_its_exact_twin_fits(corpus, name):
    # at P t=2, 253 of these cells raised while every weight past the range was folded in
    assert_float_levels_follow_their_exact_twins(corpus[name])


@given(connected_graphs(max_n=6))
@settings(max_examples=8, deadline=None)
def test_a_float_level_answers_wherever_its_exact_twin_fits_on_random_graphs(g):
    assert_float_levels_follow_their_exact_twins(g)


def test_a_power_past_the_double_range_is_refused_per_level():
    form = sx.compile_index(sx.complete_graph(5), 1e6, "S")
    for t in (1, 2):
        with pytest.raises(OverflowError, match=rf"^float S index at t={t}, alpha=1e\+06 exceeds the double range$"):
            form.at(t)
