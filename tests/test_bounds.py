import math
from fractions import Fraction

import pytest

import sierpindex as sx
from sierpindex.specialized import DISPUTED_PRINTS

from conftest import TRIANGLE_FREE, rel_close
from disputed_prints import bounds_envelope_printed

BOUND_ALPHAS = [-0.5, 0.5, 1.0]


@pytest.mark.parametrize("name", TRIANGLE_FREE)
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("alpha", BOUND_ALPHAS)
def test_sandwich(corpus, name, t, alpha):
    g = corpus[name]
    lo, hi = sx.sierpinski_randic_bounds(g, t, alpha)
    value = sx.sierpinski_randic(g, t, alpha).value
    slack = max(1e-12 * abs(value), 1e-12)
    assert lo <= value + slack
    assert value <= hi + slack


@pytest.mark.parametrize("name", ["K2", "C4", "C5", "C6"])
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("alpha", BOUND_ALPHAS)
def test_equality_for_regular_bases(corpus, name, t, alpha):
    g = corpus[name]
    lo, hi = sx.sierpinski_randic_bounds(g, t, alpha)
    value = sx.sierpinski_randic(g, t, alpha).value
    assert rel_close(lo, value) and rel_close(hi, value)


def test_bounds_of_a_regular_base_are_exact_on_their_rounded_inputs():
    # Both bounds are one float, the envelope evaluated exactly on rounded
    # inputs: for C6 at t=40, alpha=150 it is one unit in the last place above
    # the value and above the exact index, and within that unit of the index.
    c6 = sx.cycle_graph(6)
    lo, hi = sx.sierpinski_randic_bounds(c6, 40, 150.0)
    value = sx.sierpinski_randic(c6, 40, 150.0).value
    exact = sx.sierpinski_randic(c6, 40, sx.IndexParams(150, exact=True)).exact
    assert lo == hi == 6.099653662433072e+173 == math.nextafter(value, math.inf)
    assert Fraction(value) < exact < Fraction(lo)
    assert Fraction(lo) - exact < math.ulp(lo)


@pytest.mark.parametrize("name", ["K1_3", "P3", "P4", "P5", "K2_3"])
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("alpha", BOUND_ALPHAS)
def test_strict_for_irregular_bases(corpus, name, t, alpha):
    g = corpus[name]
    lo, hi = sx.sierpinski_randic_bounds(g, t, alpha)
    value = sx.sierpinski_randic(g, t, alpha).value
    assert value - lo > 1e-6
    assert hi - value > 1e-6


def test_preconditions():
    with pytest.raises(ValueError):
        sx.sierpinski_randic_bounds(sx.complete_graph(3), 2, -0.5)  # has a triangle
    with pytest.raises(ValueError):
        sx.sierpinski_randic_bounds(sx.cycle_graph(4), 1, -0.5)
    with pytest.raises(ValueError):
        sx.sierpinski_randic_bounds(sx.cycle_graph(4), 2, 0.0)
    with pytest.raises(ValueError):
        sx.sierpinski_randic_bounds(sx.Graph(3, [(1, 2)]), 2, -0.5)  # isolated vertex


def test_refusal_when_envelope_is_unprovable():
    # strongly negative exponent with a wide degree spread: the substituted
    # product factors would go negative, so the pair is refused
    with pytest.raises(ValueError, match="degree spread"):
        sx.sierpinski_randic_bounds(sx.star_graph(3), 2, -1.0)
    with pytest.raises(ValueError, match="degree spread"):
        sx.sierpinski_randic_bounds(sx.star_graph(3), 2, 2.0)


def test_disputed_envelope_print_fails_regular_collapse():
    # recorded witness: the variant yields 212 on both sides for the 4-cycle
    # at t=2, alpha=1 while the true value is 132
    c4 = sx.cycle_graph(4)
    value = sx.sierpinski_randic(c4, 2, 1.0).value
    lo_p, hi_p = bounds_envelope_printed(c4, 2, 1.0)
    assert value == pytest.approx(132.0)
    assert lo_p == pytest.approx(212.0) and hi_p == pytest.approx(212.0)
    assert not rel_close(lo_p, value)
    assert "sierpinski_randic_bounds" in DISPUTED_PRINTS
