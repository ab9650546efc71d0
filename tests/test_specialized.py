"""Every family formula must agree with the general evaluator on concrete
instances; formula variants recorded in DISPUTED_PRINTS must demonstrably
diverge (that is what justifies the corrected forms)."""

import math

import pytest

import sierpindex as sx
from sierpindex.specialized import DISPUTED_PRINTS

from conftest import ALPHAS, rel_close
from disputed_prints import sierpinski_regular_printed

# (n, degree, triangles, builder) for the regular bases under test
REGULAR = {
    "K2": (2, 1, 0, lambda: sx.complete_graph(2)),
    "K3": (3, 2, 1, lambda: sx.complete_graph(3)),
    "K4": (4, 3, 4, lambda: sx.complete_graph(4)),
    "K5": (5, 4, 10, lambda: sx.complete_graph(5)),
    "C4": (4, 2, 0, lambda: sx.cycle_graph(4)),
    "C5": (5, 2, 0, lambda: sx.cycle_graph(5)),
    "C6": (6, 2, 0, lambda: sx.cycle_graph(6)),
    # octahedron: 4-regular on 6 vertices with 8 triangles
    "K222": (6, 4, 8, lambda: sx.Graph(6, [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
                                           (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)])),
}

SEMIREGULAR = {
    "K1_3": (1, 3, 3, 1, lambda: sx.star_graph(3)),
    "K2_3": (2, 3, 3, 2, lambda: sx.complete_bipartite_graph(2, 3)),
    "C4": (2, 2, 2, 2, lambda: sx.cycle_graph(4)),
    "K2": (1, 1, 1, 1, lambda: sx.complete_graph(2)),
}


@pytest.mark.parametrize("key", sorted(REGULAR))
@pytest.mark.parametrize("t", [2, 3, 4])
def test_regular_formula_matches_general_evaluator(key, t):
    n, d, tau, build = REGULAR[key]
    g = build()
    assert sx.triangle_count(g) == tau
    for alpha in ALPHAS:
        assert rel_close(sx.sierpinski_regular(n, d, tau, t, alpha),
                         sx.sierpinski_randic(g, t, alpha).value), (key, t, alpha)


@pytest.mark.parametrize("key", sorted(REGULAR))
def test_regular_formulas_refuse_impossible_triangle_counts(key):
    # 6 * triangles <= n * d * (d - 1): no edge has more than d - 1 common neighbours
    n, d, _, _ = REGULAR[key]
    for tau in (-1, n * d * (d - 1) // 6 + 1):
        with pytest.raises(ValueError, match=f"{tau} triangles is impossible"):
            sx.sierpinski_regular(n, d, tau, 2, -0.5)
        with pytest.raises(ValueError, match=f"{tau} triangles is impossible"):
            sx.polymeric_regular(n, d, tau, 2, -0.5)


@pytest.mark.parametrize("n, d, tau", [(4, 2, 1), (5, 2, 1), (6, 2, 1), (7, 2, 2), (6, 4, 9), (8, 6, 33)])
def test_regular_formulas_refuse_counts_no_2_or_n_minus_2_regular_base_has(n, d, tau):
    # inside the per-edge bounds, yet no such graph exists: a 2-regular base's
    # triangles are 3-cycles among cycles of 4+ vertices (n - 3*tau is 0 or >= 4),
    # an (n-2)-regular base is K_n minus a perfect matching (6*tau = n(n-2)(n-4))
    assert max(0, n * d * (2 * d - n)) <= 6 * tau <= n * d * (d - 1)
    with pytest.raises(ValueError, match=f"{tau} triangles is impossible"):
        sx.sierpinski_regular(n, d, tau, 2, -0.5)
    with pytest.raises(ValueError, match=f"{tau} triangles is impossible"):
        sx.polymeric_regular(n, d, tau, 2, -0.5)


@pytest.mark.parametrize("n, d, tau, build", [
    (6, 2, 2, lambda: sx.Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])),  # two triangles
    (7, 2, 1, lambda: sx.Graph(7, [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)])),  # K3 + C4
    (8, 6, 32, lambda: sx.Graph(8, [(u, v) for u in range(1, 9) for v in range(u + 1, 9) if v - u != 4])),
])
def test_regular_formulas_accept_counts_a_base_has(n, d, tau, build):
    g = build()
    assert sx.triangle_count(g) == tau
    assert rel_close(sx.sierpinski_regular(n, d, tau, 3, -0.5), sx.sierpinski_randic(g, 3, -0.5).value)


def test_sierpinski_regular_names_its_level_bound():
    with pytest.raises(ValueError, match="t must be >= 2"):
        sx.sierpinski_regular(4, 2, 0, 1, -0.5)


def test_regular_disputed_print_diverges():
    # the recorded witness: mixed-copy coefficient 10 instead of 6
    n, d, tau, build = REGULAR["K3"]
    want = sx.sierpinski_randic(build(), 2, 1.0).value
    printed = sierpinski_regular_printed(n, d, tau, 2, 1.0)
    assert not rel_close(printed, want)
    assert printed - want == pytest.approx((10 - 6) * 6.0)  # 4 extra mixed copies at product 6
    assert "sierpinski_regular" in DISPUTED_PRINTS
    assert "mixed" in DISPUTED_PRINTS["sierpinski_regular"]["term"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_complete_formula(n, t):
    g = sx.complete_graph(n)
    for alpha in ALPHAS:
        assert rel_close(sx.sierpinski_complete(n, t, alpha),
                         sx.sierpinski_randic(g, t, alpha).value)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("t", [2, 3])
def test_cycle_formula(n, t):
    g = sx.cycle_graph(n)
    for alpha in ALPHAS:
        assert rel_close(sx.sierpinski_cycle(n, t, alpha),
                         sx.sierpinski_randic(g, t, alpha).value)


def test_cycle_formula_excludes_triangle():
    with pytest.raises(ValueError):
        sx.sierpinski_cycle(3, 2, -0.5)
    # the 3-cycle is covered by the complete-base formula instead
    assert rel_close(sx.sierpinski_complete(3, 2, -0.5),
                     sx.sierpinski_randic(sx.cycle_graph(3), 2, -0.5).value)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("t", [2, 3])
def test_star_formula(r, t):
    g = sx.star_graph(r)
    for alpha in ALPHAS:
        assert rel_close(sx.sierpinski_star(r, t, alpha),
                         sx.sierpinski_randic(g, t, alpha).value)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_path_formula(n, t):
    g = sx.path_graph(n)
    for alpha in ALPHAS:
        assert rel_close(sx.sierpinski_path(n, t, alpha),
                         sx.sierpinski_randic(g, t, alpha).value)


def test_pair_path_identity_known_value():
    # 16-vertex path at alpha=-1/2: two end edges at product 2, thirteen
    # middle edges at product 4, so sqrt(2) + 13/2
    assert sx.sierpinski_path(2, 4, -0.5) == pytest.approx(2 ** 0.5 + 6.5, rel=1e-12)
    oracle = sx.randic_index(sx.sierpinski_graph(sx.complete_graph(2), 4), -0.5)
    assert sx.sierpinski_path(2, 4, -0.5) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("key", sorted(SEMIREGULAR))
@pytest.mark.parametrize("t", [2, 3])
def test_semiregular_formula(key, t):
    n1, n2, d1, d2, build = SEMIREGULAR[key]
    g = build()
    for alpha in ALPHAS:
        assert rel_close(sx.sierpinski_semiregular(n1, n2, d1, d2, t, alpha),
                         sx.sierpinski_randic(g, t, alpha).value)


def test_star_is_a_semiregular_special_case():
    for t in (2, 3):
        for alpha in ALPHAS:
            assert rel_close(sx.sierpinski_star(3, t, alpha),
                             sx.sierpinski_semiregular(1, 3, 3, 1, t, alpha))


# -- polymeric families ------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(REGULAR))
def test_polymeric_level1_regular(key):
    n, d, _, build = REGULAR[key]
    g = build()
    for alpha in ALPHAS:
        assert rel_close(sx.polymeric_level1_regular(n, d, alpha),
                         sx.polymeric_randic(g, 1, alpha).value)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polymeric_level1_complete(n):
    g = sx.complete_graph(n)
    for alpha in ALPHAS:
        assert rel_close(sx.polymeric_level1_complete(n, alpha),
                         sx.polymeric_randic(g, 1, alpha).value)


def test_polymeric_level1_complete_known_value():
    assert sx.polymeric_level1_complete(3, -0.5) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("key", sorted(SEMIREGULAR))
def test_polymeric_level1_semiregular(key):
    n1, n2, d1, d2, build = SEMIREGULAR[key]
    g = build()
    for alpha in ALPHAS:
        assert rel_close(sx.polymeric_level1_semiregular(n1, n2, d1, d2, alpha),
                         sx.polymeric_randic(g, 1, alpha).value)


@pytest.mark.parametrize("key", sorted(REGULAR))
@pytest.mark.parametrize("t", [2, 3])
def test_polymeric_regular_parts(key, t):
    n, d, tau, build = REGULAR[key]
    g = build()
    for alpha in ALPHAS:
        parts = sx.polymeric_regular(n, d, tau, t, alpha)
        assert rel_close(parts.total, sx.polymeric_randic(g, t, alpha).value), (key, t, alpha)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [2, 3])
def test_polymeric_complete_parts(n, t):
    g = sx.complete_graph(n)
    for alpha in ALPHAS:
        parts = sx.polymeric_complete(n, t, alpha)
        assert rel_close(parts.total, sx.polymeric_randic(g, t, alpha).value)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("t", [2, 3, 5])
def test_regular_and_complete_forms_agree_part_by_part(n, t):
    # a complete base is (n-1)-regular with C(n, 3) triangles
    tau = n * (n - 1) * (n - 2) // 6
    for alpha in ALPHAS:
        general = sx.polymeric_regular(n, n - 1, tau, t, alpha)
        special = sx.polymeric_complete(n, t, alpha)
        for got, want in zip(general, special):
            assert rel_close(got, want), (n, t, alpha)


# -- dispatchers ---------------------------------------------------------------------

def test_sierpinski_dispatcher():
    assert sx.sierpinski_specialized("complete", (3,), 2, -0.5) == sx.sierpinski_complete(3, 2, -0.5)
    assert sx.sierpinski_specialized("regular", (4, 2, 0), 2, 1.0) == sx.sierpinski_regular(4, 2, 0, 2, 1.0)
    with pytest.raises(ValueError):
        sx.sierpinski_specialized("wheel", (4,), 2, -0.5)


def test_polymeric_dispatcher():
    assert sx.polymeric_specialized("complete", (3,), 1, -0.5) == sx.polymeric_level1_complete(3, -0.5)
    assert sx.polymeric_specialized("complete", (3,), 2, -0.5) == sx.polymeric_complete(3, 2, -0.5)
    with pytest.raises(ValueError, match="level-2"):
        sx.polymeric_specialized("semiregular", (1, 3, 3, 1), 2, -0.5)
    with pytest.raises(ValueError, match="level-1"):
        sx.polymeric_specialized("star", (3,), 1, -0.5)


def test_validation():
    with pytest.raises(ValueError):
        sx.sierpinski_regular(5, 3, 0, 2, -0.5)  # odd degree sum
    with pytest.raises(ValueError):
        sx.sierpinski_star(1, 2, -0.5)
    with pytest.raises(ValueError):
        sx.sierpinski_semiregular(2, 3, 3, 1, 2, -0.5)  # part sums differ
    with pytest.raises(ValueError):
        sx.sierpinski_complete(3, 2, 0.0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            sx.sierpinski_complete(3, 2, alpha)
        with pytest.raises(ValueError, match="finite"):
            sx.polymeric_regular(4, 2, 0, 2, alpha)
    with pytest.raises(ValueError):
        sx.polymeric_regular(3, 2, 1, 1, -0.5)  # level 1 has its own formula
