"""The family formulas of :mod:`sierpindex.specialized` count what the count
table counts and follow the closed form's float contract: on a grid of bases,
exponents and levels each one equals the general evaluator with ``==`` (its
exact integer in exact mode) and raises :class:`OverflowError` exactly where
it does, and no public family call returns ``inf`` or ``nan``."""

import inspect
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

import sierpindex as sx
from sierpindex import specialized as sp
from sierpindex.closedform import Number, _table

from conftest import table_counts
from family_tables import TABLES

ALPHAS = [-2.0, -1.0, -0.5, -1 / 3, 0.5, 1.0, 1.5, 2.0, 3, 7.5, 40.0, 123.0, 300.0,  # 3: an int alpha
          sx.IndexParams(1, exact=True), sx.IndexParams(2, exact=True)]
LEVELS = [*range(2, 41), 50, 100, 200, 323, 394, 510, 1000, 3000, 10_000]


def _complete(n: int):
    regular = (n, n - 1, n * (n - 1) * (n - 2) // 6)
    return (lambda: sx.complete_graph(n),
            [(sp.sierpinski_complete, (n,)), (sp.sierpinski_regular, regular)],
            [(sp.polymeric_level1_complete, (n,)), (sp.polymeric_level1_regular, regular[:2])],
            [(sp.polymeric_complete, (n,)), (sp.polymeric_regular, regular)])


def _cycle(n: int):
    return (lambda: sx.cycle_graph(n),
            [(sp.sierpinski_cycle, (n,)), (sp.sierpinski_regular, (n, 2, 0))],
            [(sp.polymeric_level1_regular, (n, 2))],
            [(sp.polymeric_regular, (n, 2, 0))])


def _semiregular(n1: int, n2: int, build, *plain):
    profile = (n1, n2, n2, n1)  # complete bipartite: each side's degree is the other side's size
    return (build,
            [(sp.sierpinski_semiregular, profile), *plain],
            [(sp.polymeric_level1_semiregular, profile)],
            [])


# per corpus base with a family: its builder and every formula that applies,
# for S at t >= 2, for P at level 1 and for P at t >= 2, as (function, params)
FAMILIES = {
    **{f"K{n}": _complete(n) for n in (2, 3, 4, 5)},
    **{f"C{n}": _cycle(n) for n in (4, 5, 6)},
    **{f"P{n}": ((lambda n=n: sx.path_graph(n)), [(sp.sierpinski_path, (n,))], [], []) for n in (3, 4, 5)},
    "K1_3": _semiregular(1, 3, lambda: sx.star_graph(3), (sp.sierpinski_star, (3,))),
    "K2_3": _semiregular(2, 3, lambda: sx.complete_bipartite_graph(2, 3)),
}


def test_every_family_formula_is_checked_on_some_base():
    public = {name for name, fn in inspect.getmembers(sp, inspect.isfunction)
              if fn.__module__ == sp.__name__ and not name.startswith("_")}
    checked = {fn.__name__ for _, *groups in FAMILIES.values() for group in groups for fn, _ in group}
    assert checked == public - {"sierpinski_specialized", "polymeric_specialized"}


def outcome(fn, *args):
    """``fn(*args)``, or :class:`OverflowError` (the class) if it raises that."""
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


def general(form, t: int, parts: bool = False):
    """The general evaluator at level ``t``: the value (``.exact`` in exact
    mode), or with ``parts`` the seven polymeric parts; OverflowError where it
    raises. Where only a polymeric total is past the double range, the parts
    are still compared, each divided as ``LevelForm.at`` divides it."""
    if form is OverflowError:
        return form
    report = outcome(form.at, t, parts)
    if report is not OverflowError:
        return report.breakdown.parts if parts else report.exact if form.params.exact else report.value
    if not parts:
        return OverflowError
    lead = form.base.n ** (t - 2)
    return outcome(lambda: sx.PolymericParts(*((a * lead + b * t + c) / form.den for a, b, c in form.parts)))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_formulas_equal_the_general_evaluator_bit_for_bit(name):
    build, plain, level1, polymeric = FAMILIES[name]
    base = build()
    for alpha in ALPHAS:
        s_form, p_form = (outcome(sx.compile_index, base, alpha, variant) for variant in "SP")
        for fn, params in level1:
            assert outcome(fn, *params, alpha) == general(p_form, 1), (fn.__name__, alpha)
        for t in LEVELS:
            for fn, params in plain:
                assert outcome(fn, *params, t, alpha) == general(s_form, t), (fn.__name__, t, alpha)
            for fn, params in polymeric:
                assert outcome(fn, *params, t, alpha) == general(p_form, t, parts=True), (fn.__name__, t, alpha)


def test_exact_family_values_are_integers():
    exact = sx.IndexParams(2, exact=True)
    value = sp.sierpinski_complete(4, 3, exact)
    assert type(value) is int and value == 30912
    assert sp.sierpinski_complete(4, 600, exact) == sx.sierpinski_randic(sx.complete_graph(4), 600, exact).exact
    assert all(type(part) is int for part in sp.polymeric_complete(4, 600, exact))


def terms(table) -> Counter:
    """A family's ``(count, a, b)`` table as edges by sorted end-degree pair,
    the pairs with no edges left out (a negative count is kept)."""
    out = Counter()
    for count, a, b in table:
        out[min(a, b), max(a, b)] += count
    return Counter({pair: count for pair, count in out.items() if count})


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_tables_equal_the_count_table_at_every_level(name):
    """Each family's printed ``(count, a, b)`` tables (:mod:`family_tables`), at
    the parameters of this base, against the count table of the base, part by
    part. Both sides are affine in ``(n**(t-2), t, 1)``, and that 3x3 system at
    t = 2, 3, 4 has determinant ``-(n-1)**2 != 0``: equal at those three
    levels, they are equal at every level ``t >= 2``, so every exponent weighs
    them alike."""
    build, plain, level1, polymeric = FAMILIES[name]
    base = build()
    s_table, p_table = sx.count_table(base, "S"), sx.count_table(base, "P")

    def printed(fn, *args):
        return [terms(part) for part in TABLES[fn.__name__](*args)]

    for fn, params in level1:
        assert printed(fn, *params) == table_counts(p_table, 1), fn.__name__
    for t in (2, 3, 4):
        for fn, params in plain:
            assert printed(fn, *params, t) == table_counts(s_table, t), (fn.__name__, t)
        for fn, params in polymeric:
            assert printed(fn, *params, t) == table_counts(p_table, t), (fn.__name__, t)


@pytest.fixture
def profile_counts(monkeypatch):
    """``counts(fn, *args)``: the public family formula ``fn`` run with its
    triangle and semiregular checks and its evaluator patched out, and, per
    part, the edges by end-degree pair at its level of the count table that the
    arithmetic step makes of the profile ``fn`` writes."""
    monkeypatch.setattr(sp, "_index", lambda what, t, alpha, variant, profile: (t, variant, profile))
    monkeypatch.setattr(sp, "_check_triangles", lambda n, d, triangles: triangles)
    monkeypatch.setattr(sp, "_check_semiregular", lambda *params: params)

    def counts(fn, *args):
        t, variant, profile = fn(*args, None)
        columns, parts, level1 = _table(profile, variant)
        table = SimpleNamespace(base=SimpleNamespace(n=profile[0]), columns=columns, parts=parts, level1=level1)
        return table_counts(table, t)
    return counts


EVEN = range(10, 22, 2)  # n where n*d/2 must be an integer
SEMIREGULAR_GRIDS = {  # d1 < d2 - 1, d1 > d2 + 1, d1 == d2, with n1 + n2 > d1 + 1, d2 + 1
    "d1 < d2": list(product(range(10, 16), range(10, 16), range(1, 5), range(6, 10))),
    "d1 > d2": list(product(range(10, 16), range(10, 16), range(6, 10), range(1, 5))),
    "d1 == d2": [(n1, n2, d, d) for n1, n2, d in product(range(10, 16), range(10, 16), range(1, 5))],
}
#: per public family formula, its parameter regimes: in each, a product grid of
#: more points per parameter than either side's degree in it, on which no two
#: end-degree pairs of one part coincide; a diagonal (d = n - 1, where the hub
#: pairs change order, and d = n - 2) with 9 points, past the degree of at most
#: 7 that ties n and d together; or a case the family handles apart
GRIDS = {
    "sierpinski_complete": {"n": [(n,) for n in range(2, 10)]},
    "sierpinski_cycle": {"n": [(n,) for n in range(4, 12)]},
    "sierpinski_star": {"r": [(r,) for r in range(3, 11)], "r = 2": [(2,)]},
    "sierpinski_path": {"n": [(n,) for n in range(4, 12)], "n = 2": [(2,)], "n = 3": [(3,)]},
    "sierpinski_regular": {
        "d <= n - 3": list(product(EVEN, range(1, 5), range(3))),
        "d = n - 2": [(n, n - 2, tau) for n, tau in product(range(4, 22, 2), range(3))],
        "d = n - 1": [(n, n - 1, tau) for n, tau in product(range(2, 11), range(3))],
    },
    "sierpinski_semiregular": SEMIREGULAR_GRIDS,
    "polymeric_level1_complete": {"n": [(n,) for n in range(2, 10)]},
    "polymeric_level1_regular": {
        "d <= n - 3": list(product(EVEN, range(1, 5))),
        "d = n - 2": [(n, n - 2) for n in range(4, 22, 2)],
        "d = n - 1": [(n, n - 1) for n in range(2, 11)],
    },
    "polymeric_level1_semiregular": SEMIREGULAR_GRIDS,
    "polymeric_complete": {"n": [(n,) for n in range(2, 10)]},
}
GRIDS["polymeric_regular"] = GRIDS["sierpinski_regular"]


def test_every_family_formula_has_a_grid():
    assert set(GRIDS) == set(TABLES) == set(OVERFLOWS) - {"sierpinski_specialized", "polymeric_specialized"}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_family_tables_are_their_profiles_tables_for_every_parameter(name, profile_counts):
    """Each printed table against the count table of the profile its public
    formula writes, part by part, at t = 2, 3 and 4 (level 1 for the level-1
    formulas) over the grids of :data:`GRIDS`. At a fixed level t <= 4 each
    count of either side is a polynomial in the parameters, of degree at most 5
    in ``n`` (``n1``, ``n2``, ``r``), 2 in ``d`` (``d1``, ``d2``) and 1 in
    ``triangles``: a column entry has degree at most 3 (a pair's edges, of
    degree at most 2, times a degree or ``n``, or a triangle sum), and the level
    multiplies it by a polynomial in ``n`` of degree at most ``t - 2``, the
    division by ``(n-1)**2`` being exact; the printed tables read the same. So
    equality on a product grid of 6, 3 and 2 points (or more) per parameter,
    where no two pairs of a part coincide (checked on the printed side), is
    equality for every parameter value in that regime; the affine form in
    ``(n**(t-2), t, 1)`` then carries it to every level."""
    fn, table = getattr(sp, name), TABLES[name]
    for regime, grid in GRIDS[name].items():
        for params in grid:
            for t in [()] if "level1" in name else [(2,), (3,), (4,)]:
                printed = table(*params, *t)
                if "=" not in regime:  # a generic regime: no two pairs of a printed part coincide
                    assert all(len({(min(a, b), max(a, b)) for _, a, b in part}) == len(part) for part in printed)
                want = [terms(part) for part in printed]
                assert profile_counts(fn, *params, *t) == want, (regime, params, t)


def weigh(table, alpha) -> Number:
    """A printed table weighed on its own: ``sum(count * fl((a*b)**alpha))``,
    summed exactly and rounded once (an exact integer for an exact alpha)."""
    if isinstance(alpha, sx.IndexParams):
        return sum(count * (a * b) ** alpha.int_alpha for count, a, b in table)
    return float(sum(count * Fraction((a * b) ** alpha) for count, a, b in table))


BIG = 10 ** 12
# families at n = 10**12, as (formula, parameters without the level and alpha)
LARGE = [
    (sp.sierpinski_complete, (BIG,)), (sp.sierpinski_cycle, (BIG,)), (sp.sierpinski_path, (BIG,)),
    (sp.sierpinski_star, (BIG,)), (sp.sierpinski_regular, (BIG, 10 ** 6, 0)),
    (sp.sierpinski_regular, (BIG, BIG - 1, math.comb(BIG, 3))),
    (sp.sierpinski_semiregular, (BIG, 2 * BIG, 2 * 10 ** 6, 10 ** 6)),
    (sp.polymeric_complete, (BIG,)), (sp.polymeric_regular, (BIG, 10 ** 6, 0)),
    (sp.polymeric_level1_complete, (BIG,)), (sp.polymeric_level1_regular, (BIG, 10 ** 6)),
    (sp.polymeric_level1_semiregular, (BIG, 2 * BIG, 2 * 10 ** 6, 10 ** 6)),
]


def test_families_answer_at_n_10_to_the_12():
    """Every family at ``n = 10**12``, S and P at t = 3 and at level 1, against
    its printed table weighed here: each answers at once, as its profile's
    arithmetic loops over the degrees present, never over a range of degrees."""
    for fn, params in LARGE:
        t = () if "level1" in fn.__name__ else (3,)
        for alpha in (-0.5, 1.5, sx.IndexParams(1, exact=True)):
            start = time.perf_counter()
            got = fn(*params, *t, alpha)
            assert time.perf_counter() - start < 1.0, fn.__name__
            want = [weigh(part, alpha) for part in TABLES[fn.__name__](*params, *t)]
            assert (list(got) if isinstance(got, sx.PolymericParts) else [got]) == want, (fn.__name__, alpha)


# one point past the double range per public callable of `specialized`, and
# the formula its message names
OVERFLOWS = {
    "sierpinski_regular": ((6, 2, 0, 2, 323.0), "sierpinski_regular"),
    "sierpinski_complete": ((3, 2, 400.0), "sierpinski_complete"),
    "sierpinski_cycle": ((6, 2, 323.0), "sierpinski_cycle"),
    "sierpinski_semiregular": ((2, 3, 3, 2, 441, 2.0), "sierpinski_semiregular"),
    "sierpinski_star": ((3, 510, 2.0), "sierpinski_star"),
    "sierpinski_path": ((5, 2, 350.0), "sierpinski_path"),
    "polymeric_level1_regular": ((6, 2, 250.0), "polymeric_level1_regular"),
    "polymeric_level1_complete": ((5, 300.0), "polymeric_level1_complete"),
    "polymeric_level1_semiregular": ((2, 3, 3, 2, 250.0), "polymeric_level1_semiregular"),
    "polymeric_regular": ((6, 2, 0, 393, 2.0), "polymeric_regular hub_top"),
    "polymeric_complete": ((4, 510, 2.0), "polymeric_complete hub_mid"),
    "sierpinski_specialized": (("path", (5,), 2, 350.0), "sierpinski_path"),
    "polymeric_specialized": (("regular", (6, 2), 1, 250.0), "polymeric_level1_regular"),
}


def test_every_family_callable_raises_past_the_double_range():
    public = {name for name, fn in inspect.getmembers(sp, inspect.isfunction)
              if fn.__module__ == sp.__name__ and not name.startswith("_")}
    assert public == set(OVERFLOWS)
    for name, (args, formula) in OVERFLOWS.items():
        t = 1 if "level1" in formula else args[-2]
        message = rf"^float {formula} index at t={t}, alpha={args[-1]:g} exceeds the double range$"
        with pytest.raises(OverflowError, match=message):
            value = getattr(sp, name)(*args)
            pytest.fail(f"{name}{args} returned {value!r}")


def test_a_power_past_the_double_range_names_the_formula():
    with pytest.raises(OverflowError, match=r"^float sierpinski_complete index at t=2, alpha=1e\+06 exceeds"):
        sp.sierpinski_complete(5, 2, 1e6)


def test_a_seven_part_total_past_the_double_range_is_refused_by_name():
    parts = sp.polymeric_complete(4, 510, 0.5)  # every part fits, their sum does not
    with pytest.raises(OverflowError, match=r"^float P parts total exceeds the double range$"):
        parts.total
