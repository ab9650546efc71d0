"""The family formulas of :mod:`sierpindex.specialized` follow the closed
form's float contract: on a grid of bases, exponents and levels each one
equals the general evaluator with ``==`` and raises :class:`OverflowError`
exactly where it does, and no public family call returns ``inf`` or ``nan``."""

import inspect

import pytest

import sierpindex as sx
from sierpindex import specialized as sp

ALPHAS = [-2.0, -1.0, -0.5, -1 / 3, 0.5, 1.0, 1.5, 2.0, 3, 7.5, 40.0, 123.0, 300.0]  # 3: an int alpha
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


def outcome(fn, *args):
    """``fn(*args)``, or :class:`OverflowError` (the class) if it raises that."""
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


def general(form, t: int, parts: bool = False):
    """The general evaluator at level ``t``: the value, or with ``parts`` the
    seven polymeric parts; OverflowError where it raises. Where only a
    polymeric total is past the double range, the parts are still compared,
    each divided as ``LevelForm.at`` divides it."""
    if form is OverflowError:
        return form
    report = outcome(form.at, t, parts)
    if report is not OverflowError:
        return report.breakdown.parts if parts else report.value
    if not parts or form.parts is None:
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


# one point past the double range per public callable of `specialized`
OVERFLOWS = {
    "sierpinski_regular": (6, 2, 0, 2, 323.0),
    "sierpinski_complete": (3, 2, 400.0),
    "sierpinski_cycle": (6, 2, 323.0),
    "sierpinski_semiregular": (2, 3, 3, 2, 441, 2.0),
    "sierpinski_star": (3, 510, 2.0),
    "sierpinski_path": (5, 2, 350.0),
    "polymeric_level1_regular": (6, 2, 250.0),
    "polymeric_level1_complete": (5, 300.0),
    "polymeric_level1_semiregular": (2, 3, 3, 2, 250.0),
    "polymeric_regular": (6, 2, 0, 393, 2.0),
    "polymeric_complete": (4, 510, 2.0),
    "sierpinski_specialized": ("path", (5,), 2, 350.0),
    "polymeric_specialized": ("regular", (6, 2), 1, 250.0),
}


def test_every_family_callable_raises_past_the_double_range():
    public = {name for name, fn in inspect.getmembers(sp, inspect.isfunction)
              if fn.__module__ == sp.__name__ and not name.startswith("_")}
    assert public == set(OVERFLOWS)
    for name, args in OVERFLOWS.items():
        with pytest.raises(OverflowError):
            value = getattr(sp, name)(*args)
            pytest.fail(f"{name}{args} returned {value!r}")
