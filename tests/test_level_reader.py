"""The one level reader, ``closedform._read``: every closed-form level
numerator, of a compiled form or a family formula, is read there, with one
``n**(t-2)`` per level read, and a float past the double range is refused from
bit lengths before that power is computed, so a refusal costs the same at any
level."""

import ast
import inspect
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sierpindex as sx
from sierpindex import closedform
from sierpindex.closedform import _read

DEEP = 10 ** 7  # its n**(t-2) would take megabytes
ASTRONOMICAL = 10 ** 400  # its n**(t-2) would not fit in any memory; no float holds t either

#: every public family callable with a level, at ``t``, with an alpha past the
#: double range there, and the name its refusal gives (the first part past the
#: range, for a polymeric formula)
FAMILY = {
    "sierpinski_regular": (lambda t: sx.sierpinski_regular(6, 4, 8, t, -0.5), "sierpinski_regular"),
    "sierpinski_complete": (lambda t: sx.sierpinski_complete(4, t, -0.5), "sierpinski_complete"),
    "sierpinski_cycle": (lambda t: sx.sierpinski_cycle(5, t, -0.5), "sierpinski_cycle"),
    "sierpinski_semiregular": (lambda t: sx.sierpinski_semiregular(2, 3, 3, 2, t, -0.5), "sierpinski_semiregular"),
    "sierpinski_star": (lambda t: sx.sierpinski_star(3, t, -0.5), "sierpinski_star"),
    "sierpinski_path": (lambda t: sx.sierpinski_path(4, t, -0.5), "sierpinski_path"),
    "sierpinski_specialized": (lambda t: sx.sierpinski_specialized("cycle", (5,), t, 2.0), "sierpinski_cycle"),
    "polymeric_regular": (lambda t: sx.polymeric_regular(6, 4, 8, t, -0.5), "polymeric_regular hub_mid"),
    "polymeric_complete": (lambda t: sx.polymeric_complete(4, t, -0.5), "polymeric_complete hub_mid"),
    "polymeric_specialized": (lambda t: sx.polymeric_specialized("regular", (6, 4, 8), t, 0.5),
                              "polymeric_regular hub_mid"),
}


def _peak_of_refusal(call, match: str) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_public_family_formula_with_a_level_is_covered():
    with_level = {name for name in sx.__all__ if inspect.isfunction(fn := getattr(sx, name))
                  and fn.__module__ == sx.specialized.__name__ and "t" in inspect.signature(fn).parameters}
    assert with_level == set(FAMILY)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_a_deep_family_refusal_never_forms_the_power(name):
    call, what = FAMILY[name]
    alpha = {"sierpinski_specialized": "2", "polymeric_specialized": "0.5"}.get(name, "-0.5")
    match = rf"^float {what} index at t={DEEP}, alpha={alpha} exceeds the double range$"
    assert _peak_of_refusal(lambda: call(DEEP), match) < 1 << 20  # 4**(t-2) alone is 2.5 MB


@pytest.mark.parametrize("variant", "SP")
@pytest.mark.parametrize("breakdown", [False, True])
def test_an_astronomical_level_is_refused_by_name(variant, breakdown):
    evaluate = sx.sierpinski_randic if variant == "S" else sx.polymeric_randic
    match = rf"^float {variant} index at t={ASTRONOMICAL}, alpha=-0.5 exceeds the double range$"
    k4 = sx.complete_graph(4)
    assert _peak_of_refusal(lambda: evaluate(k4, ASTRONOMICAL, -0.5, breakdown), match) < 1 << 20
    form = sx.compile_index(k4, -0.5, variant)
    assert _peak_of_refusal(lambda: form.at(ASTRONOMICAL, breakdown), match) < 1 << 20


class _CountingInt(int):
    """An ``n`` that records the exponent of every power taken of it."""

    def __new__(cls, value, powers):
        self = super().__new__(cls, value)
        self.powers = powers
        return self

    def __pow__(self, exponent):
        self.powers.append(exponent)
        return int(self) ** exponent


def test_a_level_read_forms_one_power_and_none_without_a_power_term():
    powers = []
    n, p, exact = _CountingInt(4, powers), sx.IndexParams(-0.5), sx.IndexParams(1, exact=True)
    assert list(_read([(0, 3, -1), (0, 0, 6)], n, ASTRONOMICAL, 3 * ASTRONOMICAL, p, "SS")) == [1.0, 0.0]
    assert list(_read([(0, 0, 8)], n, ASTRONOMICAL, 2, exact, "P")) == [4]  # every level-1 numerator is (0, 0, c)
    assert powers == []
    assert list(_read([(0, 0, 9), (3, 0, 0), (0, 1, 1), (3, 1, 1)], n, 5, 3, exact, "PPPP")) == [3, 64, 2, 66]
    assert powers == [3]


def test_a_polymeric_family_level_forms_one_power():
    # the seven parts of a family formula share one n**(t-2), as a LevelForm's parts do
    powers = []
    profile = (_CountingInt(4, powers), {3: 4}, {(3, 3): (6, 12)})  # K4
    want = sx.polymeric_complete(4, 30, sx.IndexParams(1, exact=True))
    assert closedform._index("K4", 30, sx.IndexParams(1, exact=True), "P", profile) == want
    assert powers == [28]


def _reference(num, n, t, den, p, what):
    a, b, c = num
    try:
        return (a * n ** (t - 2) + b * t + c) / den
    except OverflowError:
        return f"float {what} index at t={t}, alpha={p.alpha:g} exceeds the double range"


@settings(max_examples=500, deadline=None)
@given(a=st.integers(0, 2 ** 1100), b=st.integers(-2 ** 1100, 2 ** 1100), c=st.integers(-2 ** 1100, 2 ** 1100),
       n=st.integers(2, 2 ** 40), t=st.integers(2, 120), e=st.integers(1000, 1060))
def test_the_bit_length_refusal_refuses_only_past_the_double_range(a, b, c, n, t, e):
    # a denominator that puts a*n**(t-2)/den near 2**e, so near the edge of the
    # double range: the refusal before the power must be exactly where the
    # division itself overflows
    p, num, den = sx.IndexParams(-0.5), (a, b, c), max(1, a * n ** (t - 2) >> e)
    try:
        got = _read([num], n, t, den, p, ["S"])[0]
    except OverflowError as exc:
        got = str(exc)
    assert got == _reference(num, n, t, den, p, "S")


def _callers(tree) -> dict[str, set[str]]:
    # per function of the module, the names it calls, and "/" where it divides
    out = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            out[fn.name] = {node.func.id if isinstance(node, ast.Call) else "/" for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)}
    return out


def test_only_the_reader_divides_a_level_numerator():
    # true division, and the exact quotient, happen in _ratio alone; it divides for
    # the reader and for a breakdown's rows, which are not level numerators
    calls = _callers(ast.parse(inspect.getsource(closedform)))
    assert {name for name, called in calls.items() if called & {"/", "_int_ratio"}} == {"_ratio"}
    assert {name for name, called in calls.items() if "_ratio" in called} == {"_read", "_class_terms"}
    assert {name for name, called in calls.items() if "_read" in called} == {"at", "_index"}
