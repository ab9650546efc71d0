"""The one level reader, ``closedform._read``: every closed-form level
numerator, of a compiled form, a family formula or the triangle-free bounds, is
read there, with one ``n**(t-2)`` per level read, which a breakdown reuses, and
a float past the double range is refused from bit lengths before that power is
computed, so a refusal costs the same at any level."""

import ast
import inspect
import tracemalloc
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sierpindex as sx
from conftest import TRIANGLE_FREE, build_corpus
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
    assert _read([(0, 3, -1), (0, 0, 6)], n, ASTRONOMICAL, 3 * ASTRONOMICAL, p, "SS") == ([1.0, 0.0], 0)
    assert _read([(0, 0, 8)], n, ASTRONOMICAL, 2, exact, "P") == ([4], 0)  # every level-1 numerator is (0, 0, c)
    assert powers == []
    assert _read([(0, 0, 9), (3, 0, 0), (0, 1, 1), (3, 1, 1)], n, 5, 3, exact, "PPPP") == ([3, 64, 2, 66], 64)
    assert powers == [3]
    assert _read([(0, 0, 9)], n, 5, 3, exact, "P", power=True) == ([3], 64)  # formed for a breakdown alone
    assert powers == [3, 3]


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
@given(a=st.integers(-2 ** 1100, 2 ** 1100), b=st.integers(-2 ** 1100, 2 ** 1100), c=st.integers(-2 ** 1100, 2 ** 1100),
       n=st.integers(2, 2 ** 40), t=st.integers(2, 120), e=st.integers(1000, 1060))
def test_the_bit_length_refusal_refuses_only_past_the_double_range(a, b, c, n, t, e):
    # a denominator that puts a*n**(t-2)/den near 2**e, so near the edge of the
    # double range: the refusal before the power must be exactly where the
    # division itself overflows
    p, num, den = sx.IndexParams(-0.5), (a, b, c), max(1, abs(a) * n ** (t - 2) >> e)
    try:
        got = _read([num], n, t, den, p, ["S"])[0][0]
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
    assert {name for name, called in calls.items() if "_read" in called} == {"at", "_index", "sierpinski_randic_bounds"}


def _mentions_t(node) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "t" for sub in ast.walk(node))


def test_only_the_reader_raises_n_to_a_level_for_an_index_value():
    # a power whose exponent mentions t, or a repunit at a level, is formed in
    # _read alone, apart from the exact census counts, which are not index values
    tree = ast.parse(inspect.getsource(closedform))
    powers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _mentions_t(node.right)
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("pow", "repunit") and any(map(_mentions_t, node.args))}
    assert powers == {"_read", "edge_class_counts", "vertex_class_counts"}
    assert "float" not in _callers(tree)["sierpinski_randic_bounds"]


@pytest.mark.parametrize("name", TRIANGLE_FREE)
@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1, 2])
def test_deep_bounds_answer_or_refuse_without_the_power(name, alpha):
    # the parent formed n**(t-2) and its repunit first: an 18.7 MB peak on C4 at -0.5
    base = build_corpus()[name]
    tracemalloc.start()
    try:
        try:
            lo, hi = sx.sierpinski_randic_bounds(base, DEEP, alpha)
            assert lo <= hi
        except OverflowError as exc:
            assert str(exc) == f"float S bounds at t={DEEP}, alpha={alpha:g} exceed the double range"
        except ValueError as exc:  # as at any level: the envelope's factors would go negative
            assert str(exc) == "degree spread too large for a valid envelope at this alpha"
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(1, 2), np.float64(2.0)])
def test_a_bounds_refusal_names_any_accepted_exponent(alpha):
    # a Fraction has no :g format in Python 3.11: the message formats the validated float
    with pytest.raises(OverflowError, match=rf"^float S bounds at t=3000, alpha={float(alpha):g} exceed the double"):
        sx.sierpinski_randic_bounds(sx.cycle_graph(6), 3000, alpha)
    assert sx.sierpinski_randic_bounds(sx.cycle_graph(6), 3, alpha) == sx.sierpinski_randic_bounds(
        sx.cycle_graph(6), 3, float(alpha))


class _CountingBase:
    """A base whose ``n`` records its powers; everything else is the base's own."""

    def __init__(self, base, powers):
        self._base, self.n = base, _CountingInt(base.n, powers)

    def __getattr__(self, name):
        return getattr(self._base, name)


@pytest.mark.parametrize("variant", "SP")
def test_a_breakdown_reuses_the_readers_one_power(variant):
    powers, k4, exact = [], sx.complete_graph(4), sx.IndexParams(1, exact=True)
    form = closedform.compile_index(k4, exact, variant)
    want = form.at(30, include_breakdown=True).to_json_dict()
    form.base = _CountingBase(k4, powers)
    assert form.at(30, include_breakdown=True).to_json_dict() == want
    assert powers == [28]


def _counts(report) -> list[int]:
    b = report.breakdown
    return [term.count for group in ((b.classes,) if report.variant == "S" else (b.copies_mid, b.copies_top))
            for row in group for term in row.terms]


@pytest.mark.parametrize("variant", "SP")
def test_a_breakdown_counts_edges_where_every_weight_is_zero(variant):
    # every degree product of K4 raised to -1100 rounds to 0.0, so every level
    # numerator is 0 and no value needs the power; the class counts still do
    zero, some = (closedform.compile_index(sx.complete_graph(4), alpha, variant) for alpha in (-1100.0, -0.5))
    assert zero.total == (0, 0, 0)
    report = zero.at(6, include_breakdown=True)
    assert report.value == 0.0
    assert _counts(report) == _counts(some.at(6, include_breakdown=True)) != [0] * len(_counts(report))
