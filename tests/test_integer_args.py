"""Levels and sizes are integers: a numpy integer gives exactly what the
Python int gives, any other type raises TypeError, and a value below the
least one allowed raises ValueError naming the argument."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

import sierpindex as sx

K3, C5, DEMO = sx.complete_graph(3), sx.cycle_graph(5), sx.demo_graph()
EXACT = sx.IndexParams(1, exact=True)
P_FORM = sx.compile_index(DEMO, -0.5, "P")

#: per public callable with a level ``t``: the call with every other argument
#: fixed, the least level it accepts, and levels to compare (the deepest ones
#: pass 2**63 somewhere inside, where a numpy integer would wrap)
LEVELS = {
    "census_edge_classes": (lambda t: sx.census_edge_classes(K3, t), 2, (2, 3)),
    "census_vertex_classes": (lambda t: sx.census_vertex_classes(K3, t), 2, (2, 3)),
    "edge_class_counts": (lambda t: sx.edge_class_counts(DEMO, 1, 2, t), 2, (2, 30)),
    "id_to_word": (lambda t: sx.id_to_word(1, 3, t), 0, (0, 3, 40)),
    "polymeric_complete": (lambda t: sx.polymeric_complete(4, t, -0.5), 2, (2, 40)),
    "polymeric_graph": (lambda t: sx.polymeric_graph(K3, t), 1, (1, 3)),
    "polymeric_layout": (lambda t: sx.polymeric_layout(3, t), 1, (1, 40)),
    "PolymericLayout": (lambda t: (layout := sx.PolymericLayout(3, t), layout.total_edges(2)), 1, (1, 40)),
    "polymeric_randic": (lambda t: sx.polymeric_randic(DEMO, t, EXACT, True), 1, (1, 2, 30)),
    "polymeric_regular": (lambda t: sx.polymeric_regular(4, 2, 0, t, -0.5), 2, (2, 40)),
    "polymeric_specialized": (lambda t: sx.polymeric_specialized("complete", (4,), t, -0.5), 1, (1, 2, 40)),
    "polymeric_vertex_labels": (lambda t: sx.polymeric_vertex_labels(K3, t), 1, (1, 2)),
    "repunit": (lambda t: sx.repunit(7, t), 0, (0, 1, 30)),
    "sierpinski_complete": (lambda t: sx.sierpinski_complete(4, t, -0.5), 2, (2, 40)),
    "sierpinski_cycle": (lambda t: sx.sierpinski_cycle(5, t, -0.5), 2, (2, 30)),
    "sierpinski_graph": (lambda t: sx.sierpinski_graph(K3, t), 1, (1, 3)),
    "sierpinski_path": (lambda t: sx.sierpinski_path(4, t, -0.5), 2, (2, 40)),
    "sierpinski_randic": (lambda t: sx.sierpinski_randic(DEMO, t, EXACT, True), 1, (1, 2, 30)),
    "sierpinski_randic_bounds": (lambda t: sx.sierpinski_randic_bounds(C5, t, -0.5), 2, (2, 30)),
    "sierpinski_regular": (lambda t: sx.sierpinski_regular(6, 4, 8, t, -0.5), 2, (2, 30)),
    "sierpinski_semiregular": (lambda t: sx.sierpinski_semiregular(2, 3, 3, 2, t, -0.5), 2, (2, 30)),
    "sierpinski_specialized": (lambda t: sx.sierpinski_specialized("star", (3,), t, -0.5), 2, (2, 40)),
    "sierpinski_star": (lambda t: sx.sierpinski_star(3, t, -0.5), 2, (2, 40)),
    "vertex_class_counts": (lambda t: sx.vertex_class_counts(DEMO, 3, t), 2, (2, 30)),
    "vertex_labels": (lambda t: sx.vertex_labels(K3, t), 1, (1, 3)),
    "LevelForm.at": (lambda t: P_FORM.at(t, True), 1, (1, 2, 30)),
}


def _public_callables_with_a_level() -> set[str]:
    # a report only records the level it was computed at
    return {
        name for name in sx.__all__
        if (inspect.isfunction(fn := getattr(sx, name)) or dataclasses.is_dataclass(fn)) and name != "IndexReport"
        and "t" in inspect.signature(fn).parameters
    }


def _fields(obj):
    # json.dumps fallback: reports as the CLI writes them, other records field by field
    if isinstance(obj, sx.IndexReport):
        return obj.to_json_dict()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, sx.Graph):
        return {"n": obj.n, "m": obj.m}
    if isinstance(obj, range):
        return [obj.start, obj.stop]
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def _same_as_python_ints(got, want) -> None:
    # numpy scalars print as np.int64(...) / np.float64(...), so equal reprs
    # mean equal values of the same Python types
    assert got == want
    assert repr(got) == repr(want)
    json.dumps(got, default=_fields)


def test_every_public_level_argument_is_covered():
    assert _public_callables_with_a_level() == set(LEVELS) - {"LevelForm.at"}


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_numpy_levels_give_python_results(name):
    call, _, levels = LEVELS[name]
    for t in levels:
        got = call(np.int64(t))
        _same_as_python_ints(got, call(t))
        if isinstance(got, sx.IndexReport):
            assert type(got.t) is int


@pytest.mark.parametrize("name", sorted(LEVELS))
@pytest.mark.parametrize("bad", [2.0, 2.5, "3", None])
def test_non_integer_levels_raise_type_error(name, bad):
    with pytest.raises(TypeError):
        LEVELS[name][0](bad)


@pytest.mark.parametrize("name", sorted(LEVELS))
@pytest.mark.parametrize("bad", [True, False])
def test_bool_levels_raise_type_error(name, bad):
    with pytest.raises(TypeError, match="^t must be an integer, not a bool$"):
        LEVELS[name][0](bad)


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_levels_below_the_least_raise_value_error(name):
    call, least, _ = LEVELS[name]
    with pytest.raises(ValueError, match=rf"^t must be >= {least}$"):
        call(least - 1)


#: calls whose integer arguments are sizes that feed a power
SIZES = [
    (sx.Graph, (3, [(1, 2), (2, 3)])),
    (sx.repunit, (7, 30)),
    (sx.polymeric_layout, (7, 30)),
    (sx.polymeric_layout(7, 30).hub_ids, (30,)),
    (sx.polymeric_layout(7, 30).total_edges, (3,)),
    (sx.word_to_id, ((7,) * 30, 7)),
    (sx.id_to_word, (7 ** 20, 7, 30)),
    (sx.sierpinski_regular, (6, 4, 8, 30, -0.5)),
    (sx.sierpinski_complete, (5, 30, -0.5)),
    (sx.sierpinski_cycle, (5, 30, -0.5)),
    (sx.sierpinski_semiregular, (2, 3, 3, 2, 30, -0.5)),
    (sx.sierpinski_star, (6, 30, -0.5)),
    (sx.sierpinski_path, (5, 30, -0.5)),
    (sx.polymeric_level1_regular, (6, 4, -0.5)),
    (sx.polymeric_level1_complete, (5, -0.5)),
    (sx.polymeric_level1_semiregular, (2, 3, 3, 2, -0.5)),
    (sx.polymeric_regular, (6, 4, 8, 30, -0.5)),
    (sx.polymeric_complete, (5, 30, -0.5)),
]


@pytest.mark.parametrize("fn, args", SIZES, ids=[fn.__name__ for fn, _ in SIZES])
def test_numpy_sizes_give_python_results(fn, args):
    want = fn(*args)
    for i, arg in enumerate(args):
        if type(arg) is int:
            swapped = list(args)
            swapped[i] = np.int64(arg)
            _same_as_python_ints(fn(*swapped), want)
            swapped[i] = float(arg)
            with pytest.raises(TypeError):
                fn(*swapped)


@pytest.mark.parametrize("fn, args", SIZES[1:], ids=[fn.__name__ for fn, _ in SIZES[1:]])
def test_bool_sizes_raise_type_error(fn, args):
    # Graph, first in SIZES, reads its vertex ids as numpy does, a bool as an int, and
    # id_to_word its id the same way (its first argument)
    for i, arg in enumerate(args):
        if type(arg) is int and (fn, i) != (sx.id_to_word, 0):
            swapped = list(args)
            swapped[i] = True
            with pytest.raises(TypeError, match="must be an integer, not a bool$"):
                fn(*swapped)


def test_a_bool_triangle_count_is_refused():
    with pytest.raises(TypeError, match="^triangles must be an integer, not a bool$"):
        sx.sierpinski_regular(3, 2, True, 2, -0.5)
    with pytest.raises(ValueError, match="^-1 triangles is impossible"):
        sx.polymeric_regular(3, 2, -1, 2, -0.5)


def test_a_fractional_vertex_count_is_refused_as_python_refuses_it():
    # Python's own message, not numpy's about the edge-key offset ("got '5.7'")
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        sx.Graph(3.7, [(1, 2), (2, 3)])
