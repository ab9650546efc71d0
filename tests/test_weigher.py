"""The one weigh-and-divide step of :mod:`sierpindex.closedform`: which degree
products a closed form raises to alpha, and that :mod:`sierpindex.specialized`
reaches that step only through the family entry point."""

import ast
from pathlib import Path

import pytest

import sierpindex as sx
from sierpindex import specialized as sp

from conftest import random_graph

OCTAHEDRON = sx.Graph(6, [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5),
                          (4, 6)])

#: (family formula, its arguments before alpha, a base with that profile, variant, level)
FAMILY_CALLS = [
    (sp.sierpinski_complete, (4, 3), sx.complete_graph(4), "S", 3),
    (sp.sierpinski_cycle, (5, 2), sx.cycle_graph(5), "S", 2),
    (sp.sierpinski_path, (3, 2), sx.path_graph(3), "S", 2),
    (sp.sierpinski_path, (5, 4), sx.path_graph(5), "S", 4),
    (sp.sierpinski_star, (3, 2), sx.star_graph(3), "S", 2),
    (sp.sierpinski_semiregular, (2, 3, 3, 2, 3), sx.complete_bipartite_graph(2, 3), "S", 3),
    (sp.sierpinski_regular, (6, 4, 8, 2), OCTAHEDRON, "S", 2),
    (sp.polymeric_complete, (4, 3), sx.complete_graph(4), "P", 3),
    (sp.polymeric_regular, (5, 2, 0, 2), sx.cycle_graph(5), "P", 2),
    (sp.polymeric_level1_complete, (5,), sx.complete_graph(5), "P", 1),
    (sp.polymeric_level1_regular, (6, 2), sx.cycle_graph(6), "P", 1),
    (sp.polymeric_level1_semiregular, (2, 3, 3, 2), sx.complete_bipartite_graph(2, 3), "P", 1),
]


@pytest.fixture
def powered(monkeypatch) -> list[int]:
    """Every base that an exact alpha is raised to, in call order."""
    bases = []

    class Exponent(int):
        def __rpow__(self, base, mod=None):
            bases.append(base)
            return pow(base, int(self), mod)

    monkeypatch.setattr(sx.IndexParams, "int_alpha", property(lambda self: Exponent(int(self.alpha))))
    return bases


def products(table: sx.closedform.CountTable, keys, nonzero: bool) -> set[int]:
    """The degree products of the columns under ``keys``, each pair at its column's lift."""
    return {(a + lift) * (b + lift) for name, lift in keys for (a, b), c in table.columns[name, lift].items()
            if c or not nonzero}


def test_a_family_formula_does_not_power_a_pair_without_edges(powered):
    # K4's S lead column holds (3, 3) with coefficient 6*(4 - 2*3) + 12 = 0, and the rep
    # column does not hold it: from level 2 on no edge has end degrees 3 and 3
    exact = sx.IndexParams(2, exact=True)
    value = sp.sierpinski_complete(4, 3, exact)
    assert powered and 9 not in powered
    powered.clear()
    assert sx.compile_index(sx.complete_graph(4), exact, "S").at(3).exact == value
    assert 9 in powered  # the compiled form keeps every product, as LevelForm.weights is pinned


@pytest.mark.parametrize("formula, args, base, variant, t", FAMILY_CALLS,
                         ids=[f"{call[0].__name__}{call[1]}" for call in FAMILY_CALLS])
def test_a_family_formula_powers_each_nonzero_pair_of_its_level_once(powered, formula, args, base, variant, t):
    formula(*args, sx.IndexParams(3, exact=True))
    table = sx.count_table(base, variant)
    keys = {key for part in (table.parts if t > 1 else (table.level1,)) for _, key in part}
    assert t > 1 or keys == {("root1", 0), ("edges", 1)}
    assert sorted(powered) == sorted(products(table, keys, nonzero=True))


@pytest.mark.parametrize("variant", "SP")
def test_the_compiled_form_powers_every_product_of_its_columns_once(powered, variant):
    table = sx.count_table(sx.demo_graph(), variant)
    form = table.weigh(sx.IndexParams(2, exact=True))
    assert sorted(powered) == sorted(form.weights) == sorted(products(table, table.columns, nonzero=False))


def test_specialized_imports_only_the_family_step_of_closedform():
    # specialized writes profiles; the table, the weigher and the division are closedform's
    allowed = {"_index", "_Profile"}
    tree = ast.parse(Path(sp.__file__).read_text())
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("closedform", 1),
                                                                             ("sierpindex.closedform", 0)):
            private |= {alias.name for alias in node.names if alias.name.startswith("_")}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "closedform":
            private |= {node.attr} if node.attr.startswith("_") else set()
    assert private <= allowed, sorted(private - allowed)


@pytest.mark.parametrize("base", [sx.demo_graph(), sx.complete_graph(24), random_graph(10, 100, 350)],
                         ids=["demo7", "K24", "above_pairs"])
def test_each_copy_group_is_stored_once_and_read_at_its_lifts(base):
    # the P table reads one copy group at base degree + 1 and + 2, the S table at + 0
    s_table, p_table = sx.count_table(base, "S"), sx.count_table(base, "P")
    for name in ("edges", "lead", "rep"):
        assert p_table.columns[name, 1] is p_table.columns[name, 2]
        assert p_table.columns[name, 1] == s_table.columns[name, 0]
