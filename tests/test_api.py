import dataclasses

import sierpindex as sx

# Any addition to or removal from the public API shows up as a diff here.
PUBLIC_API = [
    "DEFAULT_VERTEX_BUDGET", "DISPUTED_PRINTS", "DegreeProfile", "EdgeClassCounts", "Graph",
    "GraphError", "IndexParams", "IndexReport", "LevelForm", "ParseError", "PolymericBreakdown",
    "PolymericLayout", "PolymericParts", "SierpinskiBreakdown", "VertexBudgetError",
    "VertexClassCounts", "census_edge_classes", "census_vertex_classes", "closedform",
    "compile_index", "complete_bipartite_graph", "complete_graph", "construct", "count_table", "cycle_graph",
    "degree_power_sum",
    "degree_profile", "demo_graph", "edge_class_counts", "edge_triangles", "generate_family",
    "graphs", "id_to_word", "is_connected", "parse_edge_list", "path_graph", "polymeric_complete",
    "polymeric_graph", "polymeric_layout", "polymeric_level1_complete", "polymeric_level1_regular",
    "polymeric_level1_semiregular", "polymeric_randic", "polymeric_regular",
    "polymeric_specialized", "polymeric_vertex_labels", "randic_index", "render_edge_list",
    "repunit", "sierpinski_complete", "sierpinski_cycle", "sierpinski_graph", "sierpinski_path",
    "sierpinski_randic", "sierpinski_randic_bounds", "sierpinski_regular",
    "sierpinski_semiregular", "sierpinski_specialized", "sierpinski_star", "specialized",
    "star_graph", "triangle_count", "triangles_on_edge", "vertex_class_counts", "vertex_labels",
    "word_to_id",
]


def test_public_api_is_pinned():
    assert sorted(sx.__all__) == PUBLIC_API


# The fields of every exported dataclass and named tuple, in order: a removed
# or renamed public field shows up as a diff here too.
PUBLIC_FIELDS = {
    "DegreeProfile": ("min_degree", "max_degree", "is_regular", "regular_degree", "is_triangle_free",
                      "bipartite_semiregular"),
    "EdgeClassCounts": ("x", "y", "c00", "c01", "c10", "c11"),
    "IndexParams": ("alpha", "exact"),
    "IndexReport": ("variant", "t", "alpha", "value", "exact", "breakdown"),
    "LevelForm": ("variant", "base", "params", "parts", "total", "level1", "den", "tau", "weights"),
    "PolymericBreakdown": ("parts", "copies_mid", "copies_top", "edge_class"),
    "PolymericLayout": ("n", "t"),
    "PolymericParts": ("hub_root", "first_copy", "hub_mid", "copies_mid", "level_links", "hub_top", "copies_top"),
    "SierpinskiBreakdown": ("classes", "edge_class"),
    "VertexClassCounts": ("x", "c0", "c1"),
}


def test_public_fields_are_pinned():
    fields = {}
    for name in sx.__all__:
        obj = getattr(sx, name)
        if dataclasses.is_dataclass(obj):
            fields[name] = tuple(f.name for f in dataclasses.fields(obj))
        elif isinstance(obj, type) and issubclass(obj, tuple):
            fields[name] = obj._fields
    assert fields == PUBLIC_FIELDS
