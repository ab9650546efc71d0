"""General Randic index of Sierpinski-type and polymeric graph expansions.

Closed-form evaluators working from exact degree-class counters, an explicit
construction oracle to verify them against, named base-graph families, and a
small CLI (``sierpindex``).
"""

from .graphs import (
    DegreeProfile,
    Graph,
    GraphError,
    IndexParams,
    ParseError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_power_sum,
    degree_profile,
    demo_graph,
    edge_triangles,
    generate_family,
    is_connected,
    parse_edge_list,
    path_graph,
    randic_index,
    render_edge_list,
    star_graph,
    triangle_count,
    triangles_on_edge,
)
from .construct import (
    DEFAULT_VERTEX_BUDGET,
    EdgeClassCounts,
    PolymericLayout,
    VertexBudgetError,
    VertexClassCounts,
    census_edge_classes,
    census_vertex_classes,
    id_to_word,
    polymeric_graph,
    polymeric_layout,
    polymeric_vertex_labels,
    repunit,
    sierpinski_graph,
    vertex_labels,
    word_to_id,
)
from .closedform import (
    IndexReport,
    LevelForm,
    PolymericBreakdown,
    PolymericParts,
    SierpinskiBreakdown,
    compile_index,
    count_table,
    edge_class_counts,
    polymeric_randic,
    sierpinski_randic,
    sierpinski_randic_bounds,
    vertex_class_counts,
)
from .specialized import (
    DISPUTED_PRINTS,
    polymeric_complete,
    polymeric_level1_complete,
    polymeric_level1_regular,
    polymeric_level1_semiregular,
    polymeric_regular,
    polymeric_specialized,
    sierpinski_complete,
    sierpinski_cycle,
    sierpinski_path,
    sierpinski_regular,
    sierpinski_semiregular,
    sierpinski_specialized,
    sierpinski_star,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
