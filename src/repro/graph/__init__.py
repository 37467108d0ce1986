"""Graph substrate: CSR representation, builders, IO, stats, generators."""

from .csr import CSRGraph
from .builders import (
    complete_graph,
    cycle_graph,
    empty_graph,
    from_adjacency,
    from_edge_array,
    from_edges,
    from_networkx,
    path_graph,
    star_graph,
)
from .io import (
    GraphFormatError,
    load_graph,
    read_csr_binary,
    read_edge_list,
    read_matrix_market,
    write_csr_binary,
    write_edge_list,
    write_matrix_market,
)
from .stats import (
    GraphStats,
    clustering_coefficient,
    degree_histogram,
    degree_percentiles,
    format_stats_table,
    graph_stats,
)
from .dynamic import DynamicGraph
from .transform import (
    component_labels,
    connected_component_labels,
    largest_connected_component,
    relabel_by_degree,
    subgraph,
)

__all__ = [
    "CSRGraph",
    "from_edge_array",
    "from_edges",
    "from_adjacency",
    "from_networkx",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "GraphFormatError",
    "read_edge_list",
    "write_edge_list",
    "read_csr_binary",
    "write_csr_binary",
    "load_graph",
    "read_matrix_market",
    "write_matrix_market",
    "GraphStats",
    "graph_stats",
    "degree_histogram",
    "format_stats_table",
    "clustering_coefficient",
    "degree_percentiles",
    "relabel_by_degree",
    "largest_connected_component",
    "subgraph",
    "connected_component_labels",
    "component_labels",
    "DynamicGraph",
]
