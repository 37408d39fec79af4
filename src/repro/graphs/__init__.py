"""Graph substrate: immutable CSR graphs, generators, and spectral tools.

The processes in :mod:`repro.core` operate on :class:`~repro.graphs.Graph`,
a compact immutable adjacency structure optimised for vectorised random
neighbour sampling.  Everything the paper's experiments need — expander
families, tori, complete graphs, spectral-gap computation — lives here.
"""

from repro.graphs.base import Graph
from repro.graphs.build import (
    from_adjacency_matrix,
    from_edges,
    from_networkx,
    to_networkx,
)
from repro.graphs.generators import (
    barabasi_albert,
    binary_tree,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    erdos_renyi,
    grid,
    hypercube,
    path,
    petersen,
    random_regular,
    ring_of_cliques,
    star,
    torus,
    watts_strogatz,
)
from repro.graphs.implicit import (
    ImplicitCirculant,
    ImplicitComplete,
    ImplicitGraph,
    ImplicitHypercube,
    ImplicitTorus,
)
from repro.graphs.io import (
    MemmapGraph,
    from_edge_list_text,
    load_edge_list,
    load_graph,
    load_graph_memmap,
    save_edge_list,
    save_graph,
    save_graph_memmap,
    to_edge_list_text,
)
from repro.graphs.properties import (
    connected_components,
    degree_histogram,
    diameter,
    is_bipartite,
    is_connected,
)
from repro.graphs.spectral import (
    adjacency_matrix,
    analytic_lambda,
    eigenvalues,
    lambda_second,
    spectral_gap,
    transition_matrix,
)

__all__ = [
    "Graph",
    "from_edges",
    "from_adjacency_matrix",
    "from_networkx",
    "to_networkx",
    "complete",
    "cycle",
    "path",
    "star",
    "complete_bipartite",
    "petersen",
    "hypercube",
    "torus",
    "grid",
    "circulant",
    "random_regular",
    "watts_strogatz",
    "barabasi_albert",
    "ring_of_cliques",
    "binary_tree",
    "erdos_renyi",
    "ImplicitGraph",
    "ImplicitHypercube",
    "ImplicitTorus",
    "ImplicitCirculant",
    "ImplicitComplete",
    "save_graph",
    "load_graph",
    "save_graph_memmap",
    "load_graph_memmap",
    "MemmapGraph",
    "save_edge_list",
    "load_edge_list",
    "to_edge_list_text",
    "from_edge_list_text",
    "is_connected",
    "connected_components",
    "is_bipartite",
    "diameter",
    "degree_histogram",
    "transition_matrix",
    "adjacency_matrix",
    "eigenvalues",
    "lambda_second",
    "spectral_gap",
    "analytic_lambda",
]
