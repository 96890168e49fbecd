"""Graph substrate: CSR storage, builders, generators, datasets, I/O, stats.

Pattern-aware graph mining operates on undirected simple graphs whose
adjacency lists are sorted by vertex id, so set operations over neighbor
lists can be done with one-pass merges (paper section 2.1).  Everything in
this package produces or consumes :class:`~repro.graph.csr.CSRGraph`, an
immutable compressed-sparse-row structure with exactly that invariant.
"""

from repro.graph.csr import CSRGraph
from repro.graph.builders import (
    from_edges,
    from_adjacency,
    induced_subgraph,
    relabel_by_degree,
)
from repro.graph.generators import (
    erdos_renyi,
    barabasi_albert,
    powerlaw_configuration,
    planted_cliques,
    rmat,
    complete_graph,
    star_graph,
    cycle_graph,
    path_graph,
)
from repro.graph.datasets import load_dataset, dataset_names, DATASET_SPECS
from repro.graph.io import save_edge_list, load_edge_list
from repro.graph.stats import GraphStats, graph_stats

__all__ = [
    "CSRGraph",
    "from_edges",
    "from_adjacency",
    "induced_subgraph",
    "relabel_by_degree",
    "erdos_renyi",
    "barabasi_albert",
    "powerlaw_configuration",
    "planted_cliques",
    "rmat",
    "complete_graph",
    "star_graph",
    "cycle_graph",
    "path_graph",
    "load_dataset",
    "dataset_names",
    "DATASET_SPECS",
    "save_edge_list",
    "load_edge_list",
    "GraphStats",
    "graph_stats",
]
