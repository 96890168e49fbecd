"""Degree statistics, used to regenerate the paper's Table 1."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphStats", "graph_stats"]


@dataclass(frozen=True)
class GraphStats:
    """Summary row in the shape of the paper's Table 1."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    median_degree: float
    csr_bytes: int

    def row(self) -> tuple[int, int, float, int]:
        """The four Table 1 columns: # Vertices, # Edges, Avg Deg, Max Deg."""
        return (self.num_vertices, self.num_edges, self.avg_degree, self.max_degree)


def graph_stats(graph: CSRGraph) -> GraphStats:
    """Compute the Table 1 statistics for ``graph``."""
    degrees = graph.degrees()
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=round(graph.avg_degree(), 2),
        max_degree=graph.max_degree(),
        median_degree=float(np.median(degrees)) if degrees.size else 0.0,
        csr_bytes=graph.total_bytes(),
    )

