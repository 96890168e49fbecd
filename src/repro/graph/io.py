"""Graph persistence: whitespace edge-list text files.

The text format is the de-facto SNAP format (one ``u v`` pair per line,
``#`` comments), so real datasets can be dropped in when available.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["save_edge_list", "load_edge_list"]

PathLike = Union[str, "os.PathLike[str]"]

#: Vertex ids are stored as int32, so a graph has at most this many.
_MAX_VERTICES = int(np.iinfo(np.int32).max)


def save_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph as a SNAP-style edge list (each edge once, u < v)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# undirected simple graph: {graph.num_vertices} vertices, "
                f"{graph.num_edges} edges\n")
        for u, v in graph.edges():
            f.write(f"{u} {v}\n")


def load_edge_list(path: PathLike, *, num_vertices: int | None = None) -> CSRGraph:
    """Read a SNAP-style edge list.

    Lines starting with ``#`` or ``%`` are comments.  Duplicate edges,
    reversed duplicates, and self loops are tolerated and cleaned.  A
    line that is not two integer vertex ids, a negative id, or an id
    outside ``num_vertices`` (or past the int32 id range) raises
    ``ValueError`` naming ``path:lineno``.
    """
    if num_vertices is not None and num_vertices < 0:
        raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
    limit = _MAX_VERTICES if num_vertices is None else num_vertices
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                edge = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: vertex ids must be integers, got {line!r}"
                ) from None
            for x in edge:
                if x < 0:
                    raise ValueError(f"{path}:{lineno}: negative vertex id {x}")
                if x >= limit:
                    raise ValueError(
                        f"{path}:{lineno}: vertex id {x} out of range "
                        f"for {limit} vertices"
                    )
            edges.append(edge)
    return from_edges(edges, num_vertices=num_vertices)

