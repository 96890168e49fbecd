"""Graph persistence: whitespace edge-list text files and binary ``.npz``.

The text format is the de-facto SNAP format (one ``u v`` pair per line,
``#`` comments), so real datasets can be dropped in when available.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["save_edge_list", "load_edge_list", "save_npz", "load_npz"]

PathLike = Union[str, "os.PathLike[str]"]


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
    reversed duplicates, and self loops are tolerated and cleaned.
    """
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    return from_edges(edges, num_vertices=num_vertices)


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Save the CSR arrays to a compressed ``.npz`` file."""
    np.savez_compressed(path, indptr=graph.indptr, indices=graph.indices)


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`.

    The archive is validated like any other input (sorted, symmetric,
    in-range neighbor lists without self loops, a consistent ``indptr``):
    a corrupt file raises ``ValueError`` instead of yielding wrong counts.
    """
    with np.load(path) as data:
        if "indptr" not in data or "indices" not in data:
            raise ValueError(f"{path} is not a repro graph archive")
        return CSRGraph(data["indptr"], data["indices"])
