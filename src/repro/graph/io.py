"""Graph persistence: whitespace edge-list text files and binary ``.npz``.

The text format is the de-facto SNAP format (one ``u v`` pair per line,
``#`` comments), so real datasets can be dropped in when available.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Union

import numpy as np

from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["save_edge_list", "load_edge_list", "save_npz", "load_npz"]

PathLike = Union[str, "os.PathLike[str]"]

#: Vertex ids are stored as int32, so a graph has at most this many.
_MAX_VERTICES = int(np.iinfo(np.int32).max)

#: What a damaged ``.npz`` can raise while numpy and zipfile decode it
#: (zipfile raises ``RuntimeError`` for an entry flagged as encrypted).
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError,
    RuntimeError,
)


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


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Save the CSR arrays to a compressed ``.npz`` file."""
    np.savez_compressed(path, indptr=graph.indptr, indices=graph.indices)


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`.

    The archive is validated like any other input (integer arrays,
    sorted, symmetric, in-range neighbor lists without self loops, a
    consistent ``indptr``): a corrupt file raises ``ValueError``
    instead of yielding wrong counts.
    """
    with open(path, "rb") as f:
        try:
            data = np.load(f, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError(f"{path} is not a repro graph archive")
            with data:
                if "indptr" not in data or "indices" not in data:
                    raise ValueError(f"{path} is not a repro graph archive")
                indptr, indices = data["indptr"], data["indices"]
        except _ARCHIVE_ERRORS as exc:
            raise ValueError(f"{path}: corrupt graph archive ({exc})") from exc
    for name, arr, dtype in (
        ("indptr", indptr, np.int64), ("indices", indices, np.int32)
    ):
        if arr.dtype.kind not in "iu":
            raise ValueError(f"{path}: {name} must be integers, got {arr.dtype}")
        info = np.iinfo(dtype)
        if arr.size and (arr.min() < info.min or arr.max() > info.max):
            raise ValueError(f"{path}: {name} values do not fit {info.dtype}")
    return CSRGraph(indptr, indices)
