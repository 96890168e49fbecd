"""Builders that normalize arbitrary edge data into :class:`CSRGraph`.

All builders enforce the library invariants: undirected, simple (no self
loops or duplicate edges), and sorted neighbor lists.  Input edges may be
given in either direction and may contain duplicates; they are cleaned here.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "from_edges",
    "from_adjacency",
    "induced_subgraph",
    "relabel_by_degree",
]


def from_edges(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    *,
    num_vertices: int | None = None,
) -> CSRGraph:
    """Build a graph from ``(u, v)`` pairs: an iterable of pairs or an
    ``(m, 2)`` integer array.

    Self loops are dropped; duplicate and reversed duplicates are merged.
    ``num_vertices`` may be passed to include isolated trailing vertices;
    otherwise it is inferred as ``max vertex id + 1``.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        n = num_vertices or 0
        return CSRGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    if arr.min() < 0:
        raise ValueError("vertex ids must be non-negative")
    inferred = int(arr.max()) + 1
    n = inferred if num_vertices is None else int(num_vertices)
    if n < inferred:
        raise ValueError(
            f"num_vertices={n} too small for max vertex id {inferred - 1}"
        )
    # Drop self loops, then key both directions of every edge as
    # ``src * n + dst``: one sort orders the CSR and brings duplicates
    # together.
    u, v = arr[arr[:, 0] != arr[:, 1]].T
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    if keys.size:
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    src = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, (keys - src * n).astype(np.int32), validate=False)


def from_adjacency(adj: Mapping[int, Sequence[int]]) -> CSRGraph:
    """Build a graph from ``{vertex: neighbors}``.

    The mapping does not have to be symmetric; edges are symmetrized.
    Keys and values together determine the vertex-id space.
    """
    edges: list[tuple[int, int]] = []
    max_id = -1
    for u, nbrs in adj.items():
        max_id = max(max_id, int(u))
        for v in nbrs:
            max_id = max(max_id, int(v))
            edges.append((int(u), int(v)))
    return from_edges(edges, num_vertices=max_id + 1 if max_id >= 0 else 0)


def induced_subgraph(
    graph: CSRGraph, vertices: Sequence[int]
) -> tuple[CSRGraph, np.ndarray]:
    """Vertex-induced subgraph on ``vertices``, relabelled to ``0..len-1``.

    Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
    vertex of ``graph`` that became vertex ``i`` of the subgraph.
    """
    keep = np.unique(np.asarray(vertices, dtype=np.int64))
    if keep.size and (keep.min() < 0 or keep.max() >= graph.num_vertices):
        raise ValueError("vertices out of range")
    remap = -np.ones(graph.num_vertices, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    edges = remap[graph.edge_array()]
    edges = edges[(edges >= 0).all(axis=1)]
    return from_edges(edges, num_vertices=keep.size), keep


def relabel_by_degree(graph: CSRGraph, *, descending: bool = True) -> CSRGraph:
    """Relabel vertices so ids are ordered by degree.

    Degree-descending relabelling is the standard preprocessing step for
    clique mining with ``u_i > u_j`` symmetry-breaking restrictions: it makes
    high-degree vertices come first so restriction pruning trims the largest
    subtrees early.
    """
    degrees = graph.degrees()
    order = np.argsort(-degrees if descending else degrees, kind="stable")
    remap = np.empty(graph.num_vertices, dtype=np.int64)
    remap[order] = np.arange(graph.num_vertices)
    return from_edges(remap[graph.edge_array()], num_vertices=graph.num_vertices)
