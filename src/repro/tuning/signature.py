"""Cheap, deterministic graph signatures for tuned-choice keying.

A tuned choice must outlive the process that measured it, so the store
key cannot hash object identity — and it should *not* hash full graph
contents either: two graphs with the same shape statistics behave the
same under every candidate plan the tuner considers, and keying on the
exact edge set would re-trial after any cosmetic regeneration.  The
signature is the middle ground (docs/TUNING.md, "Graph signature"):

* exact scale — vertex and edge counts;
* the degree *shape* — all eleven degree deciles (p0, p10, ..., p100),
  which pins down skew far better than a mean;
* hub mass — the share of edge endpoints landing on the top-1%
  highest-degree vertices (matches
  :meth:`repro.pattern.ordering.OrderCostModel.from_graph`).

Every field is computed from the degree array with integer or
fixed-rounded arithmetic, so the signature is bit-stable across
processes and platforms.  ``graph_signature`` memoizes on the graph
instance (the ``_signature_cache`` slot): one computation per graph,
however many cells a sweep tunes on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphSignature", "graph_signature"]


@dataclass(frozen=True)
class GraphSignature:
    """The tuning identity of a graph (see module docstring)."""

    num_vertices: int
    num_edges: int
    #: Degree percentiles 0, 10, ..., 100 (11 values), nearest-rank.
    degree_deciles: tuple[int, ...]
    #: Share of edge endpoints on the top-1% degree vertices, rounded
    #: to 6 decimals for cross-process stability.
    hub_mass: float

    def key(self) -> str:
        """Stable short digest for cache keys and reports."""
        text = (
            f"v={self.num_vertices};e={self.num_edges};"
            f"dec={','.join(map(str, self.degree_deciles))};"
            f"hub={self.hub_mass:.6f}"
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _compute(graph: CSRGraph) -> GraphSignature:
    n = graph.num_vertices
    degrees = graph.degrees()
    if n == 0 or degrees.size == 0:
        deciles = (0,) * 11
        hub_mass = 0.0
    else:
        ordered = np.sort(degrees)
        # Nearest-rank deciles: integer indexing keeps the values exact
        # ints, immune to interpolation-mode drift across numpy versions.
        idx = [min(ordered.size - 1, (q * (ordered.size - 1)) // 10)
               for q in range(11)]
        deciles = tuple(int(ordered[i]) for i in idx)
        total = int(ordered.sum())
        if total:
            num_hubs = max(1, n // 100)
            hub_mass = round(float(ordered[-num_hubs:].sum()) / total, 6)
        else:
            hub_mass = 0.0
    return GraphSignature(
        num_vertices=n,
        num_edges=graph.num_edges,
        degree_deciles=deciles,
        hub_mass=hub_mass,
    )


def graph_signature(graph: CSRGraph) -> GraphSignature:
    """The (memoized) tuning signature of ``graph``."""
    cached = graph._signature_cache
    if isinstance(cached, GraphSignature):
        return cached
    signature = _compute(graph)
    graph._signature_cache = signature
    return signature
