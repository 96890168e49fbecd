"""Benchmark grid definitions (paper section 5, "Methodology").

Seven workloads — 3-, 4-, 5-clique, tailed triangle, 4-cycle, diamond, and
the multi-pattern 3-motif count — over the six graph analogs.
"""

from __future__ import annotations

from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_names, load_dataset

__all__ = [
    "BENCHMARK_PATTERNS",
    "BENCHMARK_GRAPHS",
    "ROOT_STRIDE",
    "roots_for",
]

#: The paper's seven evaluated workloads, in its plotting order.
BENCHMARK_PATTERNS = ["tc", "4cl", "5cl", "tt", "cyc", "dia", "3mc"]

#: The paper's six graphs, in its Table 1 order.
BENCHMARK_GRAPHS = dataset_names()

#: Deterministic root-vertex stride per graph.  Mining every Nth root
#: keeps the heavy analogs (millions of tasks on Lj/Or) tractable in a
#: pure-Python timing simulation; degree-descending vertex ids mean the
#: hub roots are always included.  Identical roots go to both designs, so
#: every reported speedup is a ratio over the same functional work.
ROOT_STRIDE = {
    "As": 1,
    "Mi": 1,
    "Yo": 2,
    "Pa": 4,
    "Lj": 8,
    "Or": 6,
}


def roots_for(name: str, graph: CSRGraph | None = None) -> list[int]:
    """The sampled root set for one graph analog."""
    graph = graph if graph is not None else load_dataset(name)
    stride = ROOT_STRIDE.get(name, 1)
    return list(range(0, graph.num_vertices, stride))
