"""Scaled-down synthetic analogs of the paper's six evaluation graphs.

The paper (Table 1) evaluates on AstroPh, Mico, Youtube, Patents,
LiveJournal, and Orkut from SNAP and related collections.  Those datasets
cannot be shipped here, and full-size graphs (up to 117 M edges) are far
beyond what a pure-Python timing simulation can mine.  Following the
substitution rule in DESIGN.md, each dataset is replaced by a deterministic
synthetic analog, scaled down by roughly 100-1000x, that preserves the
*qualitative signature* the paper's evaluation attributes effects to:

=========  =============================================================
Analog     Signature preserved (paper section 6.2 / 6.3)
=========  =============================================================
``As``     small graph, fits in the (scaled) shared cache, moderate
           degree, collaboration-network clustering; few embeddings.
``Mi``     small, cache-resident, clique-rich (strongest single-PE
           speedups on clique patterns).
``Yo``     large, *lowest average degree* but extreme hub vertices
           (scaled max degree); short neighbor lists limit parallelism,
           so FINGERS gains least here.
``Pa``     large, low *maximum* degree (no big hubs): limited
           parallelism, memory-bound.
``Lj``     large, high degree, rich community structure with big
           cliques; stresses the shared cache.
``Or``     highest average degree, fewer dense vertex clusters than
           ``Lj`` (so weaker on the large-clique patterns).
=========  =============================================================

Capacity-dependent experiments (the Figure 13 cache sweep and the default
4 MB shared cache) are scaled by :data:`CACHE_SCALE` so that each analog
keeps its cache-fit regime: ``As``/``Mi`` fit the scaled shared cache,
``Yo``/``Pa`` exceed it but have high per-list reuse, ``Lj``/``Or``
overflow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.graph import generators
from repro.graph.builders import from_edges, relabel_by_degree
from repro.graph.csr import CSRGraph

__all__ = [
    "DatasetSpec", "DATASET_SPECS", "dataset_names", "load_dataset", "CACHE_SCALE",
    "bench_graph_names",
]

#: All byte capacities taken from the paper (4 MB shared cache, 2-16 MB
#: sweep, 32 kB private cache) are divided by this factor to match the
#: ~100-1000x graph downscaling.  4 MB / 16 = 256 kB scaled shared cache,
#: chosen so the As/Mi analogs fit it at every Figure 13 sweep point while
#: Pa/Lj/Or overflow it, matching each graph's paper regime.
CACHE_SCALE = 16


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic analog.

    Attributes
    ----------
    name:
        Two-letter key used throughout the paper (``As``, ``Mi``, ...).
    full_name:
        The real dataset the analog stands in for.
    paper_vertices / paper_edges:
        The original dataset's size, for the Table 1 comparison columns.
    builder:
        Zero-argument callable returning the analog graph.
    """

    name: str
    full_name: str
    paper_vertices: int
    paper_edges: int
    paper_avg_deg: float
    paper_max_deg: int
    description: str

    def build(self) -> CSRGraph:
        return _BUILDERS[self.name]()


def _union(a: CSRGraph, b: CSRGraph) -> CSRGraph:
    """The edges of both graphs on ``a``'s vertex set."""
    edges = np.concatenate([a.edge_array(), b.edge_array()])
    return from_edges(edges, num_vertices=a.num_vertices)


def _build_as() -> CSRGraph:
    # Collaboration network: preferential attachment supplies the hub
    # authors (real AstroPh: max degree 24x the average), planted cliques
    # supply co-author-group clustering.
    base = generators.barabasi_albert(950, 9, seed=101)
    cliq = generators.planted_cliques(
        950, num_cliques=110, clique_size=6, background_p=0.0, seed=102
    )
    return _union(base, cliq)


def _build_mi() -> CSRGraph:
    # Clique-rich graph with hubs: the single-PE clique benchmarks light
    # up here (paper: Mi "has more cliques and thus even higher speedups").
    base = generators.barabasi_albert(1500, 4, seed=201)
    cliq = generators.planted_cliques(
        1500, num_cliques=260, clique_size=7, background_p=0.0, seed=202
    )
    return _union(base, cliq)


def _build_yo() -> CSRGraph:
    # Low average degree with a heavy power-law tail (extreme hubs), like
    # Youtube's 5.3 average / 28754 max.
    return generators.powerlaw_configuration(
        12000, exponent=2.6, min_degree=2, max_degree=300, seed=303
    )


def _build_pa() -> CSRGraph:
    # Patents: large, nearly Poisson degrees, *low maximum degree*.
    return generators.erdos_renyi(8000, p=8.8 / 8000, seed=404)


def _build_lj() -> CSRGraph:
    # LiveJournal: big, skewed, community structure with sizable cliques.
    # RMAT supplies hubs; extra planted cliques supply the dense clusters
    # the paper says Lj has more of than Or.
    base = generators.rmat(13, 8, seed=505)
    extra = generators.planted_cliques(
        base.num_vertices, num_cliques=110, clique_size=7, background_p=0.0, seed=506
    )
    return _union(base, extra)


def _build_or() -> CSRGraph:
    # Orkut: by far the highest average degree, with heavy hubs, but a
    # configuration model's low clustering gives it fewer dense vertex
    # clusters than Lj (paper section 6.2: weaker on large cliques).
    return generators.powerlaw_configuration(
        1500, exponent=2.0, min_degree=15, max_degree=420, seed=606
    )


def _build_er120() -> CSRGraph:
    # The dense benchmark graph of ``benchmarks/test_kernels.py`` /
    # ``test_engine.py``: small enough to count in milliseconds, dense
    # enough that clique plans produce deep frontiers.
    return generators.erdos_renyi(120, p=0.7, seed=11)


def _build_er300() -> CSRGraph:
    # A sparser, larger benchmark point: enough roots that the frontier
    # engine's breadth batching dominates the per-root Python overhead.
    return generators.erdos_renyi(300, p=0.15, seed=13)


_BUILDERS = {
    "As": _build_as,
    "Mi": _build_mi,
    "Yo": _build_yo,
    "Pa": _build_pa,
    "Lj": _build_lj,
    "Or": _build_or,
    "er120": _build_er120,
    "er300": _build_er300,
}

#: Synthetic benchmark-only graphs, loadable through :func:`load_dataset`
#: and valid in sweep specs, but *not* part of the paper's Table 1 set
#: (so excluded from :func:`dataset_names`).
BENCH_GRAPHS = ("er120", "er300")

DATASET_SPECS: dict[str, DatasetSpec] = {
    "As": DatasetSpec(
        "As", "AstroPh", 18_800, 198_000, 21.1, 504,
        "small collaboration network; cache resident",
    ),
    "Mi": DatasetSpec(
        "Mi", "Mico", 80_000, 432_000, 10.8, 936,
        "small clique-rich graph; cache resident",
    ),
    "Yo": DatasetSpec(
        "Yo", "Youtube", 1_100_000, 3_000_000, 5.3, 28_754,
        "large, lowest average degree, extreme hubs",
    ),
    "Pa": DatasetSpec(
        "Pa", "Patents", 3_800_000, 16_500_000, 8.8, 793,
        "large, low maximum degree",
    ),
    "Lj": DatasetSpec(
        "Lj", "LiveJournal", 4_800_000, 42_900_000, 17.7, 20_333,
        "large, high degree, many dense clusters",
    ),
    "Or": DatasetSpec(
        "Or", "Orkut", 3_100_000, 117_200_000, 76.3, 33_313,
        "highest average degree, fewer dense clusters",
    ),
}


def dataset_names() -> list[str]:
    """The six analog keys in the paper's Table 1 order."""
    return ["As", "Mi", "Yo", "Pa", "Lj", "Or"]


def bench_graph_names() -> list[str]:
    """Benchmark-only graph keys (:data:`BENCH_GRAPHS`) — loadable via
    :func:`load_dataset` and usable as sweep-spec graphs alongside the
    Table 1 analogs."""
    return list(BENCH_GRAPHS)


@lru_cache(maxsize=None)
def load_dataset(name: str, *, degree_ordered: bool = True) -> CSRGraph:
    """Build (and memoize) one of the six analogs.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    degree_ordered:
        Relabel vertices degree-descending, the standard preprocessing for
        symmetry-broken clique mining (on by default, as in the paper's
        toolchain).
    """
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(_BUILDERS)}"
        )
    graph = _BUILDERS[name]()
    if degree_ordered:
        graph = relabel_by_degree(graph)
    return graph
