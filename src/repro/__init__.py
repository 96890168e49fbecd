"""repro — a reproduction of FINGERS (ASPLOS 2022).

FINGERS is a graph-mining accelerator that exploits branch-, set-, and
segment-level parallelism inside each processing element.  This package
provides the full stack of the paper's system:

* a pattern-aware graph mining library (graphs, pattern compiler,
  reference engine) usable stand-alone;
* cycle-approximate timing models of the FINGERS accelerator and its
  FlexMiner baseline;
* the benchmark harness that regenerates every table and figure of the
  paper's evaluation (see ``benchmarks/`` and EXPERIMENTS.md).

Quickstart::

    from repro import load_dataset, count
    graph = load_dataset("Mi")
    print(count(graph, "tc"))           # triangle count

    from repro import simulate, FingersConfig, FlexMinerConfig
    fingers = simulate(graph, "tc", FingersConfig(num_pes=1))
    baseline = simulate(graph, "tc", FlexMinerConfig(num_pes=1))
    print(baseline.cycles / fingers.cycles)   # single-PE speedup
"""

from repro.graph import CSRGraph, load_dataset, dataset_names, from_edges
from repro.pattern import (
    Pattern,
    named_pattern,
    compile_plan,
    compile_multi_plan,
    motif_patterns,
    PATTERN_NAMES,
)
from repro.mining import count, embeddings, motif_census

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "load_dataset",
    "dataset_names",
    "from_edges",
    "Pattern",
    "named_pattern",
    "compile_plan",
    "compile_multi_plan",
    "motif_patterns",
    "PATTERN_NAMES",
    "count",
    "embeddings",
    "motif_census",
    "__version__",
]


def __getattr__(name):
    # Hardware-layer exports are resolved lazily so the pure-algorithm
    # stack can be imported without the hw package (and to keep import
    # time low for library-only users).
    if name in (
        "FingersConfig",
        "FlexMinerConfig",
        "simulate",
        "speedup_grid",
    ):
        from repro.hw import api as _hw_api

        return getattr(_hw_api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
