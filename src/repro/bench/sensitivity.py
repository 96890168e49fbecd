"""Sensitivity studies: are the paper's conclusions robust to our
timing-model parameters?

The cycle-approximate model has free parameters the paper does not pin
down (DRAM latency, cache hit latency, NoC provisioning).  These sweeps
show the headline conclusion — FINGERS beats FlexMiner, more so where
stalls dominate — holds across wide parameter ranges, and in the
direction the mechanism predicts:

* *more* memory latency → *bigger* FINGERS advantage (task groups hide
  stalls; strict DFS cannot);
* shared-cache hit latency moves both designs together;
* the NoC is transparent until its bandwidth drops near the demand.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.paper import run_paper, speedup, sweep_spec
from repro.bench.report import TableResult

__all__ = [
    "sensitivity_dram_latency",
    "sensitivity_hit_latency",
    "sensitivity_noc_bandwidth",
]


def _sweep(
    name: str,
    title: str,
    param_name: str,
    values: Sequence,
    make_memory,
    graph_name: str,
    pattern: str,
) -> TableResult:
    """Single-PE FINGERS vs FlexMiner with the memory system built by
    ``make_memory(value)`` (a ``memory`` table) for each value; ``data``
    maps each value to the speedup."""
    variants = [
        {"name": f"v{value}", "num_pes": 1, "memory": make_memory(value)}
        for value in values
    ]
    row = run_paper(name, sweep_spec(name, [pattern], [graph_name], {
        "fingers": variants, "flexminer": variants,
    }))
    speedups: dict = {}
    rows = []
    for value in values:
        fing = row(pattern, graph_name, "fingers", f"v{value}")
        flex = row(pattern, graph_name, "flexminer", f"v{value}")
        speedups[value] = speedup(fing, flex)
        rows.append(
            (
                value,
                f"{fing.cycles:,.0f}",
                f"{flex.cycles:,.0f}",
                f"{speedups[value]:.2f}",
            )
        )
    return TableResult(
        title=title,
        headers=(param_name, "FINGERS cycles", "FlexMiner cycles", "speedup"),
        rows=tuple(rows),
        data=speedups,
    )


def sensitivity_dram_latency(
    latencies: Sequence[int] = (50, 100, 200, 400, 800),
    graph_name: str = "Pa",
    pattern: str = "tc",
) -> TableResult:
    """Single-PE speedup vs DRAM latency on a memory-bound job."""
    return _sweep(
        "sensitivity_dram_latency",
        f"Sensitivity: DRAM latency ({pattern} on {graph_name}, 1 PE)",
        "dram_latency",
        latencies,
        lambda v: {"dram_latency": v},
        graph_name,
        pattern,
    )


def sensitivity_hit_latency(
    latencies: Sequence[int] = (2, 4, 8, 16, 32),
    graph_name: str = "As",
    pattern: str = "tc",
) -> TableResult:
    """Single-PE speedup vs shared-cache hit latency (cache-resident job)."""
    return _sweep(
        "sensitivity_hit_latency",
        f"Sensitivity: shared-cache hit latency ({pattern} on {graph_name})",
        "hit_latency",
        latencies,
        lambda v: {"shared_cache_hit_latency": v},
        graph_name,
        pattern,
    )


def sensitivity_noc_bandwidth(
    bandwidths: Sequence[float] = (1, 4, 16, 64, 256),
    graph_name: str = "Or",
    pattern: str = "tc",
) -> TableResult:
    """Single-PE speedup vs NoC bandwidth (bytes/cycle)."""
    return _sweep(
        "sensitivity_noc_bandwidth",
        f"Sensitivity: NoC bandwidth ({pattern} on {graph_name})",
        "noc_B/cyc",
        bandwidths,
        lambda v: {"noc": {"bytes_per_cycle": float(v)}},
        graph_name,
        pattern,
    )
