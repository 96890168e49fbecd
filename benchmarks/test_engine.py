"""Frontier-engine end-to-end speedups over the recursive oracle.

Measures ``count_embeddings`` with the default (frontier) policy against
``KernelPolicy(engine="recursive")`` — the penultimate-batched recursive
path that was the fastest engine before the frontier refactor — on the
registered benchmark graphs, asserting bit-identical counts and the
acceptance speedup floor.  Every measurement is appended to the result
store under its own ``engine-frontier-bench`` run: its rows are
hand-built timings (no cache key, no config signature), so they stay
out of the sweep run ``make bench-engine`` populates.  Setting
``REPRO_BENCH_SMOKE=1`` drops the floor to 1x, keeping the CI artifact
informational.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.provenance import environment_provenance
from repro.experiments.store import ResultRow, ResultStore
from repro.graph.datasets import load_dataset
from repro.mining.engine import count_embeddings
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import named_pattern
from repro.setops.kernels import KernelPolicy

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The PR 4 execution model: per-embedding recursion with the adaptive
#: kernel layer and the penultimate batch counter — the baseline the
#: frontier engine must beat.
RECURSIVE = KernelPolicy(engine="recursive")

_BENCH_GRAPH = "er300"

#: Required frontier-over-recursive speedup (ISSUE 9 acceptance floor).
_SPEEDUP_FLOOR = 1.0 if SMOKE else 3.0


def _time_count(graph, plan, policy, *, rounds: int = 2) -> tuple[int, float]:
    """Best-of-``rounds`` wall time (robust against background load)."""
    best = float("inf")
    count = 0
    for _ in range(rounds):
        start = time.perf_counter()
        count = count_embeddings(graph, plan, kernels=policy)
        best = min(best, time.perf_counter() - start)
    return count, best


@pytest.mark.parametrize("pattern", ["4cl", "tt"])
def test_frontier_engine_speedup(benchmark, results_dir, pattern):
    graph = load_dataset(_BENCH_GRAPH)
    plan = compile_plan(named_pattern(pattern))

    recursive_count, recursive_seconds = _time_count(graph, plan, RECURSIVE)
    frontier_count = benchmark.pedantic(
        count_embeddings, args=(graph, plan), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    frontier_seconds = float(benchmark.stats["min"])
    assert frontier_count == recursive_count
    speedup = recursive_seconds / frontier_seconds

    store = ResultStore(results_dir / "store")
    provenance = environment_provenance()
    store.append(ResultRow(
        run="engine-frontier-bench",
        cell_key=f"bench:{pattern}/{_BENCH_GRAPH}/frontier",
        pattern=pattern, graph=_BENCH_GRAPH, backend="functional",
        policy="default", workload=pattern,
        count=int(frontier_count), counts=(int(frontier_count),),
        wall_time_s=frontier_seconds,
        metrics={"speedup_vs_recursive": speedup,
                 "recursive_seconds": recursive_seconds},
        extras={"smoke": SMOKE, "source": "benchmarks/test_engine.py"},
        provenance=provenance,
    ))
    assert speedup >= _SPEEDUP_FLOOR, (
        f"{pattern} on {_BENCH_GRAPH}: frontier engine is only "
        f"{speedup:.2f}x over the recursive path (floor {_SPEEDUP_FLOOR}x)"
    )
