"""Front door of the hardware layer: ``simulate``.

``simulate`` accepts a graph, a workload (pattern object, benchmark name
— including the multi-pattern ``"3mc"`` — or a pre-compiled plan), and a
design configuration, and returns a :class:`RunResult` with cycles,
counts, and microarchitectural statistics.  The configuration type
selects the backend through the :mod:`repro.core` registry, so this
module contains no per-design dispatch.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.backend import backend_for_config
from repro.core.result import RunResult
from repro.core.workload import Workload, resolve_workload
from repro.graph.csr import CSRGraph
from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig

__all__ = [
    "simulate",
    "resolve_workload",
    "FingersConfig",
    "FlexMinerConfig",
    "MemoryConfig",
]

def simulate(
    graph: CSRGraph,
    workload: Workload,
    config: FingersConfig | FlexMinerConfig,
    *,
    memory: MemoryConfig | None = None,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
    tracer=None,
    jobs: int | None = None,
    shards: int | None = None,
) -> RunResult:
    """Simulate one mining job on one chip configuration.

    ``schedule`` picks the global root scheduler (see
    :func:`repro.hw.chip.run_chip`); the default is the paper's dynamic
    policy.

    ``jobs``/``shards`` select the **sharded (multi-chip) model** (see
    docs/PARALLELISM.md): the root set is cut into ``shards`` chunks (a
    pure function of graph and roots; default policy when ``None``),
    each shard runs on its own cold chip on up to ``jobs`` host worker
    processes, and results merge exactly — counts and traffic counters
    sum, ``cycles`` is the slowest shard's makespan.  Any ``jobs`` value
    produces bit-for-bit identical results; ``jobs=None`` (default)
    keeps the plain single-chip model.

    >>> from repro.graph import load_dataset
    >>> r = simulate(load_dataset("As"), "tc", FingersConfig(num_pes=1))
    >>> r.count > 0
    True
    """
    backend = backend_for_config(config)
    return backend.run(
        graph, workload, config,
        memory=memory, roots=roots, schedule=schedule, tracer=tracer,
        jobs=jobs, shards=shards,
    )

