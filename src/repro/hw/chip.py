"""Multi-PE chip: dynamic root scheduling over a shared memory system.

The global scheduler hands search-tree roots to idle PEs (the
coarse-grained, tree-level parallelism both designs share, section 3.1).
PEs advance in time order: each event runs the earliest PE ahead until
another PE is due (:meth:`repro.hw.pe.BasePE.run`), so their accesses to
the shared cache and DRAM interleave approximately as they would on the
real chip.  The chip makespan — the finish time of the last PE — is the
headline "cycles" number; load imbalance from power-law roots shows up as
the gap between mean PE busy time and makespan.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.flexminer import FlexMinerPE
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.optrace import TRACE_BUDGET_BYTES
from repro.hw.pe import NO_BOUND, BasePE, FingersPE
from repro.pattern.plan import ExecutionPlan

__all__ = ["run_chip"]


def _make_pes(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config: FingersConfig | FlexMinerConfig,
    memcfg: MemoryConfig,
    shared_cache: SectoredLRUCache,
    dram: DRAMModel,
) -> list[BasePE]:
    """One PE per configured unit, all replaying one shared trace."""
    cls = FingersPE if isinstance(config, FingersConfig) else FlexMinerPE
    trace = cls.new_trace(graph, plans, config, memcfg)
    return [
        cls(i, graph, plans, config, memcfg, shared_cache, dram, trace)
        for i in range(config.num_pes)
    ]


def run_chip(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config: FingersConfig | FlexMinerConfig,
    memcfg: MemoryConfig | None = None,
    *,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
    tracer=None,
) -> RunResult:
    """Simulate one mining job on one chip.

    ``roots`` restricts the job to the given level-0 vertices (sampled
    simulation); defaults to every vertex.  The same ``roots`` on both
    designs guarantees identical functional work, so cycle ratios are
    apples-to-apples.

    ``schedule`` selects the global root scheduler:

    ``"dynamic"`` (default, the paper's design)
        the next unprocessed root goes to the first idle PE.  With
        degree-ordered vertex ids this also realizes the paper's
        future-work locality idea: nearby (similar-degree) roots run on
        different PEs at the same time and share shared-cache contents.
    ``"static_interleave"``
        PE ``i`` is pre-assigned roots ``i, i+P, i+2P, ...``.
    ``"static_block"``
        PE ``i`` is pre-assigned the ``i``-th contiguous block of roots.
        With power-law graphs the hub block serializes on one PE — the
        coarse-grained load-imbalance pathology of paper section 2.3,
        kept as an ablation (see ``repro.bench.ablations``).
    """
    memcfg = memcfg or MemoryConfig()
    shared_cache = SectoredLRUCache(memcfg.shared_cache_bytes, name="shared")
    dram = DRAMModel(memcfg)
    noc = NoCModel(memcfg.noc)
    pes = _make_pes(graph, plans, config, memcfg, shared_cache, dram)
    for pe in pes:
        pe.noc = noc
        if tracer is not None:
            pe.tracer = tracer

    all_roots = list(range(graph.num_vertices) if roots is None else roots)
    if schedule not in ("dynamic", "static_interleave", "static_block"):
        raise ValueError(f"unknown schedule policy {schedule!r}")

    # Each PE's source of trees: one shared queue (dynamic), or a queue
    # per PE over its pre-assigned roots (static).
    trace = pes[0].trace
    if schedule == "dynamic":
        sources = [trace.trees(all_roots)] * len(pes)
    else:
        assigned: list[list[int]] = [[] for _ in pes]
        if schedule == "static_interleave":
            for i, root in enumerate(all_roots):
                assigned[i % len(pes)].append(root)
        else:  # static_block
            per_pe = -(-len(all_roots) // len(pes)) if all_roots else 0
            for i in range(len(pes)):
                assigned[i] = all_roots[i * per_pe : (i + 1) * per_pe]
        # Every PE walks its own root queue, so the trace budget is split
        # between the queues' chunks in flight.
        budget = TRACE_BUDGET_BYTES // len(pes)
        sources = [trace.trees(a, budget_bytes=budget) for a in assigned]

    finish = [0.0] * len(pes)
    heap: list[tuple[float, int]] = []
    for pe, source in zip(pes, sources):
        tree = next(source, None)
        if tree is not None:
            pe.assign_root(tree.root, 0.0, tree)
            heapq.heappush(heap, (pe.now, pe.pe_id))
    while heap:
        _, pid = heapq.heappop(heap)
        pe = pes[pid]
        if not pe.has_work():
            tree = next(sources[pid], None)
            if tree is None:
                finish[pid] = pe.now
                continue
            pe.assign_root(tree.root, pe.now, tree)
        pe.run(heap[0] if heap else NO_BOUND)
        heapq.heappush(heap, (pe.now, pid))

    cycles = max(finish) if finish else 0.0
    counts = [0] * len(plans)
    for pe in pes:
        for i, c in enumerate(pe.counts):
            counts[i] += c
    stats = [pe.stats for pe in pes]
    is_fingers = isinstance(config, FingersConfig)
    num_ius = config.num_ius if is_fingers else 1
    group = pes[0].group_size if is_fingers and pes else 1
    return RunResult(
        backend="fingers" if is_fingers else "flexminer",
        design=config.design_name,
        cycles=cycles,
        counts=tuple(counts),
        units=tuple(stats),
        unit_finish_times=tuple(finish),
        sections={
            "shared_cache": shared_cache.stats,
            "dram": dram.stats,
            "noc": noc.stats,
        },
        scalars={
            "num_pes": len(pes),
            "num_ius": num_ius,
            "task_group_size": group,
        },
    )
