"""One-group-per-event reference schedulers for the cycle models.

:func:`repro.hw.chip.run_chip` and :meth:`repro.sw.miner.SoftwareMiner.run`
run each PE ahead until another PE's event is earlier
(:meth:`repro.hw.pe.BasePE.run`).  These are the loops they replaced:
every event replays exactly one task group and goes back to the heap.
``tests/hw/test_run_ahead.py`` requires both to produce identical
results and tracer events.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.chip import _make_pes
from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.optrace import TRACE_BUDGET_BYTES
from repro.hw.pe import ONE_GROUP
from repro.pattern.plan import ExecutionPlan
from repro.sw.miner import SoftwareMiner, _Core

__all__ = ["reference_run_chip", "reference_run_software"]


def reference_run_chip(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config: FingersConfig | FlexMinerConfig,
    memcfg: MemoryConfig | None = None,
    *,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
    tracer=None,
) -> RunResult:
    """:func:`repro.hw.chip.run_chip`, one task group per heap event."""
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
    finish = [0.0] * len(pes)
    heap: list[tuple[float, int]] = []

    trace = pes[0].trace
    if schedule == "dynamic":
        trees = trace.trees(all_roots)
        for pe in pes:
            tree = next(trees, None)
            if tree is None:
                break
            pe.assign_root(tree.root, 0.0, tree)
            heapq.heappush(heap, (pe.now, pe.pe_id))
        while heap:
            _, pid = heapq.heappop(heap)
            pe = pes[pid]
            if pe.has_work():
                pe.run(ONE_GROUP)
                heapq.heappush(heap, (pe.now, pid))
                continue
            tree = next(trees, None)
            if tree is None:
                finish[pid] = pe.now
                continue
            pe.assign_root(tree.root, pe.now, tree)
            heapq.heappush(heap, (pe.now, pid))
    else:
        assigned: list[list[int]] = [[] for _ in pes]
        if schedule == "static_interleave":
            for i, root in enumerate(all_roots):
                assigned[i % len(pes)].append(root)
        else:  # static_block
            per_pe = -(-len(all_roots) // len(pes)) if all_roots else 0
            for i in range(len(pes)):
                assigned[i] = all_roots[i * per_pe : (i + 1) * per_pe]
        budget = TRACE_BUDGET_BYTES // len(pes)
        queues = [trace.trees(a, budget_bytes=budget) for a in assigned]
        for pe, q in zip(pes, queues):
            tree = next(q, None)
            if tree is None:
                continue
            pe.assign_root(tree.root, 0.0, tree)
            heapq.heappush(heap, (pe.now, pe.pe_id))
        while heap:
            _, pid = heapq.heappop(heap)
            pe = pes[pid]
            if pe.has_work():
                pe.run(ONE_GROUP)
                heapq.heappush(heap, (pe.now, pid))
                continue
            tree = next(queues[pid], None)
            if tree is None:
                finish[pid] = pe.now
                continue
            pe.assign_root(tree.root, pe.now, tree)
            heapq.heappush(heap, (pe.now, pid))

    counts = [0] * len(plans)
    for pe in pes:
        for i, c in enumerate(pe.counts):
            counts[i] += c
    is_fingers = isinstance(config, FingersConfig)
    return RunResult(
        backend="fingers" if is_fingers else "flexminer",
        design=config.design_name,
        cycles=max(finish) if finish else 0.0,
        counts=tuple(counts),
        units=tuple(pe.stats for pe in pes),
        unit_finish_times=tuple(finish),
        sections={
            "shared_cache": shared_cache.stats,
            "dram": dram.stats,
            "noc": noc.stats,
        },
        scalars={
            "num_pes": len(pes),
            "num_ius": config.num_ius if is_fingers else 1,
            "task_group_size": pes[0].group_size if is_fingers else 1,
        },
    )


def reference_run_software(
    miner: SoftwareMiner, roots: Iterable[int] | None = None
) -> RunResult:
    """:meth:`SoftwareMiner.run`, one task per heap event."""
    config, memcfg = miner.config, miner.memcfg
    llc = SectoredLRUCache(memcfg.shared_cache_bytes, name="llc")
    dram = DRAMModel(memcfg)
    trace = _Core.new_trace(miner.graph, miner.plans, config, memcfg)
    cores = [
        _Core(i, miner.graph, miner.plans, config, memcfg, llc, dram, trace)
        for i in range(config.num_cores)
    ]
    trees = trace.trees(
        range(miner.graph.num_vertices) if roots is None else roots
    )
    heap: list[tuple[float, int]] = []
    for core in cores:
        tree = next(trees, None)
        if tree is None:
            break
        core.assign_root(tree.root, 0.0, tree)
        heapq.heappush(heap, (core.now, core.pe_id))

    allow_steal = config.granularity == "branch"
    finish = [0.0] * len(cores)
    while heap:
        now, cid = heapq.heappop(heap)
        core = cores[cid]
        if core.has_work():
            core.run(ONE_GROUP)
            heapq.heappush(heap, (core.now, cid))
            continue
        tree = next(trees, None)
        if tree is not None:
            core.assign_root(tree.root, core.now, tree)
            heapq.heappush(heap, (core.now, cid))
            continue
        if allow_steal:
            victim = max(
                (c for c in cores if c.pe_id != cid),
                key=lambda c: c.queue_depth,
                default=None,
            )
            if victim is not None and core.steal_from(victim, now):
                heapq.heappush(heap, (core.now, cid))
                continue
            if any(c.has_work() for c in cores):
                core.now = max(core.now, now) + config.steal_overhead_cycles
                heapq.heappush(heap, (core.now, cid))
                continue
        finish[cid] = core.now

    counts = [0] * len(miner.plans)
    for core in cores:
        for i, c in enumerate(core.counts):
            counts[i] += c
    return RunResult(
        backend="software",
        design=config.design_name,
        cycles=max(finish) if finish else 0.0,
        counts=tuple(counts),
        units=tuple(core.stats for core in cores),
        unit_finish_times=tuple(finish),
        sections={"llc": llc.stats, "dram": dram.stats},
        scalars={
            "num_cores": len(cores),
            "total_steals": sum(core.steals for core in cores),
        },
    )
