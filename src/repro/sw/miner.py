"""Cycle-approximate multi-core software miner with work stealing.

Each core replays the same set-op trace as the hardware PEs
(:mod:`repro.hw.optrace`, through :class:`repro.hw.pe.BasePE`), but with
software costs: merges at ``elements_per_cycle``, a per-task scheduling
overhead, and — under branch granularity — a steal latency whenever an
idle core takes work from another core's deque.  Steals take the
*oldest* (shallowest) task, the classic work-first stealing policy that
moves the largest subtrees.

This quantifies the paper's section 3.5 claim: branch-level parallelism
helps software too (it fixes the tree-granularity load imbalance on
power-law graphs), but the per-task overheads put a floor under how fine
software can slice the work, which is exactly the gap the FINGERS
hardware closes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.optrace import OpTrace
from repro.hw.pe import BasePE
from repro.sw.config import SoftwareConfig

__all__ = ["SoftwareMiner", "simulate_software"]

#: LLC hit latency in core cycles (deeper hierarchy than the
#: accelerator's dedicated shared cache).
_LLC_HIT_LATENCY = 40


class _Core(BasePE):
    """One CPU worker: strict DFS locally, stealable deque of tasks."""

    def __init__(self, core_id, graph, plans, config, memcfg, llc, dram, trace):
        super().__init__(core_id, graph, plans, memcfg, llc, dram, trace)
        self.config = config
        self.steals = 0

    @staticmethod
    def new_trace(graph, plans, config, memcfg) -> OpTrace:
        """One task per group; compute at the core's merge throughput."""
        return OpTrace(
            graph, plans, memcfg, elements_per_cycle=config.elements_per_cycle
        )

    def _fetch_shared(self, v: int, now: float) -> float:  # override latency
        self.stats.neighbor_fetches += 1
        hit = self.shared_cache.access(v, self._list_bytes[v])
        if hit:
            return now + _LLC_HIT_LATENCY
        done = self.dram.access(now, self._list_bytes[v])
        return done + _LLC_HIT_LATENCY

    def step(self) -> float:
        # One task per group: the group id is also the task id.
        t = self._stack.pop()
        ch = self._chunk
        t0 = self.now
        fetch_done = self.now
        fetch_v = ch.fetch_v
        for i in range(ch.fetch_ptr[t], ch.fetch_ptr[t + 1]):
            fetch_done = max(fetch_done, self._fetch_shared(fetch_v[i], self.now))
        self.stats.stall_cycles += max(0.0, fetch_done - self.now)
        self.now = fetch_done
        compute = ch.compute[t]
        self.now += compute + self.config.task_overhead_cycles
        self.stats.tasks += 1
        self.stats.compute_cycles += compute
        self.stats.overhead_cycles += self.config.task_overhead_cycles
        self._spawn(ch, t)
        self.stats.busy_cycles += self.now - t0
        return self.now

    # -- stealing interface ---------------------------------------------

    def steal_from(self, victim: "_Core", now: float) -> bool:
        """Take the victim's oldest task group; returns success.

        Only victims with *surplus* work (two or more queued groups) are
        eligible: stealing a core's last group would just bounce it
        between idle thieves (each steal defers execution by the steal
        latency) without anyone ever running it.
        """
        if len(victim._stack) < 2:
            return False
        self._stack.append(victim._stack.pop(0))
        self._chunk = victim._chunk
        self.now = max(self.now, now) + self.config.steal_overhead_cycles
        self.steals += 1
        return True

    @property
    def queue_depth(self) -> int:
        return len(self._stack)


class SoftwareMiner:
    """Driver: schedules roots over cores, with optional work stealing."""

    def __init__(
        self,
        graph: CSRGraph,
        plans: Sequence,
        config: SoftwareConfig,
        memcfg: MemoryConfig | None = None,
    ) -> None:
        self.graph = graph
        self.plans = list(plans)
        self.config = config
        base_mem = memcfg or MemoryConfig()
        self.memcfg = base_mem.with_shared_cache(config.llc_bytes)

    def run(self, roots: Iterable[int] | None = None) -> RunResult:
        llc = SectoredLRUCache(self.memcfg.shared_cache_bytes, name="llc")
        dram = DRAMModel(self.memcfg)
        trace = _Core.new_trace(self.graph, self.plans, self.config, self.memcfg)
        cores = [
            _Core(i, self.graph, self.plans, self.config, self.memcfg, llc,
                  dram, trace)
            for i in range(self.config.num_cores)
        ]
        trees = trace.trees(
            range(self.graph.num_vertices) if roots is None else roots
        )
        heap: list[tuple[float, int]] = []
        for core in cores:
            tree = next(trees, None)
            if tree is None:
                break
            core.assign_root(tree.root, 0.0, tree)
            heapq.heappush(heap, (core.now, core.pe_id))

        allow_steal = self.config.granularity == "branch"
        finish = [0.0] * len(cores)
        while heap:
            now, cid = heapq.heappop(heap)
            core = cores[cid]
            if core.has_work():
                core.step()
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
                    # Nothing stealable right now, but a busy core will
                    # push children shortly: poll again after a steal
                    # latency (bounded spinning, as a real scheduler does).
                    core.now = max(core.now, now) + self.config.steal_overhead_cycles
                    heapq.heappush(heap, (core.now, cid))
                    continue
            finish[cid] = core.now

        counts = [0] * len(self.plans)
        for core in cores:
            for i, c in enumerate(core.counts):
                counts[i] += c
        stats = [core.stats for core in cores]
        return RunResult(
            backend="software",
            design=self.config.design_name,
            cycles=max(finish) if finish else 0.0,
            counts=tuple(counts),
            units=tuple(stats),
            unit_finish_times=tuple(finish),
            sections={"llc": llc.stats, "dram": dram.stats},
            scalars={
                "num_cores": len(cores),
                "total_steals": sum(core.steals for core in cores),
            },
        )


def simulate_software(
    graph: CSRGraph,
    workload,
    config: SoftwareConfig,
    *,
    roots: Iterable[int] | None = None,
    jobs: int | None = None,
    shards: int | None = None,
) -> RunResult:
    """Run one mining job on the software model.

    Accepts the same workload specs as :func:`repro.hw.api.simulate`.
    ``jobs``/``shards`` select the sharded model (one cold miner per
    root shard, exact merges, makespan = max over shards) with the same
    determinism contract as the chip simulator — see
    docs/PARALLELISM.md.  Delegates to the registered ``software``
    backend (:mod:`repro.core.backends`).
    """
    from repro.core.backend import get_backend

    return get_backend("software").run(
        graph, workload, config, roots=roots, jobs=jobs, shards=shards
    )
