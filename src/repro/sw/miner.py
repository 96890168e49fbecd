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
from repro.hw.pe import NO_BOUND, BasePE
from repro.sw.config import SoftwareConfig

__all__ = ["SoftwareMiner"]

#: LLC hit latency in core cycles (deeper hierarchy than the
#: accelerator's dedicated shared cache).
_LLC_HIT_LATENCY = 40


class _Core(BasePE):
    """One CPU worker: strict DFS locally, stealable deque of tasks."""

    def __init__(self, core_id, graph, plans, config, memcfg, llc, dram, trace):
        super().__init__(core_id, graph, plans, memcfg, llc, dram, trace,
                         hit_latency=_LLC_HIT_LATENCY)
        self.config = config
        self.steals = 0

    @staticmethod
    def new_trace(graph, plans, config, memcfg) -> OpTrace:
        """One task per group; compute at the core's merge throughput."""
        return OpTrace(
            graph, plans, memcfg, elements_per_cycle=config.elements_per_cycle
        )

    def run(self, bound: tuple[float, int]) -> float:
        """Replay tasks in strict DFS until another core is due
        (:meth:`BasePE.run`), stalling on every LLC fetch.  One task per
        group: the group id is also the task id."""
        horizon = self._horizon(bound)
        counts = self.counts
        fetch = self._fetch_shared
        stack = self._stack
        pop, extend = stack.pop, stack.extend
        ch = self._chunk
        g_plan, g_leaf = ch.g_plan, ch.g_leaf
        g_push_lo, g_push_hi = ch.g_push_lo, ch.g_push_hi
        fetch_ptr, fetch_v, task_compute = ch.fetch_ptr, ch.fetch_v, ch.compute
        overhead = self.config.task_overhead_cycles
        st = self.stats
        tasks, fetches, found = st.tasks, st.neighbor_fetches, st.embeddings_found
        stall_total, compute_total = st.stall_cycles, st.compute_cycles
        overhead_total, busy = st.overhead_cycles, st.busy_cycles
        now = self.now
        while True:
            t = pop()
            t0 = now
            fetch_done = now
            lo, hi = fetch_ptr[t], fetch_ptr[t + 1]
            fetches += hi - lo
            for v in fetch_v[lo:hi]:
                done = fetch(v, now)
                if done > fetch_done:
                    fetch_done = done
            stall_total += fetch_done - now
            now = fetch_done
            compute = task_compute[t]
            now += compute + overhead
            tasks += 1
            compute_total += compute
            overhead_total += overhead
            plan = g_plan[t]
            if plan >= 0:
                leaves = g_leaf[t]
                counts[plan] += leaves
                found += leaves
                extend(range(g_push_lo[t], g_push_hi[t]))
            else:
                found += self._spawn_merged(t)
            busy += now - t0
            if not stack or now >= horizon:
                break
        self.now = now
        st.tasks, st.neighbor_fetches, st.embeddings_found = tasks, fetches, found
        st.stall_cycles, st.compute_cycles = stall_total, compute_total
        st.overhead_cycles, st.busy_cycles = overhead_total, busy
        return now

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
        """Replay every root's tree on the cores, in global-time order.

        Cores advance in one event loop; each event runs a core ahead
        (:meth:`BasePE.run`) until another core is due.  A core whose
        stack is empty takes the next root, or under branch granularity
        steals, and otherwise finishes.
        """
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
            if not core.has_work():
                tree = next(trees, None)
                if tree is None:
                    if allow_steal and self._steal_or_poll(core, cores, now):
                        heapq.heappush(heap, (core.now, cid))
                        continue
                    finish[cid] = core.now
                    continue
                core.assign_root(tree.root, core.now, tree)
            core.run(heap[0] if heap else NO_BOUND)
            heapq.heappush(heap, (core.now, cid))

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

    def _steal_or_poll(self, core: _Core, cores: list[_Core], now: float) -> bool:
        """Give an idle ``core`` something to wait for at ``now``.

        It steals from the deepest other queue; if nothing is stealable
        but some core still has work, a busy core will push children
        shortly, so it polls again after a steal latency (bounded
        spinning, as a real scheduler does).  False once no work is left.
        """
        victim = max(
            (c for c in cores if c.pe_id != core.pe_id),
            key=lambda c: c.queue_depth,
            default=None,
        )
        if victim is not None and core.steal_from(victim, now):
            return True
        if any(c.has_work() for c in cores):
            core.now = max(core.now, now) + self.config.steal_overhead_cycles
            return True
        return False
