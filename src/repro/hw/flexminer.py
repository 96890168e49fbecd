"""The FlexMiner baseline PE (paper sections 2.2-2.3).

FlexMiner exploits only coarse-grained (tree-level) parallelism: each PE
executes a strict DFS on its own search tree with a single merge-based
comparator.  The model reproduces the paper's three inefficiencies:

1. **stalls** — the dependent fetch of ``N(u_i)`` blocks the PE for the
   full shared-cache/DRAM latency (no other task to switch to);
2. **serial set operations** — the level's schedule runs one op at a
   time, each costing ``|A| + |B|`` comparator cycles;
3. **no intra-tree parallelism** — high-degree root trees serialize on
   one PE (the load-imbalance bottleneck of section 2.3).

Neighbor lists are staged through the per-PE private cache (the paper's
c-map-equivalent storage): lists that fit are reused across the level's
serial ops; lists larger than the private capacity are re-fetched from
the shared cache for every op — exactly the re-fetch waste that FINGERS'
set-level streaming avoids (paper Figure 3).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FlexMinerConfig, MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.optrace import OpTrace
from repro.hw.pe import BasePE

__all__ = ["FlexMinerPE"]


class FlexMinerPE(BasePE):
    """Strict-DFS PE with one comparator and stall-on-miss fetches."""

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plans: Sequence,
        config: FlexMinerConfig,
        memcfg: MemoryConfig,
        shared_cache: SectoredLRUCache,
        dram: DRAMModel,
        trace: OpTrace | None = None,
    ) -> None:
        if trace is None:
            trace = self.new_trace(graph, plans, config, memcfg)
        super().__init__(pe_id, graph, plans, memcfg, shared_cache, dram, trace)
        self.config = config
        self.private_cache = SectoredLRUCache(
            config.private_cache_bytes, name=f"pe{pe_id}-private"
        )

    @staticmethod
    def new_trace(
        graph: CSRGraph,
        plans: Sequence,
        config: FlexMinerConfig,
        memcfg: MemoryConfig,
    ) -> OpTrace:
        """The trace this design replays: one task per group, and each
        task's serial comparator cycles (``|A| + |B|`` per op)."""
        return OpTrace(graph, plans, memcfg)

    def step(self) -> float:
        # Strict DFS: every group holds one task, so the group id is
        # also the task id.
        t = self._stack.pop()
        ch = self._chunk
        stats = self.stats
        stats.task_groups += 1
        t0 = self.now
        list_bytes = self._list_bytes
        capacity = self.config.private_cache_bytes

        # Dependent fetch: the PE stalls until every operand list of
        # this level is resident (inefficiency #1).
        fetch_done = self.now
        fetch_v = ch.fetch_v
        for i in range(ch.fetch_ptr[t], ch.fetch_ptr[t + 1]):
            v = fetch_v[i]
            if self.private_cache.access(v, list_bytes[v]):
                fetch_done = max(
                    fetch_done, self.now + self.memcfg.private_cache_hit_latency
                )
            else:
                fetch_done = max(fetch_done, self._fetch_shared(v, self.now))
        stall = max(0.0, fetch_done - self.now)
        stats.stall_cycles += stall
        self.now = fetch_done

        compute = ch.compute[t]
        refetch_penalty = 0.0
        refetch_v = ch.refetch_v
        for i in range(ch.refetch_ptr[t], ch.refetch_ptr[t + 1]):
            v = refetch_v[i]
            if list_bytes[v] > capacity:
                # Oversized list: each additional serial op streams it
                # from the shared cache again.
                refetch_penalty += self._fetch_shared(v, self.now) - self.now
        task_cycles = compute + refetch_penalty + self.config.task_overhead_cycles
        self.now += task_cycles
        stats.tasks += 1
        stats.compute_cycles += compute
        stats.overhead_cycles += self.config.task_overhead_cycles
        self._spawn(ch, t)

        stats.busy_cycles += self.now - t0
        if self.tracer is not None:
            if stall > 0:
                self.tracer.record(self.pe_id, t0, t0 + stall, "stall")
            self.tracer.record(self.pe_id, t0 + stall, self.now, "group",
                               "1 task")
        return self.now
