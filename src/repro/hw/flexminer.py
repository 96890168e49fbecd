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
from repro.hw.pe import ONE_GROUP, BasePE

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
        """Process exactly one task."""
        return self.run(ONE_GROUP)

    def run(self, bound: tuple[float, int]) -> float:
        """Replay tasks in strict DFS until another PE is due
        (:meth:`BasePE.run`).  Every group holds one task, so the group
        id is also the task id."""
        horizon = self._horizon(bound)
        pe_id, tracer, counts = self.pe_id, self.tracer, self.counts
        fetch = self._fetch_shared
        private_access = self.private_cache.access
        list_bytes = self._list_bytes
        stack = self._stack
        pop, extend = stack.pop, stack.extend
        ch = self._chunk
        g_plan, g_leaf = ch.g_plan, ch.g_leaf
        g_push_lo, g_push_hi = ch.g_push_lo, ch.g_push_hi
        fetch_ptr, fetch_v = ch.fetch_ptr, ch.fetch_v
        refetch_ptr, refetch_v = ch.refetch_ptr, ch.refetch_v
        task_compute = ch.compute
        capacity = self.config.private_cache_bytes
        overhead = self.config.task_overhead_cycles
        private_latency = self.memcfg.private_cache_hit_latency
        st = self.stats
        tasks, task_groups, fetches = st.tasks, st.task_groups, st.neighbor_fetches
        stall_total, compute_total = st.stall_cycles, st.compute_cycles
        overhead_total, busy = st.overhead_cycles, st.busy_cycles
        found = st.embeddings_found
        now = self.now
        while True:
            t = pop()
            task_groups += 1
            t0 = now

            # Dependent fetch: the PE stalls until every operand list of
            # this level is resident (inefficiency #1).
            fetch_done = now
            for v in fetch_v[fetch_ptr[t]:fetch_ptr[t + 1]]:
                if private_access(v, list_bytes[v]):
                    done = now + private_latency
                else:
                    fetches += 1
                    done = fetch(v, now)
                if done > fetch_done:
                    fetch_done = done
            stall = fetch_done - now
            stall_total += stall
            now = fetch_done

            compute = task_compute[t]
            refetch_penalty = 0.0
            for v in refetch_v[refetch_ptr[t]:refetch_ptr[t + 1]]:
                if list_bytes[v] > capacity:
                    # Oversized list: each additional serial op streams
                    # it from the shared cache again.
                    fetches += 1
                    refetch_penalty += fetch(v, now) - now
            now += compute + refetch_penalty + overhead
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
            if tracer is not None:
                if stall > 0:
                    tracer.record(pe_id, t0, t0 + stall, "stall")
                tracer.record(pe_id, t0 + stall, now, "group", "1 task")
            if not stack or now >= horizon:
                break
        self.now = now
        st.tasks, st.task_groups, st.neighbor_fetches = tasks, task_groups, fetches
        st.stall_cycles, st.compute_cycles = stall_total, compute_total
        st.overhead_cycles, st.busy_cycles = overhead_total, busy
        st.embeddings_found = found
        return now
