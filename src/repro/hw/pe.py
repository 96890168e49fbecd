"""Processing-element models: shared replay plus the FINGERS PE.

A *task* is the paper's unit of work: extending the current partial
embedding with one new vertex, which means executing the level's set
operations and spawning children from the materialized candidate set
(section 4).  Both PE models walk the same task tree — the set-op trace
of :mod:`repro.hw.optrace`, built once per run — so they produce
identical embedding counts (a test invariant) and differ only in *when*
cycles elapse:

* the FINGERS PE (here) pops *task groups* (pseudo-DFS, section 4.1),
  overlaps the group's neighbor-list fetches with compute, and runs each
  task's ops on a pool of IUs with segment pairing and load balancing;
* the FlexMiner PE (:mod:`repro.hw.flexminer`) follows strict DFS with a
  single comparator and stalls on every shared-cache miss.

The trace fixes the tree shape and every op's cost; replay keeps what
depends on timing and order: the shared/private caches, DRAM, the NoC,
the stacks and the tracer events.

Each design replays in one loop, :meth:`BasePE.run`, that *runs ahead*:
it processes task groups while the PE is still the earliest event on the
chip, so the chip's event heap is consulted only when another PE is due.
"""

from __future__ import annotations

from math import ceil, inf, nextafter
from typing import Sequence

from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FingersConfig, MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.optrace import OpTrace, RootTree, TraceChunk
from repro.hw.stats import PEStats
from repro.pattern.plan import ExecutionPlan

__all__ = ["BasePE", "FingersPE", "NO_BOUND", "ONE_GROUP", "auto_group_size"]

#: A :meth:`BasePE.run` bound no clock reaches: with no other event
#: pending, a PE replays until its stack is empty.
NO_BOUND = (inf, 0)
#: A :meth:`BasePE.run` bound every clock is past: exactly one group.
ONE_GROUP = (-inf, -1)


def auto_group_size(
    graph: CSRGraph, plans: Sequence[ExecutionPlan], config: FingersConfig
) -> int:
    """The paper's task-group sizing policy (section 4.1).

    "the minimum number of tasks to fully occupy the IUs, where the IU
    count needed for each task is estimated using the average sizes of the
    two input sets" — we estimate work items per op from the average
    degree (long input) and a shrunken candidate set (short input), and
    divide the IU pool by the per-task demand.  The paper notes (and our
    sensitivity benchmark confirms) performance is insensitive to the
    exact estimate.
    """
    avg_deg = max(1.0, graph.avg_degree())
    long_segs = max(1, ceil(avg_deg / config.long_segment_len))
    short_segs = max(1, ceil((avg_deg / 4) / config.short_segment_len))
    items_per_op = max(
        1, min(long_segs, ceil(short_segs / config.max_load) * long_segs)
    )
    ops_per_level = [
        sched.num_ops for plan in plans for sched in plan.levels
    ]
    avg_ops = max(1.0, sum(ops_per_level) / len(ops_per_level))
    est_ius_per_task = min(config.num_ius, max(1, round(avg_ops * items_per_op)))
    group = ceil(config.num_ius / est_ius_per_task)
    return max(1, min(group, config.max_task_group_size))


class BasePE:
    """Trace replay and bookkeeping shared by every PE model.

    The stack holds task-group ids of the current root's trace chunk;
    a PE takes a new root only once its stack is empty, so all queued
    groups belong to one chunk.
    """

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plans: Sequence[ExecutionPlan],
        memcfg: MemoryConfig,
        shared_cache: SectoredLRUCache,
        dram: DRAMModel,
        trace: OpTrace,
        *,
        hit_latency: int | None = None,
    ) -> None:
        self.pe_id = pe_id
        self.graph = graph
        self.plans = list(plans)
        self.memcfg = memcfg
        self.shared_cache = shared_cache
        self.dram = dram
        self.trace = trace
        self._list_bytes = trace.list_bytes
        #: Shared-cache hit latency of this PE's fetches.
        self.hit_latency = (
            memcfg.shared_cache_hit_latency if hit_latency is None
            else hit_latency
        )
        self.noc = None
        self.now = 0.0
        self.stats = PEStats()
        self.counts = [0] * len(self.plans)
        self._chunk: TraceChunk | None = None
        self._stack: list[int] = []
        #: Optional repro.hw.trace.Tracer; set by the chip when tracing.
        self.tracer = None

    @property
    def noc(self) -> NoCModel | None:
        """Shared interconnect; set by the chip (None = ideal wires)."""
        return self._noc

    @noc.setter
    def noc(self, noc: NoCModel | None) -> None:
        self._noc = noc
        # fetch(v, now): N(v) through the shared cache, DRAM and NoC.
        self._fetch_shared = self.shared_cache.fetch_path(
            self._list_bytes, self.hit_latency, self.dram, noc
        )

    # -- work management ------------------------------------------------

    def assign_root(
        self, root: int, time: float, tree: RootTree | None = None
    ) -> None:
        """Schedule the search tree rooted at ``root`` on this PE.

        ``tree`` is the root's entry in a batched trace
        (:meth:`OpTrace.trees`); without it the tree is built on its own.
        """
        self.now = max(self.now, time)
        if tree is None:
            tree = self.trace.tree(root)
        self._chunk = tree.chunk
        self._stack.append(tree.group)
        if self.tracer is not None:
            self.tracer.record(self.pe_id, self.now, self.now, "root", str(root))

    def has_work(self) -> bool:
        return bool(self._stack)

    def run(self, bound: tuple[float, int]) -> float:
        """Replay task groups; return the local clock.

        Processes one group, then keeps going while the stack is
        non-empty and ``(now, pe_id) < bound``.  ``bound`` is the next
        entry of the chip's event heap (:data:`NO_BOUND` when it is
        empty), so the PE stops exactly where the heap would have handed
        control to another PE: every group it runs ahead through would
        have been popped next anyway, because its key is the strict
        minimum (PE ids are distinct, so equal clocks break the same way).
        """
        raise NotImplementedError

    def _horizon(self, bound: tuple[float, int]) -> float:
        """The clock at which this PE stops being the earliest event."""
        at, pe_id = bound
        return nextafter(at, inf) if self.pe_id < pe_id else at

    def _spawn_merged(self, group: int) -> int:
        """Count a merged multi-pattern root's leaves per plan and push
        its child groups, in plan order; return the leaves."""
        found = 0
        for plan, leaves, lo, hi in self._chunk.merged[group]:
            self.counts[plan] += leaves
            found += leaves
            self._stack.extend(range(lo, hi))
        return found


class FingersPE(BasePE):
    """The FINGERS PE: pseudo-DFS task groups over a pool of IUs."""

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plans: Sequence[ExecutionPlan],
        config: FingersConfig,
        memcfg: MemoryConfig,
        shared_cache: SectoredLRUCache,
        dram: DRAMModel,
        trace: OpTrace | None = None,
    ) -> None:
        if trace is None:
            trace = self.new_trace(graph, plans, config, memcfg)
        super().__init__(pe_id, graph, plans, memcfg, shared_cache, dram, trace)
        self.config = config
        self.group_size = trace.group_size

    @staticmethod
    def new_trace(
        graph: CSRGraph,
        plans: Sequence[ExecutionPlan],
        config: FingersConfig,
        memcfg: MemoryConfig,
    ) -> OpTrace:
        """The trace this design replays: IU/divider group aggregates
        for task groups of the configured (or automatic) size."""
        group = (
            config.task_group_size
            if config.task_group_size is not None
            else auto_group_size(graph, plans, config)
        )
        return OpTrace(graph, plans, memcfg, group_size=group, fingers=config)

    def step(self) -> float:
        """Process exactly one task group."""
        return self.run(ONE_GROUP)

    def run(self, bound: tuple[float, int]) -> float:
        """Replay task groups through the 5-stage macro pipeline, until
        another PE is due (:meth:`BasePE.run`).

        The group's tasks run *concurrently*: all neighbor-list fetches
        issue at group start (misses overlap with the compute of tasks
        whose data is resident — section 4.1), and the tasks' work items
        share the IU pool together, which is precisely why the group size
        is chosen as "the minimum number of tasks to fully occupy the
        IUs".  The group's latency is the slowest pipeline stage:

        * IU stage — total item cycles over the pool, floored by the
          longest single item;
        * divider stage — balanced head-list matching;
        * I/O stage — the serial round-robin input distribution and
          result collection, ``2`` cycles per work item (section 4.3);
        * issue stage — one task pops/pushes per cycle pair;

        plus a fixed pipeline-fill overhead, plus any residual memory
        stall the group could not hide.  Candidate sets live in the
        private cache; each task whose inherited footprint (times the
        group size) overflows it pays a read-back from the shared cache
        ("only spill to the shared cache if they overflow", section 4).

        The serial I/O floor is pooled over the whole group: the
        round-robin distributor/collector handles one work item per
        rotation slot on each of the distribute and collect paths
        (section 4.3), so the floor grows with the item count — which
        is what iso-area segment shrinking inflates (Figure 12).
        """
        horizon = self._horizon(bound)
        pe_id, tracer, counts = self.pe_id, self.tracer, self.counts
        fetch = self._fetch_shared
        stack = self._stack
        pop, extend = stack.pop, stack.extend
        ch = self._chunk
        g_lo, g_hi, g_plan, g_leaf = ch.g_lo, ch.g_hi, ch.g_plan, ch.g_leaf
        g_push_lo, g_push_hi = ch.g_push_lo, ch.g_push_hi
        g_total, g_divider, g_items = ch.g_total, ch.g_divider, ch.g_items
        g_spills, g_busy, g_capacity = ch.g_spills, ch.g_busy, ch.g_capacity
        g_max_item, g_max_divider = ch.g_max_item, ch.g_max_divider
        fetch_ptr, fetch_v, iu_phase = ch.fetch_ptr, ch.fetch_v, ch.iu_phase
        cfg = self.config
        num_ius, num_dividers = cfg.num_ius, cfg.num_dividers
        io_cycles_per_item = cfg.io_cycles_per_item
        overhead = cfg.task_overhead_cycles
        spill_latency = float(self.memcfg.shared_cache_hit_latency)
        st = self.stats
        tasks, task_groups, fetches = st.tasks, st.task_groups, st.neighbor_fetches
        iu_busy, work_items = st.iu_busy_cycles, st.num_work_items
        balance_busy, balance_capacity = st.balance_busy_sum, st.balance_capacity_sum
        private_spills, found = st.private_spills, st.embeddings_found
        stall, compute = st.stall_cycles, st.compute_cycles
        fill_total, busy = st.overhead_cycles, st.busy_cycles
        now = self.now
        while True:
            g = pop()
            task_groups += 1
            t0 = now
            lo, hi = g_lo[g], g_hi[g]

            # IU phase of the latest-ready task (the last one, on ties).
            latest_ready = -1.0
            tail_after_ready = 0.0
            for t in range(lo, hi):
                ready = t0
                for v in fetch_v[fetch_ptr[t]:fetch_ptr[t + 1]]:
                    done = fetch(v, t0)
                    if done > ready:
                        ready = done
                if ready >= latest_ready:
                    latest_ready = ready
                    tail_after_ready = iu_phase[t]
            fetches += fetch_ptr[hi] - fetch_ptr[lo]

            num_tasks = hi - lo
            sum_items_cycles = g_total[g]
            num_items = g_items[g]
            spills = g_spills[g]
            tasks += num_tasks
            iu_busy += sum_items_cycles
            work_items += num_items
            balance_busy += g_busy[g]
            balance_capacity += g_capacity[g]
            private_spills += spills
            plan = g_plan[g]
            if plan >= 0:
                leaves = g_leaf[g]
                counts[plan] += leaves
                found += leaves
                extend(range(g_push_lo[g], g_push_hi[g]))
            else:
                found += self._spawn_merged(g)

            # The slowest stage: IU pool, longest item, dividers, longest
            # divider pass, serial I/O, issue (pop + push per task).
            compute_bound = sum_items_cycles / num_ius
            for stage in (
                g_max_item[g],
                g_divider[g] / num_dividers if num_dividers else 0.0,
                g_max_divider[g],
                float(num_items * io_cycles_per_item),
                num_tasks * 2.0,
            ):
                if stage > compute_bound:
                    compute_bound = stage
            fill = overhead + spills * spill_latency
            end_compute = t0 + compute_bound + fill
            end_memory = latest_ready + tail_after_ready
            end = end_compute
            if end_memory > end_compute:
                end = end_memory
                stall += end_memory - end_compute
            compute += compute_bound
            fill_total += fill
            now = end
            busy += now - t0
            if tracer is not None:
                tracer.record(pe_id, t0, end_compute, "group",
                              f"{num_tasks} tasks")
                if end_memory > end_compute:
                    tracer.record(pe_id, end_compute, end, "stall")
            if not stack or now >= horizon:
                break
        self.now = now
        st.tasks, st.task_groups, st.neighbor_fetches = tasks, task_groups, fetches
        st.iu_busy_cycles, st.num_work_items = iu_busy, work_items
        st.balance_busy_sum, st.balance_capacity_sum = balance_busy, balance_capacity
        st.private_spills, st.embeddings_found = private_spills, found
        st.stall_cycles, st.compute_cycles = stall, compute
        st.overhead_cycles, st.busy_cycles = fill_total, busy
        return now
