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
"""

from __future__ import annotations

from math import ceil
from typing import Sequence

from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FingersConfig, MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.optrace import OpTrace, RootTree, TraceChunk
from repro.hw.stats import PEStats
from repro.pattern.plan import ExecutionPlan

__all__ = ["BasePE", "FingersPE", "auto_group_size"]


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
    ) -> None:
        self.pe_id = pe_id
        self.graph = graph
        self.plans = list(plans)
        self.memcfg = memcfg
        self.shared_cache = shared_cache
        self.dram = dram
        self.trace = trace
        self._list_bytes = trace.list_bytes
        #: Shared interconnect; set by the chip (None = ideal wires).
        self.noc: NoCModel | None = None
        self.now = 0.0
        self.stats = PEStats()
        self.counts = [0] * len(self.plans)
        self._chunk: TraceChunk | None = None
        self._stack: list[int] = []
        #: Optional repro.hw.trace.Tracer; set by the chip when tracing.
        self.tracer = None

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

    def step(self) -> float:
        """Process one task group; advance and return the local clock."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------

    def _fetch_shared(self, v: int, now: float) -> float:
        """Fetch ``N(v)`` through the NoC and shared cache."""
        self.stats.neighbor_fetches += 1
        num_bytes = self._list_bytes[v]
        hit = self.shared_cache.access(v, num_bytes)
        if hit:
            done = now + self.memcfg.shared_cache_hit_latency
        else:
            done = (
                self.dram.access(now, num_bytes)
                + self.memcfg.shared_cache_hit_latency
            )
        if self.noc is not None:
            done = self.noc.transfer(done, num_bytes)
        return done

    def _spawn(self, chunk: TraceChunk, group: int) -> None:
        """Count the group's leaves and push its child groups."""
        plan = chunk.g_plan[group]
        if plan >= 0:
            outs = ((plan, chunk.g_leaf[group], chunk.g_push_lo[group],
                     chunk.g_push_hi[group]),)
        else:
            outs = chunk.merged[group]
        for plan, leaves, lo, hi in outs:
            if leaves:
                self.counts[plan] += leaves
                self.stats.embeddings_found += leaves
            if hi > lo:
                self._stack.extend(range(lo, hi))


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
        """Process one task group through the 5-stage macro pipeline.

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
        """
        g = self._stack.pop()
        ch = self._chunk
        stats = self.stats
        stats.task_groups += 1
        t0 = self.now
        cfg = self.config
        lo, hi = ch.g_lo[g], ch.g_hi[g]
        fetch_ptr, fetch_v, iu_phase = ch.fetch_ptr, ch.fetch_v, ch.iu_phase

        # IU phase of the latest-ready task (the last one, on ties).
        latest_ready = -1.0
        tail_after_ready = 0.0
        for t in range(lo, hi):
            r = t0
            for i in range(fetch_ptr[t], fetch_ptr[t + 1]):
                r = max(r, self._fetch_shared(fetch_v[i], t0))
            if r >= latest_ready:
                latest_ready = r
                tail_after_ready = iu_phase[t]

        num_tasks = hi - lo
        sum_items_cycles = ch.g_total[g]
        sum_divider = ch.g_divider[g]
        num_items = ch.g_items[g]
        spills = ch.g_spills[g]
        spill_penalty = spills * float(self.memcfg.shared_cache_hit_latency)
        stats.tasks += num_tasks
        stats.iu_busy_cycles += sum_items_cycles
        stats.num_work_items += num_items
        stats.balance_busy_sum += ch.g_busy[g]
        stats.balance_capacity_sum += ch.g_capacity[g]
        stats.private_spills += spills
        self._spawn(ch, g)

        # The serial I/O floor is pooled over the whole group: the
        # round-robin distributor/collector handles one work item per
        # rotation slot on each of the distribute and collect paths
        # (section 4.3), so the floor grows with the item count — which
        # is what iso-area segment shrinking inflates (Figure 12).
        io_floor = float(num_items * cfg.io_cycles_per_item)
        compute_bound = max(
            sum_items_cycles / cfg.num_ius,
            ch.g_max_item[g],
            sum_divider / cfg.num_dividers if cfg.num_dividers else 0.0,
            ch.g_max_divider[g],
            io_floor,
            num_tasks * 2.0,  # issue stage: pop + push per task
        )
        fill = cfg.task_overhead_cycles + spill_penalty
        end_compute = t0 + compute_bound + fill
        end_memory = latest_ready + tail_after_ready
        end = max(end_compute, end_memory)
        stats.stall_cycles += max(0.0, end_memory - end_compute)
        stats.compute_cycles += compute_bound
        stats.overhead_cycles += fill
        self.now = end
        stats.busy_cycles += self.now - t0
        if self.tracer is not None:
            self.tracer.record(self.pe_id, t0, end_compute, "group",
                               f"{num_tasks} tasks")
            if end_memory > end_compute:
                self.tracer.record(self.pe_id, end_compute, end, "stall")
        return self.now
