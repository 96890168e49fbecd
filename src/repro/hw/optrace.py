"""Set-op traces: every task of a run's search trees, built batched.

The cycle models need, per task, only quantities fixed by the search
tree and the op *inputs* — never by timing: which neighbor lists the
task reads, how many children it spawns (or leaves it counts), the
sizes of the candidate sets its ancestors hold, and the cost of its set
ops on the FINGERS IU pool or on a merge comparator.  This module
computes all of them breadth-first over a batch of roots with the
frontier engine's segmented kernels (:mod:`repro.mining.frontier`) and
stores them as flat replay tables.  The PE models
(:mod:`repro.hw.pe`, :mod:`repro.hw.flexminer`, :mod:`repro.sw.miner`)
then only replay the order-dependent parts: caches, DRAM, NoC, stacks
and stealing.

Leaf tasks only count, so the last plan level is counted, not built:
when the op that builds the leaf candidates is its level's last (and
not a copy), :func:`repro.mining.frontier.leaf_counts` probes only each
source's part above the symmetry-order bound and sums the survivors.
The op still enters the task's op list with its source, so its IU and
comparator costs are unchanged.  Hub rows longer than the bitset width
take the frontier's word paths: leaf counts popcount bitsets, and wide
level ops decode ``bits(source) & A[v]`` back to ids.  Where the
build's time goes on the ``sim-chip`` benchmark is in
docs/TIMING_MODEL.md §8.

Task and group layout
---------------------
A *block* holds the tasks of one plan level (or the merged multi-pattern
root) for every root of a chunk, in parent order; a task's children
are therefore consecutive rows of the child block.  Children are cut
into *task groups* of ``group_size`` consecutive tasks — exactly the
groups a PE pushes — and groups are numbered block by block, so the
child groups of consecutive tasks form one contiguous id range.  A PE
stack is a list of group ids; pushing a group's children is one
``range``.

The trace is rebuilt by every run (nothing is cached across runs) and
in root chunks whose replay tables stay near a byte budget, so memory
does not grow with the number of roots.  Kernel choice is functional
only (docs/KERNELS.md), so no timing quantity here depends on which
membership kernel the graph gets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hw.config import FingersConfig, MemoryConfig
from repro.mining import frontier as fr
from repro.pattern.plan import ExecutionPlan, OpKind, SetOp
from repro.setops.segmented import SegmentedSet

__all__ = [
    "OpTrace",
    "RootTree",
    "Rows",
    "TraceChunk",
    "iu_task_stats",
]

#: Host bytes per replay-table entry (a list slot plus its number object).
_ENTRY_BYTES = 40
#: Replay tables built at once stay near this many bytes.
TRACE_BUDGET_BYTES = 8 << 20
#: Roots in the first chunk; later chunks scale to the budget.
_FIRST_CHUNK_ROOTS = 64
#: Task-divider pipeline cycles to load a chunk's long heads.
_CHUNK_SETUP_CYCLES = 2
#: Pairing-regime bounds of the IU model (see :func:`_pairing_costs`).
_SMALL_LONG_HEADS = 6
_SMALL_SHORT_HEADS = 12


def _ceil_div(a, b):
    return -(-a // b)


# ----------------------------------------------------------------------
# Vectorized IU / divider model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Rows:
    """Sorted id lists ``values[starts[i] : starts[i] + lens[i]]``."""

    values: np.ndarray
    starts: np.ndarray
    lens: np.ndarray

    @staticmethod
    def of(seg: SegmentedSet, sel: np.ndarray | None = None) -> "Rows":
        """Rows of ``seg``, or rows ``sel`` of it (without copying ids)."""
        rows = Rows(seg.values, seg.offsets[:-1], np.diff(seg.offsets))
        return rows if sel is None else rows.take(sel)

    @staticmethod
    def neighbors(graph: CSRGraph, vertices: np.ndarray) -> "Rows":
        starts = graph.indptr[vertices]
        return Rows(graph.indices, starts, graph.indptr[vertices + 1] - starts)

    def take(self, idx) -> "Rows":
        return Rows(self.values, self.starts[idx], self.lens[idx])


def _flat_index(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, owning row, index within row) of ``counts``-sized rows."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    row = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return offsets, row, np.arange(offsets[-1], dtype=np.int64) - offsets[row]


def _row_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    cum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def _row_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    out = np.zeros(offsets.size - 1, dtype=np.int64)
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty])
    return out


def _round_robin_duration(
    row: np.ndarray, key: np.ndarray, cost: np.ndarray, count: np.ndarray,
    num_rows: int, num_ius: int,
) -> np.ndarray:
    """Busiest IU per row when each row's items are dealt round-robin.

    Items come as *runs* — ``count`` items of equal ``cost`` — ordered
    within a row by ``key``; every row has at least one run.
    """
    order = np.lexsort((key, row))
    row, cost, count = row[order], cost[order], count[order]
    first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    ends = np.cumsum(count)
    starts = ends - count
    starts -= np.repeat(starts[first], np.diff(np.r_[first, row.size]))
    size = num_rows * num_ius
    # A one-item run lands on IU ``start % P``.
    one = count == 1
    busy = np.zeros(size, dtype=np.float64)
    busy += np.bincount(
        row[one] * num_ius + starts[one] % num_ius,
        weights=cost[one], minlength=size,
    )
    # Longer runs: items j in [start, end) on IU i number
    # f(end) - f(start), with f(n) = (n - i + P - 1) // P.
    many = np.flatnonzero(count > 1)
    ius = np.arange(num_ius, dtype=np.int64)
    step = max(1, (1 << 20) // num_ius)
    for a in range(0, many.size, step):
        m = many[a : a + step]
        lo, hi = starts[m, None], starts[m, None] + count[m, None]
        dealt = (hi - ius + num_ius - 1) // num_ius - (
            lo - ius + num_ius - 1
        ) // num_ius
        busy += np.bincount(
            (row[m, None] * num_ius + ius).ravel(),
            weights=(cost[m, None] * dealt).ravel(), minlength=size,
        )
    # Float sums of integer cycles: exact below 2**53.
    return busy.reshape(num_rows, num_ius).max(axis=1).astype(np.int64)


def _pairing_costs(
    short: Rows, long: Rows, keep_unpaired: bool, cfg: FingersConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (items, total cycles, largest item, busiest-IU duration)
    of segment-paired ops whose short/long roles are already assigned.

    Three pairing regimes emit the same item multiset in different
    orders, which matters only for the round-robin duration of ops with
    more items than IUs: a single long segment (the long set fits one
    segment; items stream its actual length), small ops (at most 6 long
    and 12 short heads; items in long-segment order), and the general
    load table (all full items first, then remainders, then unpaired).
    """
    ll, sl = cfg.long_segment_len, cfg.short_segment_len
    mload, num_ius = cfg.max_load, cfg.num_ius
    s_len, l_len = short.lens, long.lens
    n_lh = _ceil_div(l_len, ll)
    n_sh = _ceil_div(s_len, sl)

    # Load table: short segments overlapping each long segment.  Heads
    # and short-segment bounds are keyed by row so one searchsorted over
    # all rows finds each short segment's long-segment span.
    h_off, h_row, h_idx = _flat_index(n_lh)
    heads = long.values[long.starts[h_row] + h_idx * ll].astype(np.int64)
    h_key = (h_row << 31) | heads
    _, s_row, s_idx = _flat_index(n_sh)
    base = short.starts[s_row]
    first = short.values[base + s_idx * sl].astype(np.int64)
    last = short.values[
        base + np.minimum((s_idx + 1) * sl, s_len[s_row]) - 1
    ].astype(np.int64)
    row_key = s_row << 31
    own = h_off[s_row]
    lo = np.searchsorted(h_key, row_key | first, side="right") - own - 1
    hi = np.searchsorted(h_key, row_key | last, side="right") - own - 1
    valid = hi >= 0
    num_heads = int(h_off[-1])
    diff = np.bincount(
        (own + np.maximum(lo, 0))[valid], minlength=num_heads + 1
    ) - np.bincount((own + hi + 1)[valid], minlength=num_heads + 1)
    loads = np.cumsum(diff[:-1])

    keep = int(keep_unpaired)
    paired = loads > 0
    cell_items = np.where(paired, _ceil_div(loads, mload), keep)
    cell_total = np.where(paired, cell_items * ll + loads * sl, keep * ll)
    cell_max = np.where(
        paired, ll + np.minimum(loads, mload) * sl, keep * ll
    )
    items = _row_sum(cell_items, h_off)
    total = _row_sum(cell_total, h_off)
    largest = _row_max(cell_max, h_off)

    # Single long segment: items stream the actual long length, and the
    # last one only the short ids that exist.
    single = (l_len <= ll) & (l_len > 0)
    s_load = loads[h_off[:-1][single]]
    s_l, s_s = l_len[single], s_len[single]
    q = np.maximum(_ceil_div(s_load, mload) - 1, 0)
    full_a = s_l + mload * sl
    last_a = s_l + np.minimum((s_load - q * mload) * sl, s_s)
    has = s_load > 0
    items[single] = np.where(has, q + 1, keep)
    total[single] = np.where(has, q * full_a + last_a, keep * s_l)
    largest[single] = np.where(has, np.where(q > 0, full_a, last_a), keep * s_l)

    duration = largest.copy()
    over = items > num_ius
    if num_ius == 1:
        duration[over] = total[over]
    elif over.any():
        duration[over] = _pairing_round_robin(
            over, single, n_lh, n_sh, h_off, h_row, loads, l_len, s_len,
            keep, cfg,
        )
    return items, total, largest, duration


def _pairing_round_robin(
    over, single, n_lh, n_sh, h_off, h_row, loads, l_len, s_len, keep, cfg,
) -> np.ndarray:
    """Round-robin durations of the rows in ``over``, item order per
    pairing regime (see :func:`_pairing_costs`)."""
    ll, sl, mload = cfg.long_segment_len, cfg.short_segment_len, cfg.max_load
    full = ll + mload * sl
    local = np.cumsum(over) - 1  # row -> index among the ``over`` rows
    small = ~single & (n_lh <= _SMALL_LONG_HEADS) & (n_sh <= _SMALL_SHORT_HEADS)
    runs: list[tuple[np.ndarray, ...]] = []

    rows = np.flatnonzero(over & single)
    if rows.size:
        load = loads[h_off[rows]]
        q = _ceil_div(load, mload) - 1
        last = l_len[rows] + np.minimum((load - q * mload) * sl, s_len[rows])
        r = local[rows]
        runs.append((r, np.zeros_like(r), l_len[rows] + mload * sl, q))
        runs.append((r, np.ones_like(r), last, np.ones_like(r)))

    cells = np.flatnonzero((over & small)[h_row])
    if cells.size:
        load = loads[cells]
        r = local[h_row[cells]]
        j = cells - h_off[h_row[cells]]
        q = np.where(load > 0, _ceil_div(load, mload) - 1, 0)
        runs.append((r, 2 * j, np.full_like(r, full), q))
        runs.append((
            r, 2 * j + 1,
            np.where(load > 0, ll + (load - q * mload) * sl, ll),
            np.where(load > 0, 1, keep),
        ))

    general = over & ~single & ~small
    rows = np.flatnonzero(general)
    if rows.size:
        cells = np.flatnonzero(general[h_row])
        load = loads[cells]
        r = local[rows]
        runs.append((
            r, np.zeros_like(r), np.full_like(r, full),
            _row_sum(np.where(general[h_row], loads // mload, 0), h_off)[rows],
        ))
        rem = load % mload
        rc = local[h_row[cells]]
        runs.append((
            rc, 1 + cells - h_off[h_row[cells]], ll + rem * sl,
            (rem > 0).astype(np.int64),
        ))
        unpaired = _row_sum(np.where(general[h_row], loads == 0, 0), h_off)
        runs.append((
            r, np.full_like(r, 1 << 40), np.full_like(r, ll),
            keep * unpaired[rows],
        ))

    row, key, cost, count = (np.concatenate(parts) for parts in zip(*runs))
    return _round_robin_duration(
        row, key, cost, count, int(over.sum()), cfg.num_ius
    )


@dataclass
class _OpStats:
    items: np.ndarray
    total: np.ndarray
    largest: np.ndarray
    busy: np.ndarray
    capacity: np.ndarray
    div_total: np.ndarray
    div_largest: np.ndarray


def _iu_op_stats(
    kind: OpKind, source: Rows | None, operand: Rows, cfg: FingersConfig
) -> _OpStats:
    """IU and divider statistics of one op over many rows."""
    ll, num_ius = cfg.long_segment_len, cfg.num_ius
    o_len = operand.lens
    zero = np.zeros(o_len.size, dtype=np.int64)
    if kind is OpKind.INIT_COPY:
        items = _ceil_div(o_len, ll)
        total = items * ll
        largest = np.where(items > 0, ll, 0)
        duration = np.where(
            items > num_ius, ll * _ceil_div(items, num_ius), largest
        )
        div_total = div_largest = zero
    else:
        assert source is not None
        s_len = source.lens
        # The larger input streams as the long set; a subtraction whose
        # left operand (the source) is the long one passes unpaired long
        # segments through (the anti-subtraction flow).
        swap = s_len > o_len
        items, total, largest, duration = (zero.copy() for _ in range(4))
        for mask, short, long, keep in (
            (~swap, source, operand, False),
            (swap, operand, source, kind is not OpKind.INTERSECT),
        ):
            idx = np.flatnonzero(mask)
            if idx.size:
                parts = _pairing_costs(short.take(idx), long.take(idx), keep, cfg)
                for out, part in zip((items, total, largest, duration), parts):
                    out[idx] = part
        n_sh = _ceil_div(np.minimum(s_len, o_len), cfg.short_segment_len)
        n_lh = _ceil_div(np.maximum(s_len, o_len), ll)
        chunks = (
            np.maximum(1, _ceil_div(n_lh, cfg.divider_long_heads))
            + np.maximum(1, _ceil_div(n_sh, cfg.divider_short_heads))
            - 1
        )
        has = n_sh > 0
        div_total = np.where(has, _CHUNK_SETUP_CYCLES * chunks + n_sh, 0)
        div_largest = np.where(
            has, _CHUNK_SETUP_CYCLES + _ceil_div(n_sh, chunks), 0
        )
    active = duration > 0
    return _OpStats(
        items=items,
        total=total,
        largest=largest,
        busy=np.where(active, total, 0),
        capacity=np.where(active, duration * np.minimum(items, num_ius), 0),
        div_total=div_total,
        div_largest=div_largest,
    )


@dataclass
class TaskStats:
    """Per-task FINGERS compute quantities (integer cycles)."""

    total_item_cycles: np.ndarray
    max_item_cycles: np.ndarray
    num_items: np.ndarray
    iu_phase_cycles: np.ndarray
    divider_phase_cycles: np.ndarray
    balance_busy_sum: np.ndarray
    balance_capacity_sum: np.ndarray


def iu_task_stats(
    ops: Sequence[tuple[OpKind, Rows | None, Rows]],
    num_rows: int,
    cfg: FingersConfig,
) -> TaskStats:
    """FINGERS compute-phase statistics of ``num_rows`` tasks at once.

    ``ops`` lists every op each task executes, in order, with one row
    per task in its source/operand views.  Equals
    :func:`repro.hw.iu.time_task_ops` row by row (the property test
    pins this).
    """
    zero = np.zeros(num_rows, dtype=np.int64)
    total, largest, items = zero, zero, zero
    busy, capacity, div_total, div_largest = zero, zero, zero, zero
    for kind, source, operand in ops:
        st = _iu_op_stats(kind, source, operand, cfg)
        total = total + st.total
        largest = np.maximum(largest, st.largest)
        items = items + st.items
        busy = busy + st.busy
        capacity = capacity + st.capacity
        div_total = div_total + st.div_total
        div_largest = np.maximum(div_largest, st.div_largest)
    iu_phase = np.where(
        total > 0, np.maximum(largest, _ceil_div(total, cfg.num_ius)), 0
    )
    divider_phase = np.where(
        div_total > 0,
        np.maximum(div_largest, _ceil_div(div_total, cfg.num_dividers)),
        0,
    )
    return TaskStats(total, largest, items, iu_phase, divider_phase, busy, capacity)


# ----------------------------------------------------------------------
# Trace building
# ----------------------------------------------------------------------


@dataclass
class _Out:
    """What one block's tasks produce for one plan: leaf counts (last
    level) or children in block ``child`` grouped by ``group_cum``."""

    plan: int
    leaf: np.ndarray | None = None
    child: int | None = None
    group_cum: np.ndarray | None = None


@dataclass
class _Block:
    plan: int  # -1: the merged multi-pattern root
    rows: int
    group_starts: np.ndarray
    fetch: np.ndarray  # (rows, k) operand vertices, first use order
    refetch: np.ndarray  # (rows, r) repeated operand vertices, op order
    stats: TaskStats | None  # FINGERS compute phase
    spills: np.ndarray | None  # FINGERS private-cache spill flags
    compute: np.ndarray | None  # comparator cycles (FlexMiner, software)
    #: Candidate-set elements held by the task's ancestors.
    footprint: np.ndarray
    outs: list[_Out] = field(default_factory=list)


class TraceChunk:
    """Replay tables of one root chunk, as plain lists.

    Group ``g`` covers tasks ``g_lo[g]:g_hi[g]``, belongs to plan
    ``g_plan[g]`` (``-1`` for a merged root, whose per-plan results are
    in ``merged[g]``), counts ``g_leaf[g]`` leaves and pushes child
    groups ``g_push_lo[g]:g_push_hi[g]``.  Task ``t`` reads neighbor
    lists ``fetch_v[fetch_ptr[t]:fetch_ptr[t + 1]]``.
    """

    def __init__(self, blocks: list[_Block], fingers: bool) -> None:
        g_base = np.zeros(len(blocks) + 1, dtype=np.int64)
        t_base = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum([b.group_starts.size for b in blocks], out=g_base[1:])
        np.cumsum([b.rows for b in blocks], out=t_base[1:])
        cols: dict[str, list[np.ndarray]] = {}

        def put(name: str, values) -> None:
            cols.setdefault(name, []).append(np.asarray(values))

        self.merged: dict[int, tuple[tuple[int, int, int, int], ...]] = {}
        for i, b in enumerate(blocks):
            starts = b.group_starts
            ends = np.r_[starts[1:], b.rows].astype(np.int64)
            put("g_lo", t_base[i] + starts)
            put("g_hi", t_base[i] + ends)
            put("g_plan", np.full(starts.size, b.plan))
            leaf = np.zeros(starts.size, dtype=np.int64)
            push_lo = push_hi = leaf
            if b.plan >= 0:
                (out,) = b.outs
                if out.leaf is not None:
                    leaf = np.add.reduceat(out.leaf, starts)
                if out.child is not None:
                    push_lo = g_base[out.child] + out.group_cum[starts]
                    push_hi = g_base[out.child] + out.group_cum[ends]
            else:
                # A merged root (one task per group): per-plan leaves and
                # child-group ranges, pushed in plan order.
                for r in range(b.rows):
                    self.merged[int(g_base[i]) + r] = tuple(
                        (out.plan,
                         0 if out.leaf is None else int(out.leaf[r]),
                         *_child_range(out, r, g_base))
                        for out in b.outs
                    )
            put("g_leaf", leaf)
            put("g_push_lo", push_lo)
            put("g_push_hi", push_hi)
            put("fetch_n", np.full(b.rows, b.fetch.shape[1]))
            put("fetch_v", b.fetch.ravel())
            put("refetch_n", np.full(b.rows, b.refetch.shape[1]))
            put("refetch_v", b.refetch.ravel())
            if fingers:
                st = b.stats
                for name, values in (
                    ("g_total", st.total_item_cycles),
                    ("g_items", st.num_items),
                    ("g_busy", st.balance_busy_sum),
                    ("g_capacity", st.balance_capacity_sum),
                    ("g_divider", st.divider_phase_cycles),
                    ("g_spills", b.spills),
                ):
                    put(name, np.add.reduceat(values, starts))
                put("g_max_item", np.maximum.reduceat(st.max_item_cycles, starts))
                put("g_max_divider",
                    np.maximum.reduceat(st.divider_phase_cycles, starts))
                put("iu_phase", st.iu_phase_cycles)
            else:
                put("compute", b.compute)

        def joined(name: str) -> np.ndarray:
            return np.concatenate(cols[name])

        def ptr(name: str) -> list[int]:
            counts = joined(name)
            out = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=out[1:])
            return out.tolist()

        self.fetch_ptr = ptr("fetch_n")
        self.refetch_ptr = ptr("refetch_n")
        for name in ("g_lo", "g_hi", "g_plan", "g_leaf", "g_push_lo",
                     "g_push_hi", "fetch_v", "refetch_v"):
            setattr(self, name, joined(name).astype(np.int64).tolist())
        if fingers:
            for name in ("g_items", "g_spills"):
                setattr(self, name, joined(name).astype(np.int64).tolist())
            for name in ("g_total", "g_busy", "g_capacity", "g_divider",
                         "g_max_item", "g_max_divider", "iu_phase"):
                setattr(self, name, joined(name).astype(np.float64).tolist())
        else:
            self.compute = joined("compute").astype(np.float64).tolist()
        self.nbytes = _ENTRY_BYTES * sum(
            len(v) for v in vars(self).values() if isinstance(v, list)
        )


def _child_range(out: _Out, row: int, g_base: np.ndarray) -> tuple[int, int]:
    if out.child is None:
        return 0, 0
    base = int(g_base[out.child])
    return base + int(out.group_cum[row]), base + int(out.group_cum[row + 1])


class RootTree(NamedTuple):
    """One root's search tree: its task group inside a built chunk."""

    root: int
    chunk: TraceChunk
    group: int


def _operand_levels(ops: Sequence[SetOp]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Distinct operand levels in first-use order, and the repeated uses
    (in op order) of levels already fetched."""
    seen: list[int] = []
    again: list[int] = []
    for op in ops:
        (again if op.operand_level in seen else seen).append(op.operand_level)
    return tuple(seen), tuple(again)


class OpTrace:
    """Builds and hands out per-root task trees for one simulated run.

    ``fingers`` selects the FINGERS replay tables (IU/divider group
    aggregates and private-cache spills for groups of ``group_size``);
    otherwise tasks carry the merge-comparator compute time at
    ``elements_per_cycle``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        plans: Sequence[ExecutionPlan],
        memcfg: MemoryConfig,
        *,
        group_size: int = 1,
        fingers: FingersConfig | None = None,
        elements_per_cycle: float = 1.0,
    ) -> None:
        self.graph = graph
        self.plans = list(plans)
        self.group_size = group_size
        self.fingers = fingers
        self.elements_per_cycle = elements_per_cycle
        bpv = memcfg.bytes_per_vertex_id
        self.bytes_per_vertex_id = bpv
        #: Neighbor-list bytes per vertex (an empty list still costs one id).
        self.list_bytes: list[int] = (
            np.maximum(graph.degrees(), 1) * bpv
        ).astype(np.int64).tolist()
        self._carry = [fr.carried_states(plan) for plan in self.plans]

    # -- handing out trees ----------------------------------------------

    def trees(
        self, roots: Sequence[int], *, budget_bytes: int = TRACE_BUDGET_BYTES
    ) -> Iterator[RootTree]:
        """Each root's tree, in order, building chunks lazily so the
        tables of one chunk stay near ``budget_bytes``."""
        roots = [int(r) for r in roots]
        pos, take = 0, _FIRST_CHUNK_ROOTS
        while pos < len(roots):
            batch = roots[pos : pos + take]
            chunk = self._build(np.asarray(batch, dtype=np.int32))
            for i, root in enumerate(batch):
                yield RootTree(root, chunk, i)
            pos += len(batch)
            scale = budget_bytes / max(chunk.nbytes, 1)
            take = max(1, min(4 * take, int(len(batch) * scale)))

    def tree(self, root: int) -> RootTree:
        """One root's tree, built on its own."""
        return next(self.trees([root]))

    # -- building --------------------------------------------------------

    def _build(self, roots: np.ndarray) -> TraceChunk:
        blocks: list[_Block] = []
        cols = [roots]
        footprint = np.zeros(roots.size, dtype=np.int64)
        if len(self.plans) == 1:
            states: dict = {}
            ops = self.plans[0].levels[0].ops
            executed, leaf = self._run_level(0, 0, cols, states)
            block = self._block(blocks, 0, ops, cols, executed, footprint, None)
            self._descend(blocks, block, 0, 0, cols, states, executed, leaf)
        else:
            # The merged root runs every plan's level-0 ops once per
            # distinct result state (the multi-pattern shared trunk).
            shared: dict = {}
            executed, per_plan = [], []
            for plan in self.plans:
                states = {}
                executed += fr.run_level_ops(
                    self.graph, plan.levels[0].ops, cols, states,
                    shared=shared, max_values=fr._block_values(),
                )
                per_plan.append(states)
            ops = [op for plan in self.plans for op in plan.levels[0].ops]
            block = self._block(blocks, -1, ops, cols, executed, footprint, None)
            for p, states in enumerate(per_plan):
                self._descend(blocks, block, p, 0, cols, states, executed)
        return TraceChunk(blocks, self.fingers is not None)

    def _descend(
        self, blocks, block, p, level, cols, states, executed, leaf=None
    ) -> None:
        """Record ``block``'s results for plan ``p`` and build its
        subtree level by level.  ``leaf`` holds the block's leaf counts
        when :meth:`_run_level` counted them already."""
        plan = self.plans[p]
        while True:
            nxt = level + 1
            if leaf is None:
                cand = fr.filter_candidates(
                    plan,
                    fr.materialize(states, plan.levels[level].extend_state),
                    nxt, cols,
                )
                if nxt == plan.num_levels - 1:
                    leaf = cand.lengths
            if leaf is not None:
                block.outs.append(_Out(p, leaf=leaf))
                return
            if cand.total == 0:
                block.outs.append(_Out(p))
                return
            footprint = block.footprint + sum(
                (seg.lengths for _, _, seg in executed), np.int64(0)
            )
            counts = cand.lengths
            groups = _ceil_div(counts, self.group_size)
            group_cum = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(groups, out=group_cum[1:])
            block.outs.append(_Out(p, child=len(blocks), group_cum=group_cum))
            parent, cols, states = fr.expand_rows(
                cand, 0, cols, states, self._carry[p][level]
            )
            level = nxt
            executed, leaf = self._run_level(p, level, cols, states)
            # Group starts: each parent's children cut into group_size runs.
            child_start = np.cumsum(counts) - counts
            _, g_row, g_idx = _flat_index(groups)
            starts = child_start[g_row] + g_idx * self.group_size
            block = self._block(
                blocks, p, plan.levels[level].ops, cols, executed,
                footprint[parent], starts,
            )

    def _run_level(self, p, level, cols, states):
        """Run plan ``p``'s level-``level`` ops over the frontier.

        Returns the executed ops and, when the level's last op builds
        the leaf level's candidates (and is not a copy), the per-task
        leaf counts: that op is counted by :func:`fr.leaf_counts`
        instead of run, and enters the executed list with its source
        and no result.  Otherwise the counts are ``None``.
        """
        plan = self.plans[p]
        sched = plan.levels[level]
        ops = sched.ops
        counted = (
            level + 2 == plan.num_levels
            and bool(ops)
            and ops[-1].result_state == sched.extend_state
            and ops[-1].kind is not OpKind.INIT_COPY
        )
        executed = fr.run_level_ops(
            self.graph, ops[:-1] if counted else ops, cols, states,
            max_values=fr._block_values(),
        )
        if not counted:
            return executed, None
        op = ops[-1]
        src = states[op.source_state]
        executed.append((op, src, None))
        leaf = fr.leaf_counts(
            self.graph, plan, level + 1, op, src, cols,
            max_values=fr._block_values(),
        )
        return executed, leaf

    def _block(self, blocks, plan_idx, ops, cols, executed, footprint, group_starts):
        rows = cols[0].size
        fetch_levels, refetch_levels = _operand_levels(ops)

        def vertices(levels):
            if not levels:
                return np.zeros((rows, 0), dtype=np.int64)
            return np.stack([cols[lv] for lv in levels], axis=1)

        ops_rows = [
            (op.kind, None if src is None else Rows.of(src.seg, src.sel),
             Rows.neighbors(self.graph, cols[op.operand_level]))
            for op, src, _ in executed
        ]
        stats = compute = spills = None
        if self.fingers is not None:
            # Vectorized in row pieces of one frontier block of op inputs.
            weight = sum(
                (opd.lens + (0 if src is None else src.lens)
                 for _, src, opd in ops_rows),
                np.zeros(rows, dtype=np.int64),
            )
            pieces = [
                iu_task_stats(
                    [(kind, None if src is None else src.take(slice(a, b)),
                      opd.take(slice(a, b))) for kind, src, opd in ops_rows],
                    b - a, self.fingers,
                )
                for a, b in fr._chunk_ranges(weight, fr._block_values())
            ]
            stats = TaskStats(*(
                np.concatenate([getattr(p, f.name) for p in pieces])
                for f in fields(TaskStats)
            ))
            # Candidate sets live in the private cache; a task whose
            # inherited footprint, times the group size, overflows it
            # reads its spilled sets back.
            spills = (
                footprint * self.bytes_per_vertex_id * self.group_size
                > self.fingers.private_cache_bytes
            ).astype(np.int64)
        else:
            compute = np.zeros(rows, dtype=np.float64)
            for _, src, opd in ops_rows:
                elems = opd.lens if src is None else src.lens + opd.lens
                compute += elems / self.elements_per_cycle
        block = _Block(
            plan=plan_idx,
            rows=rows,
            group_starts=(
                np.arange(rows, dtype=np.int64)
                if group_starts is None else group_starts
            ),
            fetch=vertices(fetch_levels),
            refetch=vertices(refetch_levels),
            stats=stats,
            spills=spills,
            compute=compute,
            footprint=footprint,
        )
        blocks.append(block)
        return block
