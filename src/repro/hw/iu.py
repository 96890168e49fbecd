"""Intersect-unit pool: per-task work-item scheduling and timing.

Given the set operations of one task (with their *actual* input arrays,
so segment pairing is exact), this module produces the paper's timing
quantities:

* work items per op via segment pairing + max-load splitting
  (:mod:`repro.setops.segments`);
* the IU phase latency — all ops' items share the pool (set-level
  parallelism) and each op's items spread over several IUs
  (segment-level parallelism).  The phase is the classic list-scheduling
  makespan bound ``max(longest item, ceil(total / num_ius))``, which the
  coordinated task dividers of section 4.2 approach by monitoring
  progress;
* the serial input-distribution / result-collection occupancy: the
  round-robin rotation costs ``num_ius`` cycles per wave for each of the
  distribute and collect paths (paper section 4.3: "both these serial
  time periods are proportional to the number of IUs in the PE"), so
  shrinking segments under iso-area scaling inflates the serial floor —
  exactly the Figure 12 drop at 48 IUs;
* per-op IU busy distributions feeding the *balance rate* metric
  (Table 3): items are dealt round-robin, so an op using ``m`` IUs for a
  duration equal to its largest item has balance
  ``sum(busy) / (duration x m)``.

This is the per-task reference of the FINGERS compute model.  Simulation
runs use :func:`repro.hw.optrace.iu_task_stats`, which computes the same
quantities for a whole level of tasks at once; a property test pins the
two to each other row by row.

All timing here depends only on the op *input* arrays (kind, source,
operand) — never on how the functional result was computed, so
pairing/load tables and every cycle statistic are unchanged for every
:class:`~repro.setops.kernels.KernelPolicy` (docs/KERNELS.md).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.pattern.plan import OpKind
from repro.setops.segments import pairing_loads

__all__ = ["OpTiming", "TaskTiming", "time_task_ops"]

#: Pipeline cycles to load a divider chunk's long heads into the
#: binary tree (paper section 4.2); ``optrace`` charges the same.
_CHUNK_SETUP_CYCLES = 2


@dataclass(frozen=True)
class OpTiming:
    """Per-op detail (produced only with ``detail=True``; used by tests)."""

    kind: OpKind
    short_size: int
    long_size: int
    item_cycles: tuple[int, ...]
    iu_busy: tuple[int, ...]

    @property
    def num_items(self) -> int:
        return len(self.item_cycles)

    @property
    def total_cycles(self) -> int:
        return sum(self.item_cycles)

    @property
    def balance_rate(self) -> float:
        if not self.iu_busy:
            return 1.0
        duration = max(self.iu_busy)
        if duration == 0:
            return 1.0
        return sum(self.iu_busy) / (duration * len(self.iu_busy))


@dataclass(frozen=True)
class TaskTiming:
    """Aggregate timing of one task's compute phase."""

    iu_phase_cycles: float
    divider_phase_cycles: float
    io_serial_cycles: float
    total_item_cycles: float
    max_item_cycles: float
    num_items: int
    balance_busy_sum: float
    balance_capacity_sum: float
    ops: tuple[OpTiming, ...] = ()

    @property
    def compute_cycles(self) -> float:
        """Macro-pipeline latency: stages overlap, the slowest dominates."""
        return max(
            self.iu_phase_cycles,
            self.divider_phase_cycles,
            self.io_serial_cycles,
        )


def _roles(
    kind: OpKind, source: np.ndarray | None, operand: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Pick (short, long, keep_unpaired) for an op's two inputs.

    The semantic left operand (whose elements survive a subtraction) is
    the source for SUBTRACT/ANTI_SUBTRACT.  The hardware streams the
    larger input as the long set; when a subtraction's left operand is the
    long one, unpaired long segments pass through (the anti-subtraction
    flow of section 4.3).
    """
    if kind is OpKind.INIT_COPY:
        return np.empty(0, dtype=operand.dtype), operand, False
    assert source is not None
    left, right = source, operand
    if kind is OpKind.INTERSECT:
        if left.size <= right.size:
            return left, right, False
        return right, left, False
    if left.size <= right.size:
        return left, right, False
    return right, left, True


def _op_item_costs(
    kind: OpKind,
    source: np.ndarray | None,
    operand: np.ndarray,
    *,
    long_len: int,
    short_len: int,
    max_load: int,
) -> tuple[list[int], int, int, int, int]:
    """Item cost vector plus (short_size, long_size, n_long_heads, n_short_heads)."""
    short, long, keep_unpaired = _roles(kind, source, operand)
    if kind is OpKind.INIT_COPY:
        n_segs = ceil(long.size / long_len) if long.size else 0
        return [long_len] * n_segs, short.size, long.size, n_segs, 0
    if long.size <= long_len:
        # Fast path: the long set is a single segment, so every short
        # segment (none can fall outside a one-segment range check below)
        # pairs with it; the load table is a single cell.
        n_short = ceil(short.size / short_len) if short.size else 0
        n_long = 1
        if short.size == 0 or long.size == 0:
            load = 0
        elif short.size and int(short[-1]) < int(long[0]):
            load = 0
        else:
            # Short segments entirely below the long range pair nothing.
            first = int(np.searchsorted(short, long[0])) // short_len
            load = n_short - first
        # A single partial segment streams its actual ids, not the padded
        # segment width (the hardware merge stops at the shorter list).
        base = int(long.size)
        items: list[int] = []
        while load > max_load:
            items.append(base + max_load * short_len)
            load -= max_load
        if load > 0:
            shorts = min(load * short_len, int(short.size))
            items.append(base + shorts)
        elif keep_unpaired and not items:
            items.append(base)
        return items, short.size, long.size, n_long, n_short
    n_long_heads = ceil(long.size / long_len)
    n_short_heads = ceil(short.size / short_len) if short.size else 0
    if n_long_heads <= 6 and n_short_heads <= 12:
        # Small-op fast path: pure-Python pairing beats vectorized numpy
        # at these sizes, and most tasks in power-law graphs are small.
        long_heads = [int(long[i * long_len]) for i in range(n_long_heads)]
        py_loads = [0] * n_long_heads
        if short.size:
            svals = short.tolist()
            for i in range(n_short_heads):
                start_val = svals[i * short_len]
                end_val = svals[min((i + 1) * short_len, short.size) - 1]
                e = bisect_right(long_heads, end_val) - 1
                if e < 0:
                    continue
                s = max(bisect_right(long_heads, start_val) - 1, 0)
                for l in range(s, e + 1):
                    py_loads[l] += 1
        costs = []
        for load in py_loads:
            if load == 0:
                if keep_unpaired:
                    costs.append(long_len)
                continue
            while load > max_load:
                costs.append(long_len + max_load * short_len)
                load -= max_load
            costs.append(long_len + load * short_len)
        return costs, short.size, long.size, n_long_heads, n_short_heads
    loads = pairing_loads(short, long, short_len=short_len, long_len=long_len)
    full = loads // max_load
    rem = loads % max_load
    num_full = int(full.sum())
    rem_nonzero = rem[rem > 0]
    costs: list[int] = [long_len + max_load * short_len] * num_full
    if rem_nonzero.size:
        costs.extend((long_len + rem_nonzero * short_len).tolist())
    if keep_unpaired:
        n_zero = int((loads == 0).sum())
        if n_zero:
            costs.extend([long_len] * n_zero)
    return costs, short.size, long.size, n_long_heads, n_short_heads


def _round_robin_busy(costs: list[int], num_ius: int) -> list[int]:
    """Per-IU busy cycles when items are dealt round-robin in issue order.

    The task dividers emit work items in segment order (they cannot sort
    by cost), so the per-IU busy distribution is ragged — which is what
    the paper's balance rate measures (Table 3: 66-71 %).
    """
    if not costs:
        return []
    if len(costs) <= num_ius:
        return list(costs)
    busy = [0] * num_ius
    for i, c in enumerate(costs):
        busy[i % num_ius] += c
    return busy


def time_task_ops(
    op_inputs: list[tuple[OpKind, np.ndarray | None, np.ndarray]],
    *,
    num_ius: int,
    num_dividers: int,
    long_len: int,
    short_len: int,
    max_load: int,
    divider_long_heads: int,
    divider_short_heads: int,
    io_cycles_per_item: int,
    detail: bool = False,
) -> TaskTiming:
    """Time the compute phase of one task from its ops' actual inputs."""
    total_cycles = 0
    total_items = 0
    max_cost = 0
    balance_busy = 0.0
    balance_capacity = 0.0
    divider_total = 0
    divider_largest = 0
    detail_ops: list[OpTiming] = []

    for kind, source, operand in op_inputs:
        costs, s_size, l_size, n_lh, n_sh = _op_item_costs(
            kind,
            source,
            operand,
            long_len=long_len,
            short_len=short_len,
            max_load=max_load,
        )
        op_total = sum(costs)
        total_cycles += op_total
        total_items += len(costs)
        busy: list[int] = []
        if costs:
            op_max = max(costs)
            max_cost = max(max_cost, op_max)
            if len(costs) <= num_ius:
                busy = costs
                duration = op_max
            else:
                busy = _round_robin_busy(costs, num_ius)
                duration = max(busy)
            if duration > 0:
                balance_busy += op_total
                balance_capacity += duration * len(busy)
        if kind is not OpKind.INIT_COPY and n_sh > 0:
            chunks = (
                max(1, ceil(n_lh / divider_long_heads))
                + max(1, ceil(n_sh / divider_short_heads))
                - 1
            )
            divider_total += _CHUNK_SETUP_CYCLES * chunks + n_sh
            divider_largest = max(
                divider_largest,
                _CHUNK_SETUP_CYCLES + ceil(n_sh / chunks),
            )
        if detail:
            detail_ops.append(
                OpTiming(
                    kind=kind,
                    short_size=s_size,
                    long_size=l_size,
                    item_cycles=tuple(int(c) for c in costs),
                    iu_busy=tuple(int(b) for b in busy),
                )
            )

    iu_phase = max(max_cost, ceil(total_cycles / num_ius)) if total_cycles else 0
    divider_phase = (
        max(divider_largest, ceil(divider_total / num_dividers))
        if divider_total
        else 0
    )
    return TaskTiming(
        iu_phase_cycles=float(iu_phase),
        divider_phase_cycles=float(divider_phase),
        io_serial_cycles=float(total_items * io_cycles_per_item),
        total_item_cycles=float(total_cycles),
        max_item_cycles=float(max_cost),
        num_items=total_items,
        balance_busy_sum=balance_busy,
        balance_capacity_sum=balance_capacity,
        ops=tuple(detail_ops),
    )
