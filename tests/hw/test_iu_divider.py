"""Tests for the IU-pool timing model and its task-divider phase."""

import numpy as np
import pytest

from repro.hw.config import FingersConfig
from repro.hw.iu import TaskTiming, _op_item_costs, _round_robin_busy, time_task_ops
from repro.pattern.plan import OpKind
from repro.setops.segments import pairing_loads


def arr(values):
    return np.asarray(values, dtype=np.int32)


DEFAULTS = dict(
    num_ius=24,
    num_dividers=12,
    long_len=16,
    short_len=4,
    max_load=3,
    divider_long_heads=15,
    divider_short_heads=24,
    io_cycles_per_item=2,
)


class TestOpItemCosts:
    def test_init_copy_streams_segments(self):
        costs, s, l, nlh, nsh = _op_item_costs(
            OpKind.INIT_COPY, None, arr(range(40)),
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [16, 16, 16]  # ceil(40/16) segments
        assert l == 40 and s == 0

    def test_intersect_small(self):
        # short = 8 elems (2 segs), long = 12 elems (1 partial seg): both
        # short segments pair with it; partial segments stream their
        # actual ids (12 + 8), not the padded segment width.
        costs, *_ = _op_item_costs(
            OpKind.INTERSECT, arr(range(0, 16, 2)), arr(range(12)),
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [12 + 8]

    def test_max_load_splits(self):
        # 24 short elements (6 segments) all fall into the first of four
        # long segments; max_load 3 splits the 6 into two items of 3.
        short = arr(range(0, 144, 6))   # 24 values in [0, 144)
        long = arr(range(0, 640, 10))   # 64 values, segment 0 = [0, 150]
        costs, *_ = _op_item_costs(
            OpKind.INTERSECT, short, long,
            long_len=16, short_len=4, max_load=3,
        )
        assert sorted(costs) == [16 + 12, 16 + 12]

    def test_anti_subtraction_keeps_unpaired(self):
        # source (left of subtraction) is LONGER than operand: the
        # anti-subtraction flow; unpaired long segments pass through.
        long_src = arr(range(0, 64))          # 4 segments
        short_op = arr([1, 2, 3])             # overlaps only segment 0
        costs, *_ = _op_item_costs(
            OpKind.SUBTRACT, long_src, short_op,
            long_len=16, short_len=4, max_load=3,
        )
        # 1 paired item + 3 pass-through items.
        assert sorted(costs) == [16, 16, 16, 16 + 4]

    def test_ordinary_subtraction_drops_unpaired(self):
        short_src = arr([1, 2, 3])
        long_op = arr(range(0, 64))
        costs, *_ = _op_item_costs(
            OpKind.SUBTRACT, short_src, long_op,
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [16 + 4]

    def test_fast_and_general_paths_agree(self):
        """The general (numpy) path must produce the same multiset of item
        costs as a reference computation from pairing_loads."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            # Keep both inputs multi-segment so the padded-cost contract
            # applies (single-segment ops use actual lengths instead).
            short = np.unique(rng.integers(0, 400, size=rng.integers(20, 60)))
            long = np.unique(rng.integers(0, 400, size=rng.integers(40, 200)))
            costs, *_ = _op_item_costs(
                OpKind.INTERSECT,
                arr(short) if short.size <= long.size else arr(long),
                arr(long) if short.size <= long.size else arr(short),
                long_len=16, short_len=4, max_load=3,
            )
            s, l = (short, long) if short.size <= long.size else (long, short)
            loads = pairing_loads(arr(s), arr(l), short_len=4, long_len=16)
            expected = []
            for load in loads.tolist():
                while load > 3:
                    expected.append(16 + 12)
                    load -= 3
                if load:
                    expected.append(16 + load * 4)
            assert sorted(costs) == sorted(expected)


class TestRoundRobinBusy:
    def test_fewer_items_than_ius(self):
        # Issue order preserved: one item per IU.
        assert _round_robin_busy([5, 9, 2], 24) == [5, 9, 2]

    def test_more_items_than_ius(self):
        busy = _round_robin_busy([4, 3, 2, 1], 2)
        assert busy == [4 + 2, 3 + 1]
        assert sum(busy) == 10

    def test_empty(self):
        assert _round_robin_busy([], 4) == []


class TestTimeTaskOps:
    def test_empty_ops(self):
        t = time_task_ops([], **DEFAULTS)
        assert t.compute_cycles == 0
        assert t.num_items == 0

    def test_single_small_op(self):
        t = time_task_ops(
            [(OpKind.INTERSECT, arr([1, 2, 3]), arr([2, 3, 4]))], **DEFAULTS
        )
        assert t.num_items == 1
        assert t.iu_phase_cycles == t.max_item_cycles

    def test_large_op_spreads(self):
        a = arr(range(0, 2000, 2))
        b = arr(range(0, 2000, 3))
        t = time_task_ops([(OpKind.INTERSECT, a, b)], **DEFAULTS)
        # Parallel phase must be far below the serial cost.
        serial = a.size + b.size
        assert t.iu_phase_cycles < serial / 4
        assert t.iu_phase_cycles >= t.total_item_cycles / DEFAULTS["num_ius"]

    def test_io_serialization_bound(self):
        # Many tiny items: the round-robin I/O becomes the bottleneck.
        ops = [
            (OpKind.INTERSECT, arr([i * 10, i * 10 + 1]), arr([i * 10]))
            for i in range(40)
        ]
        t = time_task_ops(ops, **DEFAULTS)
        assert t.io_serial_cycles == t.num_items * 2
        assert t.compute_cycles >= t.io_serial_cycles

    def test_balance_rate_bounds(self):
        a = arr(range(0, 500, 2))
        b = arr(range(0, 500, 5))
        t = time_task_ops([(OpKind.INTERSECT, a, b)], **DEFAULTS)
        assert 0 < t.balance_busy_sum <= t.balance_capacity_sum

    def test_detail_ops(self):
        t = time_task_ops(
            [(OpKind.INTERSECT, arr([1, 2]), arr([2, 3]))],
            **DEFAULTS,
            detail=True,
        )
        assert len(t.ops) == 1
        assert t.ops[0].kind is OpKind.INTERSECT
        assert t.ops[0].balance_rate <= 1.0

    def test_iso_area_tradeoff_visible(self):
        """Figure 12's mechanism: tiny segments raise item counts and the
        serial I/O floor."""
        a = arr(range(0, 600, 2))
        b = arr(range(0, 600, 3))
        few_big = time_task_ops(
            [(OpKind.INTERSECT, a, b)],
            **{**DEFAULTS, "num_ius": 8, "long_len": 48},
        )
        many_small = time_task_ops(
            [(OpKind.INTERSECT, a, b)],
            **{**DEFAULTS, "num_ius": 48, "long_len": 8},
        )
        assert many_small.num_items > few_big.num_items
        assert many_small.io_serial_cycles > few_big.io_serial_cycles


def divider_phase(head_counts, num_dividers=1):
    """Divider phase of one task whose ops have these head-list sizes.

    Each ``(n_long, n_short)`` becomes an intersection of a long set of
    ``16 * n_long`` ids and a short set of ``4 * n_short`` ids (the long
    set must be the larger one).  With one
    divider the phase is the serial total, ``2 * chunks + n_short`` per op.
    """
    ops = [
        (OpKind.INTERSECT, arr(range(4 * ns)), arr(range(16 * nl)))
        for nl, ns in head_counts
    ]
    params = {**DEFAULTS, "num_dividers": num_dividers}
    return time_task_ops(ops, **params).divider_phase_cycles


class TestDividerModel:
    def test_no_chunking(self):
        assert divider_phase([(10, 20)]) == 2 * 1 + 20

    def test_long_overflow_chunks(self):
        assert divider_phase([(40, 10)]) == 2 * 3 + 10

    def test_both_overflow_additive(self):
        assert divider_phase([(40, 60)]) == 2 * (3 + 3 - 1) + 60

    def test_phase_balanced(self):
        solo = divider_phase([(10, 20)], num_dividers=12)
        full = divider_phase([(10, 20)] * 12, num_dividers=12)
        assert full == solo  # 12 ops on 12 dividers run in parallel

    def test_phase_floor_is_largest_chunk(self):
        # 2 + 5 - 1 = 6 chunks of at most 17 short heads; the balanced
        # share, ceil((2 * 6 + 100) / 12) = 10, is smaller.
        assert divider_phase([(30, 100)], num_dividers=12) == 2 + 17

    def test_empty(self):
        assert divider_phase([]) == 0

    def test_invalid_dividers(self):
        with pytest.raises(ValueError):
            FingersConfig(num_dividers=0)
