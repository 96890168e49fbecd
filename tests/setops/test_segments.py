"""Tests for segmentation, head lists, pairing, and load balancing.

Load balancing (paper Figure 7) is the IU model's work-item split,
:func:`repro.hw.iu._op_item_costs`; with ``short_len=1`` and
``long_len=4`` an item's cost ``4 + n`` reads off its ``n`` short
segments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import FingersConfig
from repro.hw.iu import _op_item_costs
from repro.pattern.plan import OpKind
from repro.setops import (
    LONG_SEGMENT_LEN,
    SHORT_SEGMENT_LEN,
    pair_segments,
)
from repro.setops.segments import pairing_loads

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=500), max_size=120, unique=True
).map(sorted)


def arr(values):
    return np.asarray(values, dtype=np.int64)


class TestSegmentBounds:
    def test_exact_multiple(self):
        assert pair_segments(arr([0]), arr(range(8)), long_len=4).num_long_segments == 2

    def test_partial_tail(self):
        assert pair_segments(arr([0]), arr(range(9)), long_len=4).num_long_segments == 3

    def test_empty(self):
        assert pair_segments(arr([0]), arr([]), long_len=4).num_long_segments == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            FingersConfig(long_segment_len=0)


class TestHeadList:
    def test_heads(self):
        # Heads of range(10) in segments of 4 are 0, 4, 8: each value
        # pairs with the segment whose head it reaches.
        pairing = pair_segments(
            arr([3, 4, 7, 8]), arr(range(10)), short_len=1, long_len=4
        )
        assert pairing.spans == ((0, 0), (1, 1), (1, 1), (2, 2))

    def test_defaults_match_paper(self):
        assert LONG_SEGMENT_LEN == 16
        assert SHORT_SEGMENT_LEN == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            FingersConfig(short_segment_len=0)


class TestPaperFigure4:
    """Replays the exact example of paper Figure 4."""

    SHORT = [3, 12, 14, 27, 33, 55, 59, 82]  # paper shows 4 segments of 2
    # Long segments [2,8], [9,25], ... — the paper says short segment
    # [3, 12] overlaps exactly the first two.
    LONG = [2, 8, 9, 25, 26, 40, 42, 48, 50, 58]

    def test_first_short_pairs_with_two_longs(self):
        pairing = pair_segments(
            arr(self.SHORT), arr(self.LONG), short_len=2, long_len=2
        )
        # Short segment [3, 12] overlaps long segments [2, 8] and [9, 25].
        assert pairing.spans[0] == (0, 1)

    def test_loads_sum_to_pairs(self):
        pairing = pair_segments(
            arr(self.SHORT), arr(self.LONG), short_len=2, long_len=2
        )
        assert pairing.total_pairs == sum(
            e - s + 1 for span in pairing.spans if span for s, e in [span]
        )


class TestPairing:
    def test_identical_sets(self):
        a = arr(range(0, 64))
        pairing = pair_segments(a, a)
        assert pairing.num_long_segments == 4
        assert pairing.num_short_segments == 16
        # Every long segment gets exactly its own 4 short segments.
        assert list(pairing.loads) == [4, 4, 4, 4]

    def test_disjoint_short_below(self):
        pairing = pair_segments(arr([1, 2, 3]), arr(range(100, 120)))
        assert pairing.total_pairs == 0
        assert pairing.spans[0] is None

    def test_short_above_long_pairs_last(self):
        pairing = pair_segments(arr([500]), arr(range(0, 32)))
        assert pairing.spans[0] == (1, 1)

    def test_empty_inputs(self):
        p = pair_segments(arr([]), arr(range(16)))
        assert p.total_pairs == 0
        p = pair_segments(arr([1]), arr([]))
        assert p.total_pairs == 0

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=150)
    def test_every_overlap_covered(self, short, long):
        """Any (short elem, long elem) equality must fall in a paired span."""
        if not short or not long:
            return
        s, l = arr(short), arr(long)
        pairing = pair_segments(s, l, short_len=4, long_len=8)
        common = set(short) & set(long)
        for value in common:
            si = int(np.searchsorted(s, value)) // 4
            li = int(np.searchsorted(l, value)) // 8
            span = pairing.spans[si]
            assert span is not None
            assert span[0] <= li <= span[1]

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=150)
    def test_pairing_loads_fast_path_agrees(self, short, long):
        s, l = arr(short), arr(long)
        full = pair_segments(s, l, short_len=4, long_len=8)
        fast = pairing_loads(s, l, short_len=4, long_len=8)
        if l.size and s.size:
            assert list(full.loads) == list(fast)


#: Four long segments of four ids with heads 0, 10, 20, 30.
LONG4 = arr([0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23, 30, 31, 32, 33])


class TestBalanceLoads:
    def _costs(self, kind, source, operand, max_load=3, long_len=4):
        costs, *_ = _op_item_costs(
            kind, arr(source), arr(operand),
            long_len=long_len, short_len=1, max_load=max_load,
        )
        return costs

    def test_zero_loads_omitted(self):
        # Load table [0, 2, 0]: only the middle long segment has work.
        costs = self._costs(OpKind.INTERSECT, [10, 11], LONG4[:12])
        assert costs == [4 + 2]

    def test_zero_loads_kept_for_anti_subtraction(self):
        # The long set is the subtraction's left operand, so unpaired
        # long segments pass through and still occupy an IU.
        costs = self._costs(OpKind.SUBTRACT, LONG4[:12], [10, 11])
        assert costs == [4, 4 + 2, 4]

    def test_overload_split(self):
        # One long segment of 16 ids paired with 7 short segments.
        costs = self._costs(OpKind.INTERSECT, range(7), range(16), long_len=16)
        assert costs == [16 + 3, 16 + 3, 16 + 1]

    def test_paper_figure7_example(self):
        # Load table [0, 2, 3, 1] with max load 2: the 3 splits into 2+1.
        costs = self._costs(
            OpKind.INTERSECT, [10, 11, 20, 21, 22, 30], LONG4, max_load=2
        )
        assert costs == [4 + 2, 4 + 2, 4 + 1, 4 + 1]

    def test_cost_formula(self):
        costs, *_ = _op_item_costs(
            OpKind.INTERSECT, arr(range(12)), arr(range(16)),
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [28]  # the paper's s_l + 3 s_s example

    def test_invalid_max_load(self):
        with pytest.raises(ValueError):
            FingersConfig(max_load=0)
