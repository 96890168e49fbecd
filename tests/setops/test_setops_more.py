"""Additional set-operation properties: idempotence, algebra, sizes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.setops import intersect, pair_segments, subtract
from repro.setops.segments import pairing_loads

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=200), max_size=50, unique=True
).map(sorted)


def arr(values):
    return np.asarray(values, dtype=np.int32)


class TestAlgebra:
    @given(sorted_sets)
    def test_intersect_idempotent(self, a):
        assert list(intersect(arr(a), arr(a))) == a

    @given(sorted_sets)
    def test_subtract_self_empty(self, a):
        assert subtract(arr(a), arr(a)).size == 0

    @given(sorted_sets, sorted_sets)
    def test_intersect_commutative(self, a, b):
        assert list(intersect(arr(a), arr(b))) == list(intersect(arr(b), arr(a)))

    @given(sorted_sets, sorted_sets, sorted_sets)
    @settings(max_examples=100)
    def test_intersect_associative(self, a, b, c):
        left = intersect(intersect(arr(a), arr(b)), arr(c))
        right = intersect(arr(a), intersect(arr(b), arr(c)))
        assert list(left) == list(right)

    @given(sorted_sets, sorted_sets)
    def test_partition_identity(self, a, b):
        """|A| == |A ∩ B| + |A − B|."""
        a_, b_ = arr(a), arr(b)
        assert len(a) == intersect(a_, b_).size + subtract(a_, b_).size

    @given(sorted_sets, sorted_sets)
    def test_results_never_grow(self, a, b):
        assert intersect(arr(a), arr(b)).size <= min(len(a), len(b))
        assert subtract(arr(a), arr(b)).size <= len(a)


class TestSegmentHelpers:
    @given(sorted_sets, st.integers(1, 20))
    def test_bounds_cover_exactly(self, a, seg_len):
        """Segmenting a set against itself pairs each segment with its own
        twin only, so the load table is one 1 per segment."""
        loads = pairing_loads(arr(a), arr(a), short_len=seg_len, long_len=seg_len)
        if a:
            assert list(loads) == [1] * -(-len(a) // seg_len)

    @given(sorted_sets, st.integers(1, 20))
    def test_head_list_heads(self, a, seg_len):
        """The long heads are ``a[::seg_len]``: element ``i`` falls in
        segment ``i // seg_len``."""
        pairing = pair_segments(arr(a), arr(a), short_len=1, long_len=seg_len)
        assert pairing.spans == tuple(
            (i // seg_len, i // seg_len) for i in range(len(a))
        )
