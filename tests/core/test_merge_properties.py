"""Property tests for the unified merge: associativity and identity.

The sharded execution model is only exact because shard merges are
associative (grouping shards differently cannot change the total) and
because the zero record is an identity (an empty shard contributes
nothing).  These are the two properties the jobs-invariance contract of
docs/PARALLELISM.md rests on, so they are pinned with hypothesis over
integer-valued fields (integer floats add exactly, keeping associativity
bit-exact rather than approximate).
"""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.merge import merge_stats
from repro.hw.stats import PEStats


@dataclass
class Rec:
    """Minimal stat record: one integer and one float counter."""

    events: int = 0
    busy: float = 0.0


recs = st.builds(
    Rec,
    events=st.integers(0, 10**6),
    busy=st.integers(0, 10**6).map(float),
)


def merge(records):
    return merge_stats(records, cls=Rec)


class TestAssociativity:
    @given(st.lists(recs, min_size=1, max_size=6), st.data())
    def test_any_grouping_matches_flat_merge(self, records, data):
        flat = merge(records)
        cut = data.draw(st.integers(0, len(records)))
        left, right = records[:cut], records[cut:]
        grouped = merge([merge(left), merge(right)]) if left and right else flat
        assert grouped == flat

    @given(st.lists(recs, min_size=2, max_size=6))
    def test_pairwise_fold_matches_flat_merge(self, records):
        folded = records[0]
        for rec in records[1:]:
            folded = merge([folded, rec])
        flat = merge(records)
        assert folded == flat

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6))
    def test_floats_sum_left_to_right(self, values):
        # bit-identical to a plain left-to-right fold, so merged cycle
        # counters never depend on a re-association
        total = values[0]
        for v in values[1:]:
            total = total + v
        assert merge([Rec(busy=v) for v in values]).busy == total


class TestIdentity:
    @given(recs)
    def test_zero_record_is_identity(self, rec):
        padded = merge([rec, Rec()])
        assert padded == merge([rec])

    @given(st.lists(recs, max_size=4))
    def test_empty_shard_merge_is_noop(self, records):
        # merging `merge(records)` with `merge([])` changes nothing
        combined = merge([merge(records), merge([])]) if records else merge([])
        base = merge(records) if records else Rec()
        assert combined == base

    def test_empty_merge_returns_zero_record(self):
        assert merge([]) == Rec()
        assert merge_stats([], cls=PEStats) == PEStats()

    def test_empty_merge_without_cls_raises(self):
        with pytest.raises(ValueError, match="needs cls="):
            merge_stats([])

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError, match="dataclasses"):
            merge_stats([1, 2, 3])


class TestRealStatRecords:
    @given(st.lists(st.builds(
        PEStats,
        tasks=st.integers(0, 1000),
        busy_cycles=st.integers(0, 10**6).map(float),
        embeddings_found=st.integers(0, 1000),
    ), min_size=1, max_size=5), st.data())
    def test_pe_stats_merge_associative(self, stats, data):
        flat = merge_stats(stats, cls=PEStats)
        cut = data.draw(st.integers(1, len(stats)))
        if cut == len(stats):
            grouped = flat
        else:
            grouped = merge_stats(
                [
                    merge_stats(stats[:cut], cls=PEStats),
                    merge_stats(stats[cut:], cls=PEStats),
                ],
                cls=PEStats,
            )
        assert grouped == flat
