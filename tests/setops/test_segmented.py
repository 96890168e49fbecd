"""Segmented set-op kernels: layout invariants and kernel agreement.

Both membership kernels (bitmap / edgekey) must return the Python-set
reference mask for identical queries — the frontier engine's
functional-only contract rests on it — and the :class:`SegmentedSet`
layout primitives must round-trip against per-row NumPy references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.setops import segmented
from repro.setops.segmented import (
    SegmentedSet,
    _bitmap_membership,
    bitset_rows,
    _edgekey_membership,
    clear_bits,
    compress,
    gather_neighbors,
    intersect_neighbors,
    neighbor_membership,
    gt_mask,
    pick_segment_kernel,
    row_bitsets,
    subtract_neighbors,
)

GRAPH = erdos_renyi(60, 0.2, seed=5)
HUBBY = barabasi_albert(80, 6, seed=9)


def _seg_from_rows(rows):
    values = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows]) \
        if rows else np.empty(0, dtype=np.int32)
    offsets = np.concatenate(
        ([0], np.cumsum([len(r) for r in rows], dtype=np.int64))
    )
    return SegmentedSet(values, offsets)


def _reference_membership(graph, values, owners):
    """``values[i] in N(owners[i])`` by Python sets."""
    return np.array(
        [int(v) in set(map(int, graph.neighbors(int(o))))
         for v, o in zip(values, owners)],
        dtype=bool,
    )


class TestSegmentedSet:
    def test_row_and_lengths(self):
        seg = _seg_from_rows([[1, 4], [], [2, 3, 9]])
        assert seg.rows == 3
        assert seg.total == 5
        assert list(seg.lengths) == [2, 0, 3]
        assert list(seg.row(0)) == [1, 4]
        assert list(seg.row(1)) == []
        assert list(seg.row(2)) == [2, 3, 9]

    def test_row_ids(self):
        seg = _seg_from_rows([[1, 4], [], [2, 3, 9]])
        assert list(seg.row_ids()) == [0, 0, 2, 2, 2]

    def test_take_rows_with_repeats(self):
        seg = _seg_from_rows([[1, 4], [7], [2, 3]])
        out = seg.take_rows(np.array([2, 0, 2, 2]))
        assert [list(out.row(i)) for i in range(out.rows)] == [
            [2, 3], [1, 4], [2, 3], [2, 3],
        ]

    def test_slice_rows(self):
        seg = _seg_from_rows([[1], [2, 3], [4, 5, 6], [7]])
        out = seg.slice_rows(1, 3)
        assert [list(out.row(i)) for i in range(out.rows)] == [
            [2, 3], [4, 5, 6],
        ]

    def test_empty(self):
        seg = SegmentedSet.empty(4)
        assert seg.rows == 4 and seg.total == 0

    def test_compress(self):
        seg = _seg_from_rows([[1, 4], [7], [2, 3]])
        keep = np.array([True, False, False, True, True])
        out = compress(seg, keep)
        assert [list(out.row(i)) for i in range(out.rows)] == [
            [1], [], [2, 3],
        ]


class TestGatherNeighbors:
    def test_matches_scalar_neighbors(self):
        vs = np.array([0, 3, 3, 59])
        seg = gather_neighbors(GRAPH, vs)
        for i, v in enumerate(vs):
            assert np.array_equal(seg.row(i), GRAPH.neighbors(int(v)))


class TestKernelAgreement:
    @pytest.mark.parametrize("graph", [GRAPH, HUBBY], ids=["er", "ba"])
    def test_three_kernels_agree(self, graph):
        rng = np.random.default_rng(17)
        n = graph.num_vertices
        owners = rng.integers(0, n, size=500).astype(np.int64)
        values = rng.integers(0, n, size=500).astype(np.int32)
        # Bitmap, edge-key and the Python-set reference must agree.
        reference = _reference_membership(graph, values, owners)
        for kernel in (_bitmap_membership, _edgekey_membership):
            mask = kernel(graph, values, owners)
            assert np.array_equal(mask, reference), kernel.__name__

    def test_empty_queries(self):
        out = neighbor_membership(
            GRAPH, np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        )
        assert out.size == 0

    def test_intersect_and_subtract_match_row_loop(self):
        rng = np.random.default_rng(23)
        vs = rng.integers(0, GRAPH.num_vertices, size=40)
        source = gather_neighbors(GRAPH, vs)
        partners = rng.integers(0, GRAPH.num_vertices, size=40)
        inter = intersect_neighbors(source, GRAPH, partners)
        sub = subtract_neighbors(source, GRAPH, partners)
        for i in range(40):
            nbrs = set(map(int, GRAPH.neighbors(int(partners[i]))))
            row = [int(x) for x in source.row(i)]
            assert [x for x in row if x in nbrs] == list(map(int, inter.row(i)))
            assert [x for x in row if x not in nbrs] == list(map(int, sub.row(i)))


class TestDispatch:
    def test_small_graph_uses_bitmap(self):
        assert pick_segment_kernel(GRAPH) == "bitmap"

    def test_bitmap_budget_zero_falls_back(self, monkeypatch):
        monkeypatch.setattr(segmented, "BITMAP_BUDGET_BYTES", 0)
        assert pick_segment_kernel(GRAPH) == "edgekey"

    def test_dispatch_is_pure(self, monkeypatch):
        # Same graph -> same kernel, even after the caches warm up
        # (sanitizer double-run contract).
        monkeypatch.setattr(segmented, "BITMAP_BUDGET_BYTES", 0)
        first = pick_segment_kernel(HUBBY)
        HUBBY.edge_keys()
        HUBBY.adjacency_bitmap()
        assert pick_segment_kernel(HUBBY) == first


@given(
    rows=st.lists(
        st.lists(st.integers(0, 59), max_size=12), max_size=8
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_membership_property(rows, seed):
    """Any (values, owners) batch gets the reference mask from both
    kernels."""
    rows = [sorted(set(r)) for r in rows]
    seg = _seg_from_rows(rows)
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, GRAPH.num_vertices, size=seg.total).astype(
        np.int64
    )
    reference = _reference_membership(GRAPH, seg.values, owners)
    assert np.array_equal(
        _bitmap_membership(GRAPH, seg.values, owners), reference
    )
    assert np.array_equal(
        _edgekey_membership(GRAPH, seg.values, owners), reference
    )


def _bit_members(bitsets: np.ndarray) -> list[list[int]]:
    """Each bitset row back as its sorted member list."""
    bits = np.unpackbits(
        bitsets.astype("<u8").view(np.uint8), axis=1, bitorder="little"
    )
    return [list(np.flatnonzero(row)) for row in bits]


class TestWordHelpers:
    """The word-parallel bitset helpers behind the fused terminal probe,
    on universes that end on, before and past a word boundary."""

    @given(
        n=st.sampled_from([1, 63, 64, 65, 127, 129]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_bitsets_round_trip(self, n, data):
        rows = data.draw(
            st.lists(st.sets(st.integers(0, n - 1)).map(sorted), max_size=6)
        )
        words = (n + 63) // 64
        bits = row_bitsets(_seg_from_rows(rows), words)
        assert bits.shape == (len(rows), words)
        assert bits.dtype == np.uint64
        assert _bit_members(bits) == rows

    @given(
        n=st.sampled_from([1, 63, 64, 65, 127, 129]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_gt_mask_and_clear_bits(self, n, data):
        verts = np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=6)),
            dtype=np.int64,
        )
        words = (n + 63) // 64
        above = _bit_members(gt_mask(verts, words))
        assert above == [list(range(v + 1, words * 64)) for v in verts]
        full = np.full((verts.size, words), np.uint64(2**64 - 1))
        clear_bits(full, verts)
        assert _bit_members(full) == [
            [b for b in range(words * 64) if b != v] for v in verts
        ]

    @given(
        n=st.sampled_from([1, 63, 64, 65, 127, 129]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitset_rows_inverts_row_bitsets(self, n, data):
        edge_ids = st.sampled_from([v for v in (0, 63, 64, n - 1) if v < n])
        rows = data.draw(st.lists(
            st.sets(st.one_of(edge_ids, st.integers(0, n - 1))).map(sorted),
            max_size=6,
        ))
        seg = _seg_from_rows(rows)
        words = (n + 63) // 64
        back = bitset_rows(row_bitsets(seg, words))
        assert back.values.dtype == np.int32
        assert back.offsets.tolist() == seg.offsets.tolist()
        assert back.values.tolist() == seg.values.tolist()
        # And the other way round, from arbitrary words.
        raw = np.array(
            data.draw(st.lists(
                st.integers(0, 2**64 - 1),
                min_size=words * len(rows), max_size=words * len(rows),
            )),
            dtype=np.uint64,
        ).reshape(len(rows), words)
        assert np.array_equal(row_bitsets(bitset_rows(raw), words), raw)

    def test_bitset_rows_of_no_rows_or_words(self):
        assert bitset_rows(np.zeros((0, 3), dtype=np.uint64)).rows == 0
        empty = bitset_rows(np.zeros((2, 0), dtype=np.uint64))
        assert empty.offsets.tolist() == [0, 0, 0]

    def test_bit_63_boundary(self):
        mask = gt_mask(np.array([62, 63, 64]), 2)
        assert list(mask[0]) == [np.uint64(1) << np.uint64(63), 2**64 - 1]
        assert list(mask[1]) == [0, 2**64 - 1]
        assert list(mask[2]) == [0, 2**64 - 2]
