"""Unit tests for the CSR graph core."""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edges, complete_graph


class TestConstruction:
    def test_empty_graph(self):
        g = from_edges([], num_vertices=0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0
        assert g.avg_degree() == 0.0

    def test_isolated_vertices(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0
        assert g.degree(0) == 1

    def test_single_edge(self):
        g = from_edges([(0, 1)])
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_self_loops_dropped(self):
        g = from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_merged(self):
        g = from_edges([(0, 1), (1, 0), (0, 1), (0, 1)])
        assert g.num_edges == 1

    def test_neighbor_lists_sorted(self):
        g = from_edges([(2, 0), (2, 3), (2, 1), (2, 4)])
        assert list(g.neighbors(2)) == [0, 1, 3, 4]

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            from_edges([(-1, 2)])

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(ValueError):
            from_edges([(0, 5)], num_vertices=3)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            from_edges([(0, 1, 2)])  # type: ignore[list-item]


class TestValidation:
    def test_asymmetric_adjacency_rejected(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])
        with pytest.raises(ValueError, match="symmetric"):
            CSRGraph(indptr, indices)

    def test_self_loop_rejected(self):
        indptr = np.array([0, 1])
        indices = np.array([0])
        with pytest.raises(ValueError, match="self loops"):
            CSRGraph(indptr, indices)

    def test_unsorted_rows_rejected(self):
        # 0 -> [2, 1] unsorted.
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])
        with pytest.raises(ValueError):
            CSRGraph(indptr, indices)

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indices_out_of_range(self):
        indptr = np.array([0, 1, 2])
        indices = np.array([5, 0])
        with pytest.raises(ValueError):
            CSRGraph(indptr, indices)

    @pytest.mark.parametrize(
        "indptr, indices, match",
        [
            ([0, 1, 2], np.array([2**32 + 1, 2**32]), "do not fit int32"),
            ([0, 1, 2], np.array([-(2**32) + 1, -(2**32)]), "do not fit int32"),
            ([0, 1, 2], np.array([1.0, 0.0]), "must be integers"),
            ([0, 1, 2], np.array([True, False]), "must be integers"),
            (np.array([0, 2**63, 2], dtype=np.uint64), [1, 0],
             "do not fit int64"),
            (np.array([0.0, 1.5, 2.0]), [1, 0], "must be integers"),
        ],
        ids=["wrapped-ids", "wrapped-negative-ids", "float-ids", "bool-ids",
             "indptr-past-int64", "float-indptr"],
    )
    def test_lossy_cast_rejected(self, indptr, indices, match):
        # Unchecked, every case but the int64 overflow casts to the
        # valid edge 0-1.
        with pytest.raises(ValueError, match=match):
            CSRGraph(indptr, indices)

    # Triangle 0-1-2 plus the edge 2-3, with one defect each.
    _INDPTR = [0, 2, 4, 7, 8]
    _INDICES = [1, 2, 0, 2, 0, 1, 3, 2]

    @pytest.mark.parametrize(
        "indptr, indices, match",
        [
            (_INDPTR, [1, 2, 0, 2, 1, 0, 3, 2], "strictly increasing"),
            (_INDPTR, [1, 2, 0, 2, 0, 1, 3, 1], "not symmetric"),
            (_INDPTR, [1, 2, 0, 2, 0, 1, 3, 9], "out of range"),
            (_INDPTR, [1, 2, 0, 2, 0, 1, 3, 3], "self loops"),
            ([0, 4, 2, 7, 8], _INDICES, "non-decreasing"),
            ([0, 2, 4, 7, 9], _INDICES, "must equal len"),
        ],
        ids=["unsorted", "asymmetric", "out-of-range", "self-loop",
             "decreasing-indptr", "short-indices"],
    )
    def test_corrupt_arrays_rejected(self, indptr, indices, match):
        with pytest.raises(ValueError, match=match):
            CSRGraph(np.array(indptr), np.array(indices))

    def test_arrays_read_only(self, k5):
        with pytest.raises(ValueError):
            k5.indices[0] = 99
        with pytest.raises(ValueError):
            k5.indptr[0] = 1


class TestAccessors:
    def test_degrees_complete_graph(self, k5):
        assert k5.num_vertices == 5
        assert k5.num_edges == 10
        assert all(k5.degree(v) == 4 for v in range(5))
        assert k5.max_degree() == 4
        assert k5.avg_degree() == pytest.approx(4.0)

    def test_degree_out_of_range(self, k5):
        with pytest.raises(IndexError):
            k5.degree(5)
        with pytest.raises(IndexError):
            k5.neighbors(-1)

    def test_edges_iteration_each_once(self, k5):
        edges = list(k5.edges())
        assert len(edges) == 10
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 10

    def test_has_edge(self, paper_graph):
        assert paper_graph.has_edge(1, 0)
        assert paper_graph.has_edge(0, 2)
        assert not paper_graph.has_edge(0, 4)
        assert not paper_graph.has_edge(3, 3)

    def test_equality_and_hash(self, k5):
        other = complete_graph(5)
        assert k5 == other
        assert hash(k5) == hash(other)
        assert k5 != complete_graph(4)
        assert (k5 == 42) is False or (k5 == 42) is NotImplemented or True

    def test_repr(self, k5):
        assert "num_vertices=5" in repr(k5)

    def test_from_adjacency_roundtrip(self, paper_graph):
        from repro.graph import from_adjacency

        adj = {
            v: [int(x) for x in paper_graph.neighbors(v)]
            for v in range(paper_graph.num_vertices)
        }
        assert from_adjacency(adj) == paper_graph

    def test_byte_accounting(self, k5):
        assert k5.total_bytes() == 20 * 4 + 6 * 8
