"""Tests for dataset analogs, persistence, and statistics."""

import numpy as np
import pytest

from repro.graph import (
    DATASET_SPECS,
    dataset_names,
    degree_histogram,
    from_edges,
    graph_stats,
    load_dataset,
    load_edge_list,
    load_npz,
    save_edge_list,
    save_npz,
)
from repro.graph.datasets import CACHE_SCALE


class TestDatasets:
    def test_six_names_in_paper_order(self):
        assert dataset_names() == ["As", "Mi", "Yo", "Pa", "Lj", "Or"]

    def test_specs_cover_all(self):
        assert set(DATASET_SPECS) == set(dataset_names())

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_deterministic(self):
        load_dataset.cache_clear()
        a = load_dataset("As")
        load_dataset.cache_clear()
        b = load_dataset("As")
        assert a == b

    def test_degree_ordering_default(self):
        g = load_dataset("Mi")
        degrees = g.degrees()
        assert degrees[0] == g.max_degree()

    @pytest.mark.parametrize("name", ["As", "Mi", "Yo", "Pa", "Lj", "Or"])
    def test_analog_regimes(self, name):
        """Each analog must sit in its paper cache regime (DESIGN.md)."""
        g = load_dataset(name)
        shared = 4 * 1024 * 1024 // CACHE_SCALE
        if name in ("As", "Mi"):
            assert g.total_bytes() < shared, f"{name} must fit the shared cache"
        else:
            assert g.total_bytes() > shared, f"{name} must exceed the shared cache"

    def test_yo_lowest_average_degree(self):
        avg = {n: load_dataset(n).avg_degree() for n in dataset_names()}
        assert min(avg, key=avg.get) == "Yo"

    def test_or_highest_average_degree(self):
        avg = {n: load_dataset(n).avg_degree() for n in dataset_names()}
        assert max(avg, key=avg.get) == "Or"

    def test_pa_low_max_degree(self):
        maxes = {n: load_dataset(n).max_degree() for n in dataset_names()}
        assert min(maxes, key=maxes.get) == "Pa"


class TestIO:
    def test_edge_list_roundtrip(self, tmp_path, small_random):
        path = tmp_path / "g.txt"
        save_edge_list(small_random, path)
        loaded = load_edge_list(path, num_vertices=small_random.num_vertices)
        assert loaded == small_random

    def test_edge_list_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% other\n\n0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="expected"):
            load_edge_list(path)

    @pytest.mark.parametrize(
        "text, kw, match",
        [
            ("0 1\n1 x\n", {}, r"bad\.txt:2: vertex ids must be integers"),
            ("0 1\n\n1.5 2\n", {}, r"bad\.txt:3: vertex ids must be integers"),
            ("# c\n2 -1\n", {}, r"bad\.txt:2: negative vertex id -1"),
            ("0 1\n1 4\n", {"num_vertices": 3},
             r"bad\.txt:2: vertex id 4 out of range for 3 vertices"),
            ("0 3000000000\n", {}, r"bad\.txt:1: vertex id 3000000000 out of range"),
        ],
        ids=["non-integer", "float", "negative", "num-vertices-too-small",
             "past-int32"],
    )
    def test_edge_list_errors_name_the_line(self, tmp_path, text, kw, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_edge_list(path, **kw)

    def test_npz_roundtrip(self, tmp_path, small_random):
        path = tmp_path / "g.npz"
        save_npz(small_random, path)
        assert load_npz(path) == small_random

    def test_npz_wrong_archive(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="not a repro graph"):
            load_npz(path)

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
    def test_npz_corrupt_archive_rejected(self, tmp_path, indptr, indices, match):
        path = tmp_path / "bad.npz"
        np.savez(path, indptr=np.array(indptr), indices=np.array(indices))
        with pytest.raises(ValueError, match=match):
            load_npz(path)


class TestStats:
    def test_table1_row(self, k5):
        s = graph_stats(k5)
        assert s.row() == (5, 10, 4.0, 4)

    def test_empty(self):
        s = graph_stats(from_edges([], num_vertices=0))
        assert s.num_vertices == 0
        assert s.median_degree == 0.0

    def test_degree_histogram(self, star10):
        hist = degree_histogram(star10)
        assert hist[1] == 10
        assert hist[10] == 1

    def test_histogram_empty(self):
        hist = degree_histogram(from_edges([], num_vertices=0))
        assert hist.sum() == 0
