"""Tests for dataset analogs, persistence, and statistics."""

import pytest

from repro.graph import (
    DATASET_SPECS,
    dataset_names,
    from_edges,
    graph_stats,
    load_dataset,
    load_edge_list,
    save_edge_list,
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


class TestStats:
    def test_table1_row(self, k5):
        s = graph_stats(k5)
        assert s.row() == (5, 10, 4.0, 4)

    def test_empty(self):
        s = graph_stats(from_edges([], num_vertices=0))
        assert s.num_vertices == 0
        assert s.median_degree == 0.0
