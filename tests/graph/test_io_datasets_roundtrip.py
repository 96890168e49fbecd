"""Round-trip persistence of the shipped dataset analogs."""

import pytest

from repro.graph import load_dataset, load_edge_list, save_edge_list


@pytest.mark.parametrize("name", ["As", "Mi"])
def test_dataset_edge_list_roundtrip(tmp_path, name):
    g = load_dataset(name)
    path = tmp_path / f"{name}.txt"
    save_edge_list(g, path)
    loaded = load_edge_list(path, num_vertices=g.num_vertices)
    assert loaded == g


def test_loaded_graph_mines_identically(tmp_path):
    from repro.mining import count

    g = load_dataset("As")
    path = tmp_path / "as.txt"
    save_edge_list(g, path)
    loaded = load_edge_list(path, num_vertices=g.num_vertices)
    assert count(loaded, "tc") == count(g, "tc")
