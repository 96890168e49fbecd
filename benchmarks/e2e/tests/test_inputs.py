"""Inputs are a pure function of the seed."""

import pytest
from repro.cache import graph_fingerprint
from workloads import WORKLOADS


def _prints(name, seed):
    graphs = WORKLOADS[name].build(seed)
    return {key: graph_fingerprint(g) for key, g in graphs.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_graphs_other_seed_other_graphs(name):
    first = _prints(name, 1)
    assert _prints(name, 1) == first
    other = _prints(name, 2)
    assert other.keys() == first.keys()
    assert all(other[k] != first[k] for k in first)
