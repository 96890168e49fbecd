"""Shared fixtures: small graphs with known structure."""

from __future__ import annotations

import os

import pytest

from repro.graph import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edges,
    path_graph,
    star_graph,
)


def _session_env(tmp_path_factory, variable):
    previous = os.environ.get(variable)
    os.environ[variable] = str(tmp_path_factory.mktemp(variable.lower()))
    yield
    if previous is None:
        os.environ.pop(variable, None)
    else:
        os.environ[variable] = previous


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a per-session temp dir so the
    test suite never reads or pollutes the user's ``~/.cache/repro``."""
    yield from _session_env(tmp_path_factory, "REPRO_CACHE_DIR")


@pytest.fixture(autouse=True, scope="session")
def _isolated_results_dir(tmp_path_factory):
    """Point the results directory (the experiment store and reports)
    at a per-session temp dir, so no test appends to the committed
    ``benchmarks/results/store``."""
    yield from _session_env(tmp_path_factory, "REPRO_RESULTS_DIR")


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def paper_graph():
    """The 5-vertex input graph of paper Figure 1 (vertices renumbered 0-4).

    Paper vertices {1, 2, 3, 4, 5} -> {0, 1, 2, 3, 4}; edges as drawn:
    2-1, 2-3, 2-4, 2-5, 1-3, 3-5.
    """
    return from_edges([(1, 0), (1, 2), (1, 3), (1, 4), (0, 2), (2, 4)])


@pytest.fixture
def small_random():
    return erdos_renyi(30, 0.3, seed=7)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def star10():
    return star_graph(10)


@pytest.fixture
def p4():
    return path_graph(4)
