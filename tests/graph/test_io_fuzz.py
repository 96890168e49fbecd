"""Fuzzing the graph inputs: a malformed edge list or arbitrary CSR
arrays either build a valid graph or raise ``ValueError`` — never
another exception type, never a graph that breaks the CSR invariants."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.io import load_edge_list

FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_valid(graph: CSRGraph) -> None:
    # Validate again on a fresh CSRGraph: no input may yield arrays that
    # break the CSR invariants.
    CSRGraph(graph.indptr, graph.indices)


def _load(loader, payload: bytes, suffix: str, **kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"g{suffix}"
        path.write_bytes(payload)
        try:
            graph = loader(path, **kw)
        except ValueError:
            return None
    _assert_valid(graph)
    return graph


#: Small ids, signs, junk and comment markers: the tokens of a damaged
#: edge list whose ids stay small enough to build cheaply.
_TOKEN = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(
        ["x", "1.5", "", "#", "%", "0x1", "1e3", "+2", "1_0", "٣", "nan",
         "\t", "99999999999999999999"]
    ),
)
_LINE = st.lists(_TOKEN, max_size=4).map(" ".join)


class TestEdgeListFuzz:
    @given(lines=st.lists(_LINE, max_size=12),
           num_vertices=st.one_of(st.none(), st.integers(0, 45)))
    @FUZZ
    def test_token_soup(self, lines, num_vertices):
        text = "\n".join(lines).encode("utf-8")
        graph = _load(load_edge_list, text, ".txt", num_vertices=num_vertices)
        if graph is not None and num_vertices is not None:
            assert graph.num_vertices == num_vertices

    @given(payload=st.binary(max_size=200))
    @FUZZ
    def test_arbitrary_bytes(self, payload):
        # num_vertices bounds every id, so no input allocates much.
        _load(load_edge_list, payload, ".txt", num_vertices=50)


_ARRAY = st.one_of(
    st.lists(st.integers(-5, 30), max_size=12).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.sampled_from([
        np.array([0.0, 1.5, 2.0]),
        np.array([True, False]),
        np.array([[0, 1], [1, 0]]),
        np.array(3),
        np.array(["0", "1"]),
        np.array([0, 2**40], dtype=np.int64),
        np.array([0, 2**63], dtype=np.uint64),
        np.array([0, 1], dtype=np.int8),
    ]),
)


class TestCSRGraphFuzz:
    @given(indptr=_ARRAY, indices=_ARRAY)
    @FUZZ
    def test_arbitrary_arrays(self, indptr, indices):
        try:
            graph = CSRGraph(indptr, indices)
        except ValueError:
            return
        _assert_valid(graph)
