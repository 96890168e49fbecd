"""Immutable CSR (compressed sparse row) graph with sorted adjacency lists.

The mining algorithms in this repository rely on two invariants that
:class:`CSRGraph` guarantees at construction time:

* the graph is *simple* and *undirected*: no self loops, no duplicate
  edges, and every edge appears in both endpoint lists;
* every neighbor list is sorted ascending, so set intersection and
  subtraction are one-pass merges (paper section 2.1, "Set operations and
  representation").
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

__all__ = ["CSRGraph"]

_INDPTR_DTYPE = np.int64
_INDICES_DTYPE = np.int32


def _check_castable(name: str, values, dtype) -> None:
    """Raise ``ValueError`` unless ``values`` are integers that ``dtype``
    holds exactly."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {arr.dtype}")
    info = np.iinfo(dtype)
    if arr.size and (int(arr.min()) < info.min or int(arr.max()) > info.max):
        raise ValueError(f"{name} values do not fit {info.dtype}")


class CSRGraph:
    """An undirected simple graph stored in compressed sparse row form.

    Parameters
    ----------
    indptr:
        ``num_vertices + 1`` offsets into ``indices``; the neighbor list of
        vertex ``v`` is ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Concatenated neighbor lists, each sorted ascending.
    validate:
        When true (default), check that both arrays hold integers their
        stored dtypes (int64, int32) represent exactly, then all
        structural invariants.  Pass false only when the arrays are
        known-good (e.g. built by :mod:`repro.graph.builders`).

    Notes
    -----
    Instances are immutable: the underlying arrays are marked read-only.
    Use the builders in :mod:`repro.graph.builders` to construct graphs
    from edge lists or adjacency dicts.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_edge_key_cache",
        "_adj_bitmap_cache",
        "_fingerprint_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        if validate:
            # Before the casts below, which would wrap or truncate.
            _check_castable("indptr", indptr, _INDPTR_DTYPE)
            _check_castable("indices", indices, _INDICES_DTYPE)
        indptr = np.ascontiguousarray(indptr, dtype=_INDPTR_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=_INDICES_DTYPE)
        if validate:
            self._validate(indptr, indices)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._edge_key_cache: np.ndarray | None = None
        self._adj_bitmap_cache: np.ndarray | None = None
        self._fingerprint_cache: str | None = None

    @staticmethod
    def _validate(indptr: np.ndarray, indices: np.ndarray) -> None:
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
                f"({indices.size})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise ValueError("neighbor ids out of range")
        vertex_of = np.repeat(np.arange(n, dtype=_INDICES_DTYPE), np.diff(indptr))
        if np.any(vertex_of == indices):
            raise ValueError("self loops are not allowed")
        # Sorted-strictly-increasing within each row implies no duplicates.
        diffs = np.diff(indices)
        if diffs.size:
            breaks = np.zeros(indices.size - 1, dtype=bool)
            boundary = indptr[1:-1]
            boundary = boundary[(boundary > 0) & (boundary < indices.size)]
            breaks[boundary - 1] = True
            if np.any((diffs <= 0) & ~breaks):
                raise ValueError("neighbor lists must be strictly increasing")
        # Symmetry: every (u, v) edge must appear as (v, u) as well.
        if indices.size:
            fwd = vertex_of.astype(np.int64) * n + indices
            rev = indices.astype(np.int64) * n + vertex_of
            if not np.array_equal(np.sort(fwd), np.sort(rev)):
                raise ValueError(
                    "adjacency is not symmetric (graph must be undirected)"
                )

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (each counted once)."""
        return self._indices.size // 2

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row offsets."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only concatenated sorted neighbor lists."""
        return self._indices

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` as a read-only array view."""
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.num_vertices})")
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an int64 array."""
        return np.diff(self._indptr)

    def check_roots(self, roots: Iterable[int]) -> list[int]:
        """``roots`` as a list of ints, each a vertex id of this graph.

        Raises ``ValueError`` naming the first root outside
        ``[0, |V|)``: a negative id would otherwise index adjacency
        rows from the end.
        """
        out = [int(r) for r in roots]
        n = self.num_vertices
        for r in out:
            if not 0 <= r < n:
                raise ValueError(
                    f"root {r} is not a vertex id of a graph with |V| = {n}"
                )
        return out

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        if u == v:
            return False
        nu = self.neighbors(u)
        i = int(np.searchsorted(nu, v))
        return i < nu.size and int(nu[i]) == v

    def _vertex_of(self) -> np.ndarray:
        """Source vertex of every ``indices`` entry, as int64."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self._indptr)
        )

    def edge_array(self) -> np.ndarray:
        """Undirected edges once each, as an ``(m, 2)`` int64 array of
        ``(u, v)`` rows with ``u < v``, in :meth:`edges` order (by ``u``,
        then ``v``)."""
        vertex_of = self._vertex_of()
        upper = vertex_of < self._indices
        return np.stack([vertex_of[upper], self._indices[upper]], axis=1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` Python ints
        with ``u < v``, ordered by ``u`` and then ``v``."""
        us, vs = self.edge_array().T.tolist()
        return zip(us, vs)

    def max_degree(self) -> int:
        """Largest vertex degree (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def avg_degree(self) -> float:
        """Mean vertex degree (0.0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0.0
        return self._indices.size / self.num_vertices

    # ------------------------------------------------------------------
    # Segmented-kernel membership tables (repro.setops.segmented)
    # ------------------------------------------------------------------

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 edge keys ``u * |V| + v`` for every directed edge.

        Because the CSR rows are stored in vertex order with sorted
        neighbor lists, the concatenation is already globally sorted —
        building the table is one vectorized multiply-add.  Batched edge
        membership is then a single ``searchsorted`` per query array
        (the ``"edgekey"`` kernel of :mod:`repro.setops.segmented`).
        Memoized per graph; ~8 bytes per directed edge.
        """
        cached = self._edge_key_cache
        if cached is None:
            cached = self._vertex_of() * self.num_vertices + self._indices
            cached.setflags(write=False)
            self._edge_key_cache = cached
        return cached

    def adjacency_bitmap(self) -> np.ndarray:
        """Packed adjacency matrix: row ``v`` is ``N(v)`` as uint64 bits.

        ``ceil(|V| / 64) * 8`` bytes per vertex — callers must gate on
        :meth:`adjacency_bitmap_bytes` before building (the segmented
        dispatch does).  Memoized per graph; read-only.
        """
        cached = self._adj_bitmap_cache
        if cached is None:
            from repro.setops.segmented import SegmentedSet, row_bitsets

            cached = row_bitsets(
                SegmentedSet(self._indices, self._indptr),
                (self.num_vertices + 63) // 64,
            )
            cached.setflags(write=False)
            self._adj_bitmap_cache = cached
        return cached

    def adjacency_bitmap_bytes(self) -> int:
        """Storage the dense adjacency bitmap would need, in bytes."""
        n = self.num_vertices
        return n * ((n + 63) // 64) * 8

    # ------------------------------------------------------------------
    # Memory-footprint helpers used by the hardware cache models
    # ------------------------------------------------------------------

    def total_bytes(self, *, bytes_per_id: int = 4) -> int:
        """Approximate DRAM footprint of the CSR structure."""
        return self._indices.size * bytes_per_id + self._indptr.size * 8

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over ``indptr | indices``: the content hash cache keys
        name a graph by (:meth:`repro.core.backend.Backend.cache_key`).

        Memoized per instance, which the read-only arrays make safe.
        """
        cached = self._fingerprint_cache
        if cached is None:
            h = hashlib.sha256()
            h.update(self._indptr.tobytes())
            h.update(b"|")
            h.update(self._indices.tobytes())
            cached = h.hexdigest()
            self._fingerprint_cache = cached
        return cached

    def __getstate__(self):
        # The memoized tables are derived data and can be large; rebuild
        # them lazily on the receiving side instead of shipping them to
        # workers.
        return (self._indptr, self._indices)

    def __setstate__(self, state) -> None:
        indptr, indices = state
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._edge_key_cache = None
        self._adj_bitmap_cache = None
        self._fingerprint_cache = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
