"""Segment-aware set-operation kernels for the frontier engine.

The recursive engine applies each plan op to *one* candidate set at a
time (:mod:`repro.setops.merge`).  The frontier engine instead carries
thousands of per-embedding candidate sets as a single
:class:`SegmentedSet` — one flat ``values`` array plus ``offsets``
marking each row's slice, the struct-of-arrays layout of the paper's
segment-level parallelism (sections 3.4/4.2, :mod:`repro.setops.segments`)
— and needs every op as *one* vectorized pass over the concatenation.

Intersections and subtractions against per-row neighbor lists reduce to
batched edge-membership queries ``value in N(owner)``, served by three
interchangeable kernels:

``bitmap``
    Probe a dense packed adjacency matrix
    (:meth:`repro.graph.csr.CSRGraph.adjacency_bitmap`) with shift/mask —
    ``O(1)`` per query, the win whenever the bitmap fits the policy's
    byte budget.
``edgekey``
    Binary-search ``owner * |V| + value`` keys in the sorted edge-key
    table (:meth:`repro.graph.csr.CSRGraph.edge_keys`) —
    ``O(log |E|)`` per query, no dense storage.
``bisect``
    Lockstep vectorized binary search of each query inside its owner's
    CSR slice — ``O(log max_degree)`` per query with *no* auxiliary
    table, the fallback for small batches where building/loading a
    table cannot amortize.

Word-parallel helpers (:func:`row_bitsets`, :func:`gt_mask`,
:func:`clear_bits`) treat a candidate set as ``ceil(|V| / 64)`` uint64
words instead of single elements, the bit-vector set-op idea of SISA
and G2Miner (PAPERS.md); the frontier engine's fused terminal probe
ANDs and popcounts them against adjacency-bitmap rows.

**Contract (docs/KERNELS.md): kernel choice is functional-only.**  Every
kernel returns the identical membership mask, so counts, dispatch-traced
results, and the timing models are unchanged for every policy.  The
dispatch decision is a pure function of the query-batch size, the graph
shape, and the policy — never of cache warm-up state — so the sanitizer's
double-run dispatch traces stay bit-identical.  Decisions are tallied via
:func:`repro.setops.kernels._tally` under ``"seg_<op>/<kernel>"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.setops.kernels import (
    DEFAULT_POLICY,
    SEGMENT_KERNEL_NAMES,
    KernelPolicy,
    _tally,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.csr import CSRGraph

__all__ = [
    "SegmentedSet",
    "SEGMENT_KERNEL_NAMES",
    "gather_neighbors",
    "neighbor_membership",
    "intersect_neighbors",
    "subtract_neighbors",
    "compress",
    "concat",
    "pick_segment_kernel",
    "row_bitsets",
    "gt_mask",
    "clear_bits",
]

_EMPTY_VALUES = np.empty(0, dtype=np.int32)
_EMPTY_OFFSETS = np.zeros(1, dtype=np.int64)
#: A uint64 word with every bit set.
ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Below this many queries the per-query ``O(log max_degree)`` bisect
#: kernel beats loading the edge-key table into cache.
_EDGEKEY_MIN_QUERIES = 2048


@dataclass(frozen=True)
class SegmentedSet:
    """Many sorted candidate sets in one flat array.

    ``values`` concatenates the rows; row ``r`` is
    ``values[offsets[r]:offsets[r + 1]]`` (``offsets`` has ``rows + 1``
    int64 entries, starting at 0).  Rows are sorted strictly-increasing
    id lists, exactly like single candidate sets, so every scalar-set
    invariant holds per row.
    """

    values: np.ndarray
    offsets: np.ndarray

    @property
    def rows(self) -> int:
        return self.offsets.size - 1

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, r: int) -> np.ndarray:
        """One row's values (a view)."""
        return self.values[self.offsets[r] : self.offsets[r + 1]]

    def row_ids(self) -> np.ndarray:
        """The owning row index of every element of ``values``."""
        return np.repeat(
            np.arange(self.rows, dtype=np.int64), self.lengths
        )

    def take_rows(self, rows: np.ndarray) -> "SegmentedSet":
        """Gather a new segmented set whose row ``i`` is ``self`` row
        ``rows[i]`` (rows may repeat — this is the frontier expansion
        primitive)."""
        starts = self.offsets[:-1][rows]
        lens = self.lengths[rows]
        values, offsets = _gather(self.values, starts, lens)
        return SegmentedSet(values, offsets)

    def slice_rows(self, a: int, b: int) -> "SegmentedSet":
        """Rows ``a:b`` as a segmented set (cheap views)."""
        lo, hi = int(self.offsets[a]), int(self.offsets[b])
        return SegmentedSet(
            self.values[lo:hi], self.offsets[a : b + 1] - lo
        )

    @staticmethod
    def empty(rows: int = 0) -> "SegmentedSet":
        return SegmentedSet(
            _EMPTY_VALUES, np.zeros(rows + 1, dtype=np.int64)
        )


def _gather(
    values: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[starts[i]:starts[i]+lens[i]]`` slices."""
    lens = np.asarray(lens, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    total = int(offsets[-1])
    if total == 0:
        return values[:0], offsets
    pos = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets[:-1], lens)
        + np.repeat(np.asarray(starts, dtype=np.int64), lens)
    )
    return values[pos], offsets


def gather_neighbors(graph: "CSRGraph", vertices: np.ndarray) -> SegmentedSet:
    """Row ``i`` = ``N(vertices[i])`` — the segmented INIT_COPY."""
    vertices = np.asarray(vertices)
    starts = graph.indptr[vertices]
    lens = graph.indptr[vertices + 1] - starts
    values, offsets = _gather(graph.indices, starts, lens)
    return SegmentedSet(values, offsets)


def compress(seg: SegmentedSet, keep: np.ndarray) -> SegmentedSet:
    """Filter a segmented set by a per-element boolean mask.

    Row boundaries are recomputed with one cumulative sum, so the cost
    is ``O(total)`` regardless of how many rows empty out.
    """
    kept_before = np.concatenate(
        ([0], np.cumsum(keep, dtype=np.int64))
    )
    return SegmentedSet(seg.values[keep], kept_before[seg.offsets])


def concat(parts: list[SegmentedSet]) -> SegmentedSet:
    """The rows of ``parts``, one after another, as one segmented set."""
    if len(parts) == 1:
        return parts[0]
    bases = np.cumsum([0] + [p.total for p in parts[:-1]])
    offsets = np.concatenate(
        [parts[0].offsets[:1]]
        + [p.offsets[1:] + base for p, base in zip(parts, bases)]
    )
    return SegmentedSet(np.concatenate([p.values for p in parts]), offsets)


# ----------------------------------------------------------------------
# Batched edge membership — the three kernels
# ----------------------------------------------------------------------


def pick_segment_kernel(
    graph: "CSRGraph", num_queries: int, policy: KernelPolicy
) -> str:
    """Choose the membership kernel for one query batch.

    Pure in (graph shape, batch size, policy): the decision never reads
    whether a table is already cached, so sanitized double runs see the
    same dispatch trace.
    """
    if policy.force_segment_kernel is not None:
        return policy.force_segment_kernel
    if graph.adjacency_bitmap_bytes() <= policy.segment_bitmap_bytes:
        return "bitmap"
    if num_queries >= _EDGEKEY_MIN_QUERIES:
        return "edgekey"
    return "bisect"


def _bitmap_membership(
    graph: "CSRGraph", values: np.ndarray, owners: np.ndarray
) -> np.ndarray:
    words = graph.adjacency_bitmap()
    if words.size == 0:
        return np.zeros(values.size, dtype=bool)
    flat = words.ravel()
    idx = owners.astype(np.int64) * words.shape[1] + (values >> 6)
    bit = (flat[idx] >> (values & 63).astype(np.uint64)) & np.uint64(1)
    return bit.astype(bool)


def _edgekey_membership(
    graph: "CSRGraph", values: np.ndarray, owners: np.ndarray
) -> np.ndarray:
    table = graph.edge_keys()
    if table.size == 0:
        return np.zeros(values.size, dtype=bool)
    keys = owners.astype(np.int64) * graph.num_vertices + values
    idx = np.searchsorted(table, keys)
    idx[idx == table.size] = 0
    return table[idx] == keys


def _bisect_membership(
    graph: "CSRGraph", values: np.ndarray, owners: np.ndarray
) -> np.ndarray:
    indices = graph.indices
    if indices.size == 0:
        return np.zeros(values.size, dtype=bool)
    lo = graph.indptr[owners].copy()
    end = graph.indptr[np.asarray(owners) + 1]
    hi = end.copy()
    # Lockstep binary search: every lane halves its own CSR slice until
    # it converges on the insertion point of its query value.
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        less = indices[np.minimum(mid, indices.size - 1)] < values
        go_right = active & less
        go_left = active & ~less
        lo[go_right] = mid[go_right] + 1
        hi[go_left] = mid[go_left]
    hit = np.zeros(values.size, dtype=bool)
    in_range = lo < end
    hit[in_range] = indices[lo[in_range]] == values[in_range]
    return hit


_MEMBERSHIP = {
    "bitmap": _bitmap_membership,
    "edgekey": _edgekey_membership,
    "bisect": _bisect_membership,
}


def neighbor_membership(
    graph: "CSRGraph",
    values: np.ndarray,
    owners: np.ndarray,
    policy: KernelPolicy = DEFAULT_POLICY,
    *,
    op: str = "member",
) -> np.ndarray:
    """Boolean mask: ``values[i] in N(owners[i])``, batched.

    ``op`` labels the dispatch tally (``"seg_<op>/<kernel>"``) so the
    profiling counters distinguish intersect/subtract/fused probes.
    """
    if values.size == 0:
        return np.zeros(0, dtype=bool)
    kernel = pick_segment_kernel(graph, int(values.size), policy)
    _tally(f"seg_{op}/{kernel}")
    return _MEMBERSHIP[kernel](graph, values, owners)


def intersect_neighbors(
    source: SegmentedSet,
    graph: "CSRGraph",
    vertices: np.ndarray,
    policy: KernelPolicy = DEFAULT_POLICY,
) -> SegmentedSet:
    """Per-row ``source[r] ∩ N(vertices[r])`` in one pass."""
    owners = np.repeat(vertices, source.lengths)
    keep = neighbor_membership(
        graph, source.values, owners, policy, op="intersect"
    )
    return compress(source, keep)


def subtract_neighbors(
    source: SegmentedSet,
    graph: "CSRGraph",
    vertices: np.ndarray,
    policy: KernelPolicy = DEFAULT_POLICY,
) -> SegmentedSet:
    """Per-row ``source[r] − N(vertices[r])`` in one pass."""
    owners = np.repeat(vertices, source.lengths)
    member = neighbor_membership(
        graph, source.values, owners, policy, op="subtract"
    )
    return compress(source, ~member)


# ----------------------------------------------------------------------
# Word-parallel bitsets
# ----------------------------------------------------------------------


def row_bitsets(seg: SegmentedSet, words: int) -> np.ndarray:
    """Every row as a uint64 bitset: a ``(rows, words)`` array whose
    row ``r`` has bit ``v`` set iff ``v`` is in ``seg`` row ``r``.

    Rows are sorted, so the ``(row, word)`` keys of the elements are
    already sorted and one ``bitwise_or.reduceat`` packs each key's
    bits.
    """
    out = np.zeros(seg.rows * words, dtype=np.uint64)
    if seg.total:
        vals = seg.values
        keys = seg.row_ids() * words + (vals >> 6)
        bits = np.uint64(1) << (vals & 63).astype(np.uint64)
        starts = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1]))
        )
        out[keys[starts]] = np.bitwise_or.reduceat(bits, starts)
    return out.reshape(seg.rows, words)


def gt_mask(bounds: np.ndarray, words: int) -> np.ndarray:
    """``(len(bounds), words)`` uint64 masks; row ``i`` has every bit
    ``v > bounds[i]`` set (the word form of a lower bound)."""
    bounds = np.asarray(bounds, dtype=np.int64)
    word = bounds >> 6
    out = np.where(
        np.arange(words) > word[:, None], ALL_BITS, np.uint64(0)
    )
    # Two shifts: bits above position b, without shifting by 64 at b=63.
    shift = (bounds & 63).astype(np.uint64)
    out[np.arange(bounds.size), word] = (ALL_BITS << shift) << np.uint64(1)
    return out


def clear_bits(bitsets: np.ndarray, verts: np.ndarray) -> None:
    """Clear bit ``verts[i]`` of ``bitsets`` row ``i``, in place."""
    verts = np.asarray(verts, dtype=np.int64)
    bit = np.uint64(1) << (verts & 63).astype(np.uint64)
    bitsets[np.arange(verts.size), verts >> 6] &= ~bit
