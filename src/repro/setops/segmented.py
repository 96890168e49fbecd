"""Segment-aware set-operation kernels for the frontier engine.

The recursive engine applies each plan op to *one* candidate set at a
time (:mod:`repro.setops.merge`).  The frontier engine instead carries
thousands of per-embedding candidate sets as a single
:class:`SegmentedSet` — one flat ``values`` array plus ``offsets``
marking each row's slice, the struct-of-arrays layout of the paper's
segment-level parallelism (sections 3.4/4.2, :mod:`repro.setops.segments`)
— and needs every op as *one* vectorized pass over the concatenation.

Intersections and subtractions against per-row neighbor lists reduce to
batched edge-membership queries ``value in N(owner)``, served by one of
two kernels chosen from the graph alone (:func:`pick_segment_kernel`):

``bitmap``
    Probe a dense packed adjacency matrix
    (:meth:`repro.graph.csr.CSRGraph.adjacency_bitmap`) with shift/mask —
    ``O(1)`` per query, used whenever the bitmap fits
    :data:`BITMAP_BUDGET_BYTES`.
``edgekey``
    Binary-search ``owner * |V| + value`` keys in the sorted edge-key
    table (:meth:`repro.graph.csr.CSRGraph.edge_keys`) —
    ``O(log |E|)`` per query, no dense storage; every larger graph.

Word-parallel helpers (:func:`row_bitsets` and its inverse
:func:`bitset_rows`, :func:`gt_mask`, :func:`clear_bits`) treat a
candidate set as ``ceil(|V| / 64)`` uint64 words instead of single
elements, the bit-vector set-op idea of SISA and G2Miner (PAPERS.md).
The frontier engine ANDs them against adjacency-bitmap rows: its fused
terminal probe and the trace's leaf counts popcount the result, and
wide level ops decode it back to ids.

**Contract (docs/KERNELS.md): kernel choice is functional-only.**  Both
kernels return the identical membership mask, so counts and the timing
models do not depend on which one runs.  The dispatch decision is a
pure function of the graph's size — never of the batch, a policy, or
cache warm-up state — so the sanitizer's double-run dispatch traces
stay bit-identical.  Decisions are tallied via
:func:`repro.setops.kernels._tally` under ``"seg_<op>/<kernel>"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.setops.kernels import _tally

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.csr import CSRGraph

__all__ = [
    "BITMAP_BUDGET_BYTES",
    "SegmentedSet",
    "gather_neighbors",
    "neighbor_membership",
    "intersect_neighbors",
    "subtract_neighbors",
    "compress",
    "concat",
    "pick_segment_kernel",
    "row_bitsets",
    "bitset_rows",
    "gt_mask",
    "clear_bits",
]

_EMPTY_VALUES = np.empty(0, dtype=np.int32)
_EMPTY_OFFSETS = np.zeros(1, dtype=np.int64)
#: A uint64 word with every bit set.
ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Largest dense adjacency bitmap the membership dispatch builds; graphs
#: whose bitmap is bigger use the edge-key kernel.
BITMAP_BUDGET_BYTES = 16 << 20


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
    if not parts:
        return SegmentedSet.empty()
    if len(parts) == 1:
        return parts[0]
    bases = np.cumsum([0] + [p.total for p in parts[:-1]])
    offsets = np.concatenate(
        [parts[0].offsets[:1]]
        + [p.offsets[1:] + base for p, base in zip(parts, bases)]
    )
    return SegmentedSet(np.concatenate([p.values for p in parts]), offsets)


# ----------------------------------------------------------------------
# Batched edge membership — the two kernels
# ----------------------------------------------------------------------


def pick_segment_kernel(graph: "CSRGraph") -> str:
    """The membership kernel for ``graph``: ``"bitmap"`` when its dense
    adjacency bitmap fits :data:`BITMAP_BUDGET_BYTES`, else
    ``"edgekey"``.

    Pure in the graph's shape: the decision never reads whether a table
    is already cached, so sanitized double runs see the same dispatch
    trace.
    """
    if graph.adjacency_bitmap_bytes() <= BITMAP_BUDGET_BYTES:
        return "bitmap"
    return "edgekey"


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


def neighbor_membership(
    graph: "CSRGraph",
    values: np.ndarray,
    owners: np.ndarray,
    *,
    op: str = "member",
) -> np.ndarray:
    """Boolean mask: ``values[i] in N(owners[i])``, batched.

    ``op`` labels the dispatch tally (``"seg_<op>/<kernel>"``) so the
    profiling counters distinguish intersect/subtract/fused probes.
    """
    if values.size == 0:
        return np.zeros(0, dtype=bool)
    kernel = pick_segment_kernel(graph)
    _tally(f"seg_{op}/{kernel}")
    if kernel == "bitmap":
        return _bitmap_membership(graph, values, owners)
    return _edgekey_membership(graph, values, owners)


def intersect_neighbors(
    source: SegmentedSet, graph: "CSRGraph", vertices: np.ndarray
) -> SegmentedSet:
    """Per-row ``source[r] ∩ N(vertices[r])`` in one pass."""
    owners = np.repeat(vertices, source.lengths)
    keep = neighbor_membership(graph, source.values, owners, op="intersect")
    return compress(source, keep)


def subtract_neighbors(
    source: SegmentedSet, graph: "CSRGraph", vertices: np.ndarray
) -> SegmentedSet:
    """Per-row ``source[r] − N(vertices[r])`` in one pass."""
    owners = np.repeat(vertices, source.lengths)
    member = neighbor_membership(graph, source.values, owners, op="subtract")
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


def bitset_rows(bits: np.ndarray) -> SegmentedSet:
    """The inverse of :func:`row_bitsets`: row ``r`` of the
    ``(rows, words)`` uint64 array as a sorted id list.

    Only nonzero words are unpacked, 64 bits each, in row-major word
    order, so the ids come out sorted within every row.
    """
    rows, words = bits.shape
    flat = bits.ravel()
    nonzero = np.flatnonzero(flat)
    unpacked = np.unpackbits(
        flat[nonzero].astype("<u8", copy=False).view(np.uint8),
        bitorder="little",
    ).reshape(nonzero.size, 64)
    word, bit = np.nonzero(unpacked)
    key = nonzero[word]
    values = ((key % words) * 64 + bit).astype(np.int32)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // words, minlength=rows), out=offsets[1:])
    return SegmentedSet(values, offsets)


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
