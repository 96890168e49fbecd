"""Degree-aware root chunking: the unit of host-level parallelism.

Search-tree roots are the natural decomposition grain of pattern-aware
mining (paper section 3.1; also G2Miner's per-root GPU mapping and the
UFMG GPU-strategies study).  On power-law graphs root costs are wildly
skewed — a hub root can carry orders of magnitude more work than the
median — so equal-*count* chunks serialize on whichever chunk holds the
hubs.  ``shard_roots`` therefore cuts the root sequence into contiguous
chunks of approximately equal *cumulative degree*, the same first-order
cost estimate the task dividers use on chip.

Two properties matter for the determinism contract (see
``docs/PARALLELISM.md``):

* chunks are **contiguous in root order**, so concatenating per-chunk
  results in chunk order reproduces the serial iteration order exactly;
* the decomposition is a **pure function** of ``(degrees, roots,
  num_shards)`` — never of the worker count — so any ``jobs`` value
  computes the same chunks and hence identical merged results.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "DEFAULT_SHARDS",
    "CHUNKS_PER_JOB",
    "default_num_shards",
    "engine_num_chunks",
    "shard_roots",
]

#: Default shard count for the sharded chip / software models.  Fixed —
#: deliberately *not* derived from ``jobs`` — so the sharded-model
#: decomposition (and therefore its cycle count) is identical for every
#: worker count.
DEFAULT_SHARDS = 16

#: Over-decomposition factor for the reference engine, whose results are
#: chunking-independent: more chunks than workers lets the process pool
#: hand out work dynamically and absorb power-law skew.
CHUNKS_PER_JOB = 4


def default_num_shards(num_roots: int) -> int:
    """Shard count for the sharded simulator model (jobs-independent)."""
    return max(1, min(num_roots, DEFAULT_SHARDS))


def engine_num_chunks(num_roots: int, jobs: int) -> int:
    """Chunk count for the reference engine (dynamic load balancing)."""
    return max(1, min(num_roots, max(1, jobs) * CHUNKS_PER_JOB))


def shard_roots(
    graph: CSRGraph,
    roots: Iterable[int] | None,
    num_shards: int,
) -> list[list[int]]:
    """Cut ``roots`` into at most ``num_shards`` contiguous chunks of
    approximately equal cumulative degree.

    ``roots=None`` means every vertex (the same default as the engine and
    the simulators).  Returns only non-empty chunks, in root order; their
    concatenation is exactly the input sequence.  Deterministic: equal
    inputs always produce equal chunks.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if roots is None:
        root_arr = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        root_arr = np.asarray(graph.check_roots(roots), dtype=np.int64)
    if root_arr.size == 0:
        return []
    num_shards = min(num_shards, root_arr.size)
    if num_shards == 1:
        return [root_arr.tolist()]
    # Weight each root by degree + 1 (the +1 keeps zero-degree roots from
    # collapsing boundaries) and cut at equal cumulative-weight targets.
    weights = graph.degrees()[root_arr] + 1
    cumulative = np.cumsum(weights)
    total = int(cumulative[-1])
    targets = total * np.arange(1, num_shards) / num_shards
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [root_arr.size])))
    return [
        root_arr[a:b].tolist()
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
