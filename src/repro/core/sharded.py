"""The backend-generic sharded driver (plus the engine chunk helpers).

Unlike the reference engine, a timing simulation is *not* associative
over roots: PEs couple through the shared cache's LRU state, the DRAM
channel, and the NoC, so replaying the single-chip event loop in
parallel would require a full parallel-discrete-event simulation.
Instead, ``jobs=`` selects the **sharded (multi-instance) model**: the
root set is cut into shards (a pure function of the graph and roots —
never of the worker count), every shard runs on its own cold backend
instance, and the shard results are merged with the backend's exact
merge (:func:`repro.core.result.merge_run_results` by default).

Because each shard simulation is deterministic and the decomposition is
jobs-independent, ``jobs=1`` and ``jobs=N`` produce bit-for-bit
identical merged results; the worker count only changes the wall clock.
See ``docs/PARALLELISM.md`` for the full contract.

:func:`run_sharded` is the one driver for *every* backend.  The engine's
list-shaped parallel helpers (``per_root_counts_parallel`` and
friends), whose results merge associatively by concatenation rather
than through a :class:`RunResult`, live here too so all host-parallel
dispatch shares one module.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.backend import Backend, get_backend
from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.parallel.chunking import (
    default_num_shards,
    engine_num_chunks,
    shard_roots,
)
from repro.parallel.pool import run_shards
from repro.pattern.plan import ExecutionPlan

__all__ = [
    "count_multi_parallel",
    "list_embeddings_parallel",
    "per_root_counts_parallel",
    "resolve_shards",
    "run_sharded",
]


def resolve_shards(
    graph: CSRGraph,
    roots: Iterable[int] | None,
    num_shards: int | None,
) -> list[list[int]]:
    """The shard decomposition the sharded model will use: a pure
    function of the graph, the roots and ``num_shards`` (the default
    policy when ``None``), never of the worker count.

    Exposed so callers can see the cut without running anything.  The
    result key does not name it: it says only ``sharded``, since every
    sharded run takes the default cut.
    """
    root_list = (
        list(range(graph.num_vertices)) if roots is None else list(roots)
    )
    if num_shards is None:
        num_shards = default_num_shards(len(root_list))
    return shard_roots(graph, root_list, num_shards)


def _backend_worker(payload: dict[str, Any], shard: list[int]) -> RunResult:
    backend = get_backend(payload["backend"])
    return backend.simulate(
        payload["graph"],
        payload["plans"],
        payload["config"],
        roots=shard,
        memory=payload["memory"],
        schedule=payload["schedule"],
    )


def run_sharded(
    backend: Backend,
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config,
    *,
    memory=None,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
    jobs: int = 1,
    num_shards: int | None = None,
) -> RunResult:
    """Run the sharded model on any backend: one cold instance per shard.

    A decomposition of a single shard degenerates to the plain
    single-instance model, so tiny root sets behave identically with
    and without ``jobs``.  ``num_shards`` pins the cut; the front doors
    (``Backend.run``) always take the default.  Workers receive the
    backend by registry name (cheap to pickle; resolved against the
    registry in each process).
    """
    shards = resolve_shards(graph, roots, num_shards)
    if len(shards) <= 1:
        only = shards[0] if shards else []
        return backend.simulate(
            graph, plans, config, roots=only, memory=memory, schedule=schedule
        )
    payload = {
        "backend": backend.name,
        "graph": graph,
        "plans": list(plans),
        "config": config,
        "memory": memory,
        "schedule": schedule,
    }
    return backend.merge(run_shards(_backend_worker, payload, shards, jobs))


# ----------------------------------------------------------------------
# Reference-engine chunk helpers
# ----------------------------------------------------------------------
# The engine's results are associative over roots: counts add, and
# embedding lists concatenate in root order.  Because shard_roots
# produces chunks that are contiguous in root order, merging per-chunk
# results in chunk order reproduces the serial output *exactly* for
# every worker count.  (The engine path may therefore over-decompose
# freely for load balancing, unlike the sharded simulator model whose
# decomposition is part of its timing semantics.)


def _count_worker(
    payload: dict[str, Any], chunk: list[int]
) -> list[tuple[int, int]]:
    from repro.mining import engine

    return list(
        engine.per_root_counts(
            payload["graph"],
            payload["plan"],
            roots=chunk,
            kernels=payload["kernels"],
        )
    )


def _list_worker(
    payload: dict[str, Any], chunk: list[int]
) -> list[tuple[int, ...]]:
    from repro.mining import engine

    return engine.list_embeddings(
        payload["graph"],
        payload["plan"],
        roots=chunk,
        limit=payload["limit"],
    )


def _multi_count_worker(
    payload: dict[str, Any], chunk: list[int]
) -> dict[str, int]:
    from repro.mining import engine

    return engine.count_multi(
        payload["graph"],
        payload["multi"],
        roots=chunk,
        kernels=payload["kernels"],
    )


def _chunked(
    graph: CSRGraph, roots: Iterable[int] | None, jobs: int
) -> list[list[int]]:
    root_list = list(roots) if roots is not None else None
    n = graph.num_vertices if root_list is None else len(root_list)
    return shard_roots(graph, root_list, engine_num_chunks(n, jobs))


def per_root_counts_parallel(
    graph: CSRGraph,
    plan: ExecutionPlan,
    roots: Iterable[int] | None,
    jobs: int,
    *,
    kernels=None,
) -> list[tuple[int, int]]:
    """``(root, count)`` pairs in serial root order, computed on ``jobs``
    worker processes.  The kernel policy is forwarded to every worker, so
    each chunk runs the same engine (a frontier worker batches its whole
    contiguous chunk through one frontier)."""
    chunks = _chunked(graph, roots, jobs)
    payload = {"graph": graph, "plan": plan, "kernels": kernels}
    parts = run_shards(_count_worker, payload, chunks, jobs)
    return [pair for part in parts for pair in part]


def count_multi_parallel(
    graph: CSRGraph,
    multi,
    roots: Iterable[int] | None,
    jobs: int,
    *,
    kernels=None,
) -> dict[str, int]:
    """Multi-pattern totals sharded over ``jobs`` worker processes.

    Each worker runs the shared level-0 trunk path on its chunk; the
    per-pattern totals merge by addition, so the result is bit-identical
    to the serial shared-trunk pass.
    """
    chunks = _chunked(graph, roots, jobs)
    payload = {"graph": graph, "multi": multi, "kernels": kernels}
    parts = run_shards(_multi_count_worker, payload, chunks, jobs)
    totals = {name: 0 for name in multi.names}
    for part in parts:
        for name, count in part.items():
            totals[name] += count
    return totals


def list_embeddings_parallel(
    graph: CSRGraph,
    plan: ExecutionPlan,
    roots: Iterable[int] | None,
    limit: int | None,
    jobs: int,
) -> list[tuple[int, ...]]:
    """Embeddings in serial order; ``limit`` truncates after the merge.

    Each worker also stops at ``limit`` locally (it can never contribute
    more than ``limit`` surviving embeddings), so dense graphs don't
    enumerate unboundedly just to be truncated at the end.
    """
    chunks = _chunked(graph, roots, jobs)
    payload = {"graph": graph, "plan": plan, "limit": limit}
    parts = run_shards(_list_worker, payload, chunks, jobs)
    out = [emb for part in parts for emb in part]
    if limit is not None:
        del out[limit:]
    return out
