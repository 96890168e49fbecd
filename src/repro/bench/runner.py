"""Backend-generic experiment runner with layered result caching.

Several figures share cells (e.g. Figure 9's single-PE baseline also
anchors Figure 11's ablation), and whole sweeps are re-run across
processes, so simulation results are memoized twice:

1. an **in-process memo** (same object returned for repeated requests
   within one run), and
2. the **persistent disk cache** (:mod:`repro.cache`): keyed by
   :meth:`repro.core.backend.Backend.cache_key` — backend name and
   model code, full graph contents, workload, explicit configuration
   signature, schedule, root-array hash, and execution model — so a
   warm ``repro bench`` sweep performs zero simulator calls.

Every backend runs through this one :func:`run_backend_cached` path:
the sweep executor (and through it every ``repro bench`` figure), the
single-run CLI commands and the tests.  ``configure(jobs=...,
disk_cache=...)`` sets process-wide defaults (the CLI's ``--jobs`` /
``--no-cache`` flags land here); ``runner_stats()`` reports
hit/miss/simulate counters for the run report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.cache import default_cache
from repro.core.backend import Backend, get_backend
from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.api import MemoryConfig

__all__ = [
    "RunnerStats",
    "run_backend_cached",
    "clear_cache",
    "configure",
    "default_jobs",
    "disk_cache_enabled",
    "reset_stats",
    "runner_stats",
]

_MEMO: dict[str, object] = {}

_UNSET = object()
_DEFAULT_JOBS: int | None = None
_DISK_ENABLED: bool = True


@dataclass(frozen=True)
class RunnerStats:
    """Cache accounting for one process (see ``repro bench``)."""

    memo_hits: int = 0
    disk_hits: int = 0
    simulate_calls: int = 0

    @property
    def requests(self) -> int:
        return self.memo_hits + self.disk_hits + self.simulate_calls


_STATS = RunnerStats()


def runner_stats() -> RunnerStats:
    """Current counters (immutable snapshot)."""
    return _STATS


def reset_stats() -> None:
    global _STATS
    _STATS = RunnerStats()


def configure(*, jobs=_UNSET, disk_cache=_UNSET) -> None:
    """Set process-wide defaults for every subsequent cached run.

    ``jobs=None`` restores the single-chip model; an integer selects the
    sharded model on that many worker processes.  ``disk_cache=False``
    keeps the in-process memo but stops touching the on-disk cache.
    """
    global _DEFAULT_JOBS, _DISK_ENABLED
    if jobs is not _UNSET:
        _DEFAULT_JOBS = jobs
    if disk_cache is not _UNSET:
        _DISK_ENABLED = bool(disk_cache)


def default_jobs() -> int | None:
    """The worker count :func:`configure` installed; ``None`` is the
    single-chip model."""
    return _DEFAULT_JOBS


def disk_cache_enabled() -> bool:
    """Whether :func:`configure` left the on-disk cache on."""
    return _DISK_ENABLED


def _cached(key: str, compute, use_disk: bool) -> RunResult:
    """Shared memo + disk lookup with stats accounting."""
    global _STATS
    if key in _MEMO:
        _STATS = replace(_STATS, memo_hits=_STATS.memo_hits + 1)
        return _MEMO[key]
    if use_disk:
        hit, value = default_cache().get(key)
        if hit and isinstance(value, RunResult):
            _STATS = replace(_STATS, disk_hits=_STATS.disk_hits + 1)
            _MEMO[key] = value
            return value
    _STATS = replace(_STATS, simulate_calls=_STATS.simulate_calls + 1)
    result = compute()
    _MEMO[key] = result
    if use_disk:
        default_cache().put(key, result)
    return result


def run_backend_cached(
    backend: Backend | str,
    graph: CSRGraph,
    graph_name: str,
    workload,
    config=None,
    *,
    memory: MemoryConfig | None = None,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
    jobs: int | None = None,
    disk: bool | None = None,
) -> RunResult:
    """Memoized ``backend.run(...)`` (memo + disk layers) for any backend.

    ``graph_name`` is only a label; the cache key uses the graph's full
    content fingerprint (via :meth:`Backend.cache_key`), so renamed or
    regenerated-but-identical graphs behave correctly.  ``jobs``/``disk``
    default to the process-wide settings installed by :func:`configure`.
    The execution model is part of the result's identity: the sharded
    model's cycle count differs from the single-chip model's, but does
    NOT depend on the worker count (docs/PARALLELISM.md), so the key
    only distinguishes sharded vs. unsharded.
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    if config is None:
        config = backend.default_config()
    roots_list = list(roots) if roots is not None else None
    eff_jobs = jobs if jobs is not None else _DEFAULT_JOBS
    use_disk = _DISK_ENABLED if disk is None else disk
    key = backend.cache_key(
        graph, workload, config,
        memory=memory, roots=roots_list, schedule=schedule, jobs=eff_jobs,
    )
    return _cached(
        key,
        lambda: backend.run(
            graph, workload, config,
            memory=memory, roots=roots_list, schedule=schedule, jobs=eff_jobs,
        ),
        use_disk,
    )


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is managed separately via
    :mod:`repro.cache` / ``python -m repro cache clear``)."""
    _MEMO.clear()
