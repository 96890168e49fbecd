"""Fault-tolerant process-pool plumbing shared by every parallel path.

``run_shards`` maps a module-level worker function over a list of root
chunks on a :class:`concurrent.futures.ProcessPoolExecutor`.  Chunks
are handed out one at a time, so the pool schedules them dynamically:
a worker that drew a cheap chunk immediately picks up the next one,
absorbing power-law skew that degree-aware chunking alone cannot fully
predict.

Pool lifetime and payload route
-------------------------------

Every pooled call runs inside a :func:`pool_scope`, which owns one
worker pool and a temporary directory.  :func:`repro.experiments.
executor.run_sweep` holds a scope open for the whole sweep, so all its
sharded cells run on the same workers; a call made outside any scope
opens one for itself alone.  Forking and reaping a pool costs about
10 ms per call on a 2-core host (8 calls: 0.11 s with a pool each,
0.035 s on one pool).  A call needing another worker count replaces
the pool; the scope shuts it down without waiting when it closes, on
every exit path, so no worker outlives the scope.

The large read-only payload (graph, plans, configuration) is pickled
once per call into a file in the scope's directory, and each task
carries only that file's path as the call's token.  A worker unpickles
a token's payload at most once and keeps the latest one, so pickling
stays proportional to the worker count rather than the chunk count
(sending the 0.53 MB Lj analog with each of 16 tasks cost 8-15 ms per
call, against 3.5 ms this way).  The file goes when the call returns.

Results are returned **in submission (chunk) order** regardless of
completion order — a requirement of the determinism contract
(``docs/PARALLELISM.md``).

Shard-level recovery (docs/RESILIENCE.md)
-----------------------------------------

A dead worker, a hung shard, or a transient exception no longer kills
the whole run.  Under a :class:`~repro.resilience.retry.RetryPolicy`
(default: :meth:`RetryPolicy.current`, overridable per call or via
``REPRO_RETRY``), the driver

* retries shards that raise :class:`repro.errors.RetryableError`, with
  capped exponential backoff and seeded jitter between rounds;
* applies a per-shard collection timeout (``policy.timeout_s``) and
  treats an overrun as a :class:`~repro.errors.ShardTimeout`;
* rebuilds the pool when it breaks (``BrokenProcessPool`` after a
  worker crash) or when a hung worker is abandoned, salvaging every
  already-completed shard result; the rebuilt pool becomes the scope's
  pool, so the next call of a sweep runs on it;
* degrades gracefully to in-process serial execution once the pool has
  died ``policy.max_pool_rebuilds`` times (or cannot be created at
  all), with a one-time structured
  :class:`~repro.errors.PoolDegradedWarning`.

Because every worker is a deterministic function of ``(payload,
shard)``, retries are **invisible in results**: a run that absorbed
crashes is bit-identical to a fault-free run.  All recovery events are
accounted in a structured :class:`~repro.resilience.retry.RetryStats`
(per call via ``stats=``, cumulatively via :func:`retry_stats`, whose
per-cell deltas the experiment store keeps).  A shard that keeps failing retryably past ``max_attempts``
raises :class:`~repro.errors.RetryExhausted`; non-retryable worker
exceptions propagate unchanged — they are defect reports, not noise.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import tempfile
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Sequence

from repro import sanitize
from repro.errors import (
    ConfigError,
    PoolDegradedWarning,
    RetryExhausted,
    RetryableError,
    ShardTimeout,
    WorkerCrash,
)
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, RetryStats

__all__ = [
    "pool_scope",
    "pool_unavailable_reason",
    "retry_stats",
    "run_shards",
]

_Worker = Callable[[Any, Any], Any]

# Worker-process global: the payload file of the call this worker last
# served, with the worker function and payload unpickled from it.
_LOADED: tuple[str, _Worker, Any] | None = None

_POOL_FAILURE: str | None = None
_WARNED = False
_WARNED_DEGRADED = False

#: Process-cumulative recovery accounting (parent side only); snapshot
#: via :func:`retry_stats`, e.g. for per-cell deltas in the executor.
_TOTALS = RetryStats()


def retry_stats() -> RetryStats:
    """Immutable snapshot of the cumulative recovery counters."""
    return _TOTALS.snapshot()


def _initializer() -> None:
    # Arm worker-only fault kinds (crash/hang) in this process.
    faults.mark_worker()


def _load(path: str) -> tuple[_Worker, Any]:
    """The ``(worker, payload)`` a call staged in ``path``."""
    with open(path, "rb") as fh:
        worker, payload = pickle.load(fh)
    return worker, payload


def _invoke(task: "tuple[str, int, Any]") -> Any:
    global _LOADED  # intentional per-process state, never read back
    path, attempt, shard = task
    if _LOADED is None or _LOADED[0] != path:
        _LOADED = (path, *_load(path))
    _, worker, payload = _LOADED
    if faults.plan_active():
        faults.inject("pool", faults.token_for(shard), attempt)
    return worker(payload, shard)


class _PoolScope:
    """One worker pool shared by the pooled calls of a :func:`pool_scope`
    block, and the directory their payload files go to."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.executor: ProcessPoolExecutor | None = None
        self.workers = 0
        self.directory: str | None = None
        self.calls = 0

    def stage(self, worker: _Worker, payload: Any) -> str:
        """Pickle ``(worker, payload)`` once into a new file; its path is
        the call's token.  Paths are never reused within a scope (a
        counter, not a random name), so a worker's cached payload can
        never be taken for a later call's."""
        if self.directory is None:
            self.directory = tempfile.mkdtemp(prefix="repro-pool-")
        self.calls += 1
        path = os.path.join(self.directory, f"call-{self.calls}.pkl")
        with open(path, "wb") as fh:
            pickle.dump((worker, payload), fh, pickle.HIGHEST_PROTOCOL)
        return path

    def unstage(self, path: str) -> None:
        """Remove a finished call's payload file."""
        with contextlib.suppress(OSError):
            os.remove(path)

    def executor_for(self, workers: int) -> ProcessPoolExecutor:
        """The scope's pool, (re)built with ``workers`` processes."""
        if self.executor is not None and self.workers != workers:
            # Between calls the pool is idle, so waiting for its workers
            # to exit is quick, and two pools never run at once.
            self.executor.shutdown(wait=True)
            self.executor = None
        if self.executor is None:
            self.executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_initializer
            )
            self.workers = workers
        return self.executor

    def discard(self, *, kill: bool) -> None:
        """Reap the pool; the next call builds a fresh one."""
        if self.executor is not None:
            _reap(self.executor, kill=kill)
            self.executor = None

    def close(self) -> None:
        self.discard(kill=False)
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


# Parent-side: the scope each thread has open, if any.
_OPEN = threading.local()


@contextlib.contextmanager
def pool_scope() -> Iterator[_PoolScope]:
    """Run every pooled :func:`run_shards` call inside the block on one
    worker pool, shut down (without waiting) when the block exits.

    Nested scopes share the outermost one of their thread (a forked
    child does not inherit it).  A pool is built only when a call needs
    one, so a block of serial calls forks nothing.
    """
    scope = getattr(_OPEN, "scope", None)
    if scope is not None and scope.owner == os.getpid():
        yield scope
        return
    scope = _OPEN.scope = _PoolScope()
    try:
        yield scope
    finally:
        _OPEN.scope = None
        scope.close()


def pool_unavailable_reason() -> str | None:
    """Why the last pool attempt fell back to serial (None = no failure)."""
    return _POOL_FAILURE


def _warn_unavailable(reason: str) -> None:
    global _WARNED  # advisory warn-once latch
    if _WARNED:
        return
    _WARNED = True
    warnings.warn(
        PoolDegradedWarning(
            f"process pool unavailable ({reason}); running shards serially",
            reason=reason,
        ),
        stacklevel=5,
    )


def _warn_degraded(reason: str) -> None:
    global _WARNED_DEGRADED  # advisory warn-once latch
    if _WARNED_DEGRADED:
        return
    _WARNED_DEGRADED = True
    warnings.warn(
        PoolDegradedWarning(
            f"process pool degraded to serial execution ({reason}); "
            "results are unaffected, only the wall clock",
            reason=reason,
        ),
        stacklevel=4,
    )


def _serial_one(
    worker: Callable[[Any, Any], Any],
    payload: Any,
    shard: Any,
    index: int,
    policy: RetryPolicy,
    stats: RetryStats,
) -> Any:
    """One shard, in-process, with the same retry semantics as the pool.

    Worker-only fault kinds (crash/hang) never fire here, so serial
    degradation always makes progress.
    """
    attempt = 0
    while True:
        stats.attempts += 1
        try:
            if faults.plan_active():
                faults.inject("pool", faults.token_for(shard), attempt)
            return worker(payload, shard)
        except RetryableError as exc:
            stats.transient_errors += 1
            attempt += 1
            if attempt >= policy.max_attempts:
                stats.exhausted += 1
                raise RetryExhausted(
                    f"shard {index} still failing after {attempt} "
                    f"attempt(s): {exc}",
                    attempts=attempt,
                ) from exc
            stats.retries += 1
            delay = policy.backoff_s(attempt - 1, token=str(index))
            if delay > 0:
                stats.backoff_s += delay
                time.sleep(delay)


def _serial_remaining(
    worker: Callable[[Any, Any], Any],
    payload: Any,
    shards: Sequence[Any],
    pending: Sequence[int],
    results: list,
    policy: RetryPolicy,
    stats: RetryStats,
) -> list:
    for i in pending:
        results[i] = _serial_one(worker, payload, shards[i], i, policy, stats)
    return results


def _reap(executor: ProcessPoolExecutor, *, kill: bool) -> None:
    """Shut an executor down without waiting on hung or dead workers."""
    executor.shutdown(wait=False, cancel_futures=True)
    if not kill:
        return
    # Abandoned (possibly hung) workers would otherwise linger; the
    # process handles are an implementation detail, so reap defensively.
    procs = getattr(executor, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except (OSError, ValueError, AttributeError):
            pass


def _submit(executor: ProcessPoolExecutor, task: Any) -> Future:
    """Queue one shard; a pool that a worker death already broke refuses
    the submission, which then fails like a shard that ran on it."""
    try:
        return executor.submit(_invoke, task)
    except BrokenProcessPool as exc:
        refused: Future = Future()
        refused.set_exception(exc)
        return refused


def _bump_attempt(
    index: int,
    attempts: list[int],
    policy: RetryPolicy,
    stats: RetryStats,
    cause: BaseException,
) -> None:
    """Account one failed attempt; raise once the budget is spent."""
    attempts[index] += 1
    if attempts[index] >= policy.max_attempts:
        stats.exhausted += 1
        raise RetryExhausted(
            f"shard {index} still failing after {attempts[index]} "
            f"attempt(s): {cause}",
            attempts=attempts[index],
        ) from cause


def _own_fault(shard: Any, draw: int) -> bool:
    """Whether the fault plan fires for ``shard`` at fault draw ``draw``.

    A pool failure under a shard whose draw is clean is collateral:
    another shard broke the pool.
    """
    plan = faults.current_plan()
    return (
        plan is not None
        and plan.decide("pool", faults.token_for(shard), draw) is not None
    )


def _unavailable(exc: BaseException) -> None:
    """Latch and report a pool that cannot be created at all."""
    global _POOL_FAILURE  # advisory latch only
    _POOL_FAILURE = f"{type(exc).__name__}: {exc}"
    _warn_unavailable(_POOL_FAILURE)


def _run_pool(
    worker: Callable[[Any, Any], Any],
    payload: Any,
    shards: Sequence[Any],
    path: str,
    jobs: int,
    policy: RetryPolicy,
    stats: RetryStats,
    scope: _PoolScope,
) -> list:
    n = len(shards)
    results: list[Any] = [None] * n
    # attempts[i] charges shard i's retry budget for every requeue.
    # draws[i] is the attempt its faults are drawn at; it moves past a
    # draw only when the plan fires a fault there, never on a collateral
    # requeue, so the faults a shard meets do not depend on which other
    # shards happened to be running when a pool broke.
    attempts = [0] * n
    draws = [0] * n

    def charge(i: int, cause: BaseException) -> None:
        if _own_fault(shards[i], draws[i]):
            draws[i] += 1
        _bump_attempt(i, attempts, policy, stats, cause)

    pending = list(range(n))
    rebuilds = 0
    round_no = 0
    while pending:
        if rebuilds > policy.max_pool_rebuilds:
            # Graceful degradation: the pool keeps dying, so finish the
            # remaining shards in-process.  Identical results by
            # construction; crash/hang faults are worker-only.
            stats.serial_fallbacks += 1
            _warn_degraded(
                f"pool died {rebuilds} time(s), past the rebuild budget "
                f"of {policy.max_pool_rebuilds}"
            )
            return _serial_remaining(
                worker, payload, shards, pending, results, policy, stats
            )
        try:
            executor = scope.executor_for(min(jobs, n))
        except (OSError, PermissionError, RuntimeError) as exc:
            _unavailable(exc)
            return _serial_remaining(
                worker, payload, shards, pending, results, policy, stats
            )
        retry_next: list[int] = []
        broken = False
        try:
            stats.attempts += len(pending)
            futures = [
                (i, _submit(executor, (path, draws[i], shards[i])))
                for i in pending
            ]
            for i, fut in futures:
                if broken:
                    # The pool is already condemned; salvage whatever
                    # finished cleanly and requeue the rest.
                    if (
                        fut.done()
                        and not fut.cancelled()
                        and fut.exception() is None
                    ):
                        results[i] = fut.result()
                    else:
                        charge(i, WorkerCrash(f"pool broke under shard {i}"))
                        retry_next.append(i)
                    continue
                try:
                    results[i] = fut.result(timeout=policy.timeout_s)
                except (_FutureTimeout, TimeoutError):
                    stats.timeouts += 1
                    broken = True
                    charge(i, ShardTimeout(
                        f"shard {i} exceeded the {policy.timeout_s}s "
                        "collection timeout",
                        timeout_s=policy.timeout_s,
                    ))
                    retry_next.append(i)
                except BrokenProcessPool as exc:
                    stats.crashes += 1
                    broken = True
                    charge(i, WorkerCrash(f"worker died mid-shard: {exc}"))
                    retry_next.append(i)
                except RetryableError as exc:
                    stats.transient_errors += 1
                    charge(i, exc)
                    retry_next.append(i)
                # Any other exception is a worker defect: propagate
                # unchanged (the handler below reaps the pool).
        except BaseException:
            # Shards may still be queued or running: never hand a busy
            # pool on to the next call.
            scope.discard(kill=broken)
            raise
        if broken:
            scope.discard(kill=True)
            rebuilds += 1
            stats.pool_rebuilds += 1
        pending = retry_next
        if pending:
            stats.retries += len(pending)
            delay = policy.backoff_s(round_no)
            if delay > 0:
                stats.backoff_s += delay
                time.sleep(delay)
            round_no += 1
    return results


def run_shards(
    worker: Callable[[Any, Any], Any],
    payload: Any,
    shards: Sequence[Any],
    jobs: int,
    *,
    policy: RetryPolicy | None = None,
    stats: RetryStats | None = None,
) -> list:
    """Evaluate ``worker(payload, shard)`` for every shard, in order.

    ``jobs`` is the maximum number of worker processes; ``jobs <= 1``
    (or a single shard) runs serially in-process.  ``worker`` must be a
    module-level function and ``payload``/shards/results picklable.

    ``policy`` selects the recovery behaviour (default:
    :meth:`RetryPolicy.current`, i.e. ``REPRO_RETRY`` or the
    documented defaults); ``stats`` — when given — accumulates this
    call's :class:`RetryStats` in place.  Recovery never changes
    results (see the module docstring); it only changes whether a
    result arrives at all.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    shards = list(shards)
    if sanitize.is_active():
        # Sanitizer probe: shard *contents and order* are part of the
        # determinism contract (results return in submission order).
        # The pool/serial mode and any retries are deliberately not
        # recorded — all modes produce identical results by
        # construction, so recovery must not diverge a trace.
        sanitize.emit("pool", f"run_shards[{len(shards)}]", shards)
    eff_policy = policy if policy is not None else RetryPolicy.current()
    local = RetryStats()
    try:
        if jobs <= 1 or len(shards) <= 1:
            return [
                _serial_one(worker, payload, shard, i, eff_policy, local)
                for i, shard in enumerate(shards)
            ]
        if _POOL_FAILURE is None:
            with pool_scope() as scope:
                try:
                    path = scope.stage(worker, payload)
                except OSError as exc:
                    _unavailable(exc)
                else:
                    try:
                        return _run_pool(
                            worker, payload, shards, path, jobs,
                            eff_policy, local, scope,
                        )
                    finally:
                        scope.unstage(path)
        # No pool here (e.g. no process support): after the first
        # failure, don't retry every call.
        return _serial_remaining(
            worker, payload, shards, range(len(shards)),
            [None] * len(shards), eff_policy, local,
        )
    finally:
        _TOTALS.add(local)
        if stats is not None:
            stats.add(local)
