"""Fault-tolerant process-pool plumbing shared by every parallel path.

``run_shards`` maps a module-level worker function over a list of root
chunks on a :class:`concurrent.futures.ProcessPoolExecutor`.  The large
read-only payload (graph, plans, configuration) is shipped to each
worker exactly once via the pool initializer instead of once per chunk,
which keeps pickling overhead proportional to the worker count rather
than the chunk count.  Chunks are handed out one at a time
(``chunksize=1``), so the pool schedules them dynamically: a worker that
drew a cheap chunk immediately picks up the next one, absorbing
power-law skew that degree-aware chunking alone cannot fully predict.

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
  already-completed shard result;
* degrades gracefully to in-process serial execution once the pool has
  died ``policy.max_pool_rebuilds`` times (or cannot be created at
  all), with a one-time structured
  :class:`~repro.errors.PoolDegradedWarning`.

Because every worker is a deterministic function of ``(payload,
shard)``, retries are **invisible in results**: a run that absorbed
crashes is bit-identical to a fault-free run.  All recovery events are
accounted in a structured :class:`~repro.resilience.retry.RetryStats`
(per call via ``stats=``, cumulatively via :func:`retry_stats`) that
flows into :class:`repro.core.result.RunResult` and the experiment
store.  A shard that keeps failing retryably past ``max_attempts``
raises :class:`~repro.errors.RetryExhausted`; non-retryable worker
exceptions propagate unchanged — they are defect reports, not noise.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

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
    "pool_unavailable_reason",
    "retry_stats",
    "run_shards",
]

# Worker-process globals installed by the pool initializer.
_WORKER: Callable[[Any, Any], Any] | None = None
_PAYLOAD: Any = None

_POOL_FAILURE: str | None = None
_WARNED = False
_WARNED_DEGRADED = False

#: Process-cumulative recovery accounting (parent side only); snapshot
#: via :func:`retry_stats`, e.g. for per-cell deltas in the executor.
_TOTALS = RetryStats()


def retry_stats() -> RetryStats:
    """Immutable snapshot of the cumulative recovery counters."""
    return _TOTALS.snapshot()


def _initializer(worker: Callable[[Any, Any], Any], payload: Any) -> None:
    # Installing per-process state is this function's entire job: each
    # worker gets its own copy on purpose, and the parent never reads
    # these names back.
    global _WORKER, _PAYLOAD  # noqa: RACE001 - intentional per-process state
    _WORKER = worker
    _PAYLOAD = payload
    # Arm worker-only fault kinds (crash/hang) in this process.
    faults.mark_worker()


def _invoke(task: "tuple[int, Any]") -> Any:
    attempt, shard = task
    assert _WORKER is not None, "pool worker used before initialization"
    if faults.plan_active():
        faults.inject("pool", faults.token_for(shard), attempt)
    return _WORKER(_PAYLOAD, shard)


def pool_unavailable_reason() -> str | None:
    """Why the last pool attempt fell back to serial (None = no failure)."""
    return _POOL_FAILURE


def _warn_unavailable(reason: str) -> None:
    global _WARNED  # noqa: RACE001 - advisory warn-once latch
    if _WARNED:
        return
    _WARNED = True
    warnings.warn(
        PoolDegradedWarning(
            f"process pool unavailable ({reason}); running shards serially",
            reason=reason,
        ),
        stacklevel=4,
    )


def _warn_degraded(reason: str) -> None:
    global _WARNED_DEGRADED  # noqa: RACE001 - advisory warn-once latch
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


def _run_pool(
    worker: Callable[[Any, Any], Any],
    payload: Any,
    shards: Sequence[Any],
    jobs: int,
    policy: RetryPolicy,
    stats: RetryStats,
) -> list:
    global _POOL_FAILURE  # noqa: RACE001 - advisory latch only
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
            executor = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)),
                initializer=_initializer,
                initargs=(worker, payload),
            )
        except (OSError, PermissionError, RuntimeError) as exc:
            _POOL_FAILURE = f"{type(exc).__name__}: {exc}"
            _warn_unavailable(_POOL_FAILURE)
            return _serial_remaining(
                worker, payload, shards, pending, results, policy, stats
            )
        retry_next: list[int] = []
        broken = False
        try:
            stats.attempts += len(pending)
            futures = [
                (i, _submit(executor, (draws[i], shards[i])))
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
                # unchanged (the finally below reaps the pool).
        finally:
            _reap(executor, kill=broken)
        if broken:
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
        if _POOL_FAILURE is not None:
            # A previous attempt failed (e.g. no process support);
            # don't retry every call.
            return _serial_remaining(
                worker, payload, shards, range(len(shards)),
                [None] * len(shards), eff_policy, local,
            )
        return _run_pool(worker, payload, shards, jobs, eff_policy, local)
    finally:
        _TOTALS.add(local)
        if stats is not None:
            stats.add(local)
