"""Fault-tolerant execution substrate (docs/RESILIENCE.md).

Two halves, one contract:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  fault-injection framework.  A :class:`FaultPlan` (or the
  ``REPRO_FAULTS`` environment spec) plants worker crashes, shard
  hangs, transient exceptions, permanent cell failures, and corrupted
  cache entries at the sanitizer's probe seams, so every failure mode
  the recovery machinery claims to absorb is testable on demand.
* :mod:`repro.resilience.retry` — the recovery policy the execution
  layers share: per-shard timeouts, capped exponential backoff with
  seeded jitter, pool-rebuild and serial-degradation budgets
  (:class:`RetryPolicy`), and the structured :class:`RetryStats`
  accounting that flows into :class:`repro.core.result.RunResult` and
  the experiment store.

The determinism contract survives both halves: fault decisions are a
pure function of ``(seed, kind, site, token, attempt)``, and retried
work re-executes a deterministic function of its inputs, so a run with
faults injected and absorbed produces **bit-identical** results to a
fault-free run (the chaos CI gate asserts exactly this).
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    clear,
    corrupt_bytes,
    current_plan,
    in_worker,
    inject,
    install,
    mark_worker,
    plan_active,
)
from repro.resilience.retry import RetryPolicy, RetryStats

__all__ = [
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "RetryStats",
    "clear",
    "corrupt_bytes",
    "current_plan",
    "in_worker",
    "inject",
    "install",
    "mark_worker",
    "plan_active",
]
