"""Deterministic, seeded fault injection (``REPRO_FAULTS=spec``).

The recovery machinery of :mod:`repro.parallel.pool`,
:mod:`repro.cache`, and :mod:`repro.experiments.executor` exists to
absorb failures that are miserable to reproduce on demand: a worker
process dying mid-shard, a shard hanging, a cache entry torn by a
crashed writer.  This module makes every one of those failure modes a
*deterministic function of a seed*, so the chaos CI gate (and any
test) can demand "30% of shard attempts crash" and get the exact same
crashes on every run, on every machine.

Injection sites reuse the sanitizer's probe seams
(:mod:`repro.sanitize`): sites are addressed by the same labels the
sanitizer emits (``pool``, ``cache``, ``cell``), tokens are derived
with :func:`repro.sanitize.payload_digest`, and every fired fault is
counted (``fault_counters()``).

Fault-spec grammar (full reference: docs/RESILIENCE.md)::

    spec    := clause ("," clause)*
    clause  := "seed=" int
             | kind ":" site [ "[" match "]" ] "=" rate [ "@" seconds ]
    kind    := "crash" | "hang" | "transient" | "fail" | "corrupt"

e.g. ``REPRO_FAULTS="seed=7,crash:pool=0.3,transient:pool=0.2"``.

Decision function: a fault fires iff
``sha256(seed|kind|site|token|attempt) / 2**64 < rate`` — pure,
scheduling-independent, and identical in every process.  The ``fail``
kind omits ``attempt`` from the hash, so it marks a deterministic
subset of tokens as *permanently* failing; every other kind is keyed
per attempt, so retries eventually draw a clean attempt.

``crash`` and ``hang`` only fire inside pool worker processes
(:func:`mark_worker`): firing them in the driver would kill or stall
the process whose recovery is under test.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro import sanitize
from repro.errors import ConfigError, InjectedFault

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "clear",
    "corrupt_bytes",
    "current_plan",
    "fault_counters",
    "in_worker",
    "inject",
    "install",
    "mark_worker",
    "plan_active",
    "reset_fault_counters",
]

ENV_VAR = "REPRO_FAULTS"

FAULT_KINDS = ("crash", "hang", "transient", "fail", "corrupt")

#: Kinds that must only fire inside a worker process.
_WORKER_ONLY = frozenset({"crash", "hang"})

#: Exit code of an injected worker crash; distinctive in core dumps and
#: pool post-mortems.
CRASH_EXIT_CODE = 86

_DEFAULT_HANG_S = 30.0


@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault plan."""

    kind: str
    site: str
    rate: float
    match: str | None = None
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if not self.site:
            raise ConfigError("fault site must be non-empty")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(
                f"fault rate must be within [0, 1], got {self.rate!r}"
            )

    def spec(self) -> str:
        """Render this rule back into one grammar clause."""
        text = f"{self.kind}:{self.site}"
        if self.match is not None:
            text += f"[{self.match}]"
        text += f"={self.rate:g}"
        if self.duration_s is not None:
            text += f"@{self.duration_s:g}"
        return text

    def applies(self, site: str, token: str) -> bool:
        return self.site == site and (
            self.match is None or self.match in token
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered rule list plus the seed every decision derives from."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        rules: list[FaultRule] = []
        seed = 0
        for raw in spec.split(","):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise ConfigError(
                        f"invalid fault seed clause {clause!r}"
                    ) from None
                continue
            rules.append(_parse_rule(clause))
        return cls(rules=tuple(rules), seed=seed)

    def spec(self) -> str:
        """Round-trip rendering: ``FaultPlan.parse(plan.spec()) == plan``."""
        return ",".join(
            [f"seed={self.seed}"] + [rule.spec() for rule in self.rules]
        )

    def decide(
        self, site: str, token: str, attempt: int = 0
    ) -> FaultRule | None:
        """The first rule that fires at this (site, token, attempt).

        Pure: equal arguments (and seed) always produce equal
        decisions, in every process, under any scheduling.
        """
        for rule in self.rules:
            if not rule.applies(site, token):
                continue
            if rule.rate >= 1.0:
                return rule
            # `fail` is permanent per token; everything else re-draws
            # per attempt so retries can clear.
            attempt_key = "" if rule.kind == "fail" else str(attempt)
            material = "|".join(
                (str(self.seed), rule.kind, site, token, attempt_key)
            )
            digest = hashlib.sha256(material.encode("utf-8")).digest()
            draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            if draw < rule.rate:
                return rule
        return None


def _parse_rule(clause: str) -> FaultRule:
    head, sep, tail = clause.partition("=")
    if not sep:
        raise ConfigError(
            f"invalid fault clause {clause!r} (expected kind:site=rate)"
        )
    kind, sep, site_part = head.partition(":")
    if not sep:
        raise ConfigError(
            f"invalid fault clause {clause!r} (missing ':' between kind "
            "and site)"
        )
    match: str | None = None
    site = site_part.strip()
    if site.endswith("]") and "[" in site:
        site, _, match_part = site.partition("[")
        match = match_part[:-1]
    rate_text, sep, duration_text = tail.partition("@")
    duration: float | None = None
    try:
        rate = float(rate_text)
        if sep:
            duration = float(duration_text)
    except ValueError:
        raise ConfigError(
            f"invalid fault clause {clause!r} (rate/duration must be "
            "numbers)"
        ) from None
    return FaultRule(
        kind=kind.strip(), site=site, rate=rate, match=match,
        duration_s=duration,
    )


# ----------------------------------------------------------------------
# Process-wide plan state
# ----------------------------------------------------------------------
# The installed plan lives in a module global *and* in the environment:
# pool worker processes (created after installation) reconstruct it
# lazily from ``REPRO_FAULTS`` on their first probe.

_INSTALLED: FaultPlan | None = None
_ENV_CACHE: tuple[str, FaultPlan] | None = None
_IN_WORKER = False

_COUNTERS: dict[str, int] = {}


def install(plan: FaultPlan | str) -> FaultPlan:
    """Install a plan process-wide and export it to ``REPRO_FAULTS``.

    Exporting matters: pool workers are separate processes and inherit
    the environment, not this module's globals.  Returns the parsed
    plan.
    """
    global _INSTALLED
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _INSTALLED = plan
    os.environ[ENV_VAR] = plan.spec()
    return plan


def clear() -> None:
    """Remove the installed plan and its environment export."""
    global _INSTALLED, _ENV_CACHE
    _INSTALLED = None
    _ENV_CACHE = None
    os.environ.pop(ENV_VAR, None)


def current_plan() -> FaultPlan | None:
    """The active plan: installed explicitly, or parsed (and cached)
    from ``REPRO_FAULTS`` — which is how worker processes see it."""
    global _ENV_CACHE  # noqa: RACE001 - pure parse cache, per-process by design
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get(ENV_VAR, "").strip()
    if not spec:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != spec:
        _ENV_CACHE = (spec, FaultPlan.parse(spec))
    return _ENV_CACHE[1]


def plan_active() -> bool:
    """Cheap guard for instrumentation sites."""
    return _INSTALLED is not None or bool(os.environ.get(ENV_VAR, "").strip())


def mark_worker() -> None:
    """Declare this process a pool worker (enables crash/hang kinds).

    Called from the pool initializer; never from the driver.
    """
    global _IN_WORKER  # noqa: RACE001 - the flag is per-process on purpose
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


def fault_counters() -> dict[str, int]:
    """Snapshot of fired-fault counters.

    Keys: ``"<site>:<kind>"`` per fired fault.  Per-process: worker-side firings are
    visible to the parent only through their effects (crashes, retries).
    """
    return dict(_COUNTERS)


def reset_fault_counters() -> None:
    _COUNTERS.clear()


def _count(site: str, kind: str) -> None:
    # Observability only, never results: worker-side firings are counted
    # in the worker's own copy and reach the parent as crashes/retries.
    key = f"{site}:{kind}"
    _COUNTERS[key] = _COUNTERS.get(key, 0) + 1  # noqa: RACE001


# ----------------------------------------------------------------------
# Injection entry points
# ----------------------------------------------------------------------


def token_for(payload: object) -> str:
    """Stable site token for a payload — the sanitizer's content digest,
    so fault addressing and probe tracing agree on identity."""
    return sanitize.payload_digest(payload)


def inject(site: str, token: str, attempt: int = 0) -> None:
    """Fire whatever fault the plan schedules at this point, if any.

    ``crash`` hard-exits the process (workers only), ``hang`` sleeps
    for the rule's duration (workers only), ``transient`` and ``fail``
    raise :class:`repro.errors.InjectedFault`.  ``corrupt`` is a data
    fault and never fires here (see :func:`corrupt_bytes`).  No-op
    without an active plan.
    """
    plan = current_plan()
    if plan is None:
        return
    rule = plan.decide(site, token, attempt)
    if rule is None or rule.kind == "corrupt":
        return
    if rule.kind in _WORKER_ONLY and not _IN_WORKER:
        return
    _count(site, rule.kind)
    if rule.kind == "crash":
        # A real worker death: no exception, no cleanup, no goodbye —
        # exactly what BrokenProcessPool recovery must absorb.
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        time.sleep(
            rule.duration_s if rule.duration_s is not None else _DEFAULT_HANG_S
        )
        return
    raise InjectedFault(
        f"injected {rule.kind} fault at {site}[{token[:12]}] "
        f"attempt {attempt}",
        kind=rule.kind,
    )


def corrupt_bytes(
    site: str, token: str, data: bytes, attempt: int = 0
) -> bytes:
    """Return ``data``, corrupted if a ``corrupt`` rule fires here.

    Corruption truncates to half length and flips the leading bytes —
    reliably unreadable to ``pickle`` yet non-empty, modelling a torn
    write that slipped past atomic-rename protection.
    """
    plan = current_plan()
    if plan is None:
        return data
    rule = plan.decide(site, token, attempt)
    if rule is None or rule.kind != "corrupt":
        return data
    _count(site, "corrupt")
    keep = max(1, len(data) // 2)
    head = bytes(b ^ 0xFF for b in data[: min(8, keep)])
    return head + data[len(head):keep]
