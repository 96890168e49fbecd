"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The Tier-A linter (:mod:`repro.analysis`) rules out the nondeterminism
shapes it can see in one file.  The sanitizer is the dynamic
cross-check: run the same job twice in one process with lightweight
probes armed, record an event trace from each run, and require the two
traces to be **bit-identical**.  Any dependence on set/dict iteration order, RNG
state leakage, or address-dependent hashing shows up as the first
diverging event, with enough context to find the seam.

Probes live at the documented determinism seams and cost one module
attribute read when the sanitizer is off:

* set-op kernel dispatch (:func:`repro.setops.kernels._tally`) — the
  sequence of recursive-engine ops, segmented-kernel choices and
  frontier-engine events;
* result merging (:func:`repro.core.result.merge_run_results`) — the
  section/scalar key orders that feed merged stats;
* shard fan-out (:func:`repro.parallel.pool.run_shards`) — the shard
  contents handed to workers;
* RNG construction (:mod:`repro.graph.generators`) — seed and call
  order of every generator;
* host-clock reads on measurement paths — *presence only*: the event
  carries no value, so wall-time jitter never diverges a trace, but a
  run that reads the clock a different number of times does.

Two runs of the same cell also assert result equality (count, counts,
cycles) — the sanitizer subsumes a plain double-run check.  Both runs
use the same set-op kernels; that the kernel choice never moves a
modelled cycle is pinned by ``tests/hw/test_golden_cycles.py``, which
runs every case under both kernels.

This module deliberately depends on nothing inside ``repro`` (stdlib +
numpy only), so every package — including :mod:`repro.setops` at the
bottom of the import graph — can probe without cycles.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

__all__ = [
    "SanitizerError",
    "Trace",
    "TraceEvent",
    "capture",
    "compare_traces",
    "emit",
    "emit_clock",
    "env_enabled",
    "is_active",
    "payload_digest",
]

_ENV_VAR = "REPRO_SANITIZE"

#: Fast-path flag: probes check this before paying for a digest.
_ACTIVE = False
_EVENTS: list["TraceEvent"] | None = None

_NO_PAYLOAD = object()


@dataclass(frozen=True)
class TraceEvent:
    """One probe firing: a kind, a seam label, and a payload digest.

    ``digest`` is empty for presence-only events (clock reads).
    """

    kind: str
    label: str
    digest: str

    def render(self) -> str:
        suffix = f" {self.digest[:12]}" if self.digest else ""
        return f"{self.kind}:{self.label}{suffix}"


@dataclass
class Trace:
    """The ordered event stream of one sanitized execution."""

    events: list[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def digest(self) -> str:
        h = hashlib.sha256()
        for ev in self.events:
            h.update(ev.kind.encode())
            h.update(b"\x1f")
            h.update(ev.label.encode())
            h.update(b"\x1f")
            h.update(ev.digest.encode())
            h.update(b"\x1e")
        return h.hexdigest()[:16]


class SanitizerError(RuntimeError):
    """Two sanitized executions of the same job diverged."""


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitized execution."""
    return os.environ.get(_ENV_VAR, "").strip() not in ("", "0")


def is_active() -> bool:
    """Whether probes should fire: a :func:`capture` is recording."""
    return _ACTIVE


def payload_digest(payload: Any) -> str:
    """Stable content digest of a probe payload.

    NumPy arrays hash dtype, shape, and raw bytes; containers hash
    their elements **in iteration order** — on purpose: iteration-order
    nondeterminism is one of the defect classes the sanitizer exists to
    catch, so a dict probe must not sort the keys away.
    """
    h = hashlib.sha256()
    _feed(h, payload)
    return h.hexdigest()[:16]


def _feed(h: "hashlib._Hash", payload: Any) -> None:
    if isinstance(payload, np.ndarray):
        h.update(b"nd")
        h.update(str(payload.dtype).encode())
        h.update(str(payload.shape).encode())
        h.update(np.ascontiguousarray(payload).tobytes())
    elif isinstance(payload, dict):
        h.update(b"{")
        for key, value in payload.items():
            _feed(h, key)
            h.update(b":")
            _feed(h, value)
        h.update(b"}")
    elif isinstance(payload, (list, tuple)):
        h.update(b"[")
        for item in payload:
            _feed(h, item)
            h.update(b",")
        h.update(b"]")
    elif isinstance(payload, bytes):
        h.update(b"b")
        h.update(payload)
    else:
        h.update(repr(payload).encode())


def emit(kind: str, label: str, payload: Any = _NO_PAYLOAD) -> None:
    """Record one probe event into the armed :func:`capture`, if any."""
    if not _ACTIVE or _EVENTS is None:
        return
    digest = "" if payload is _NO_PAYLOAD else payload_digest(payload)
    _EVENTS.append(TraceEvent(kind=kind, label=label, digest=digest))


def emit_clock(label: str) -> None:
    """Record a host-clock read — presence only, never the value."""
    emit("clock", label)


@contextmanager
def capture() -> Iterator[Trace]:
    """Arm the probes and record every event until exit.

    Captures do not nest: the double-run comparator owns the trace, and
    a silently re-entered capture would interleave two runs' events.
    """
    global _ACTIVE, _EVENTS
    if _ACTIVE:
        raise RuntimeError("sanitizer captures do not nest")
    trace = Trace()
    _EVENTS = trace.events
    _ACTIVE = True
    try:
        yield trace
    finally:
        _ACTIVE = False
        _EVENTS = None


def compare_traces(
    first: Trace, second: Trace, *, limit: int = 5
) -> list[str]:
    """Describe the divergences between two traces (empty = identical).

    Reports the first ``limit`` event-level mismatches plus any length
    mismatch; identical traces return ``[]``.
    """
    problems: list[str] = []
    if len(first) != len(second):
        problems.append(
            f"event counts differ: {len(first)} vs {len(second)}"
        )
    for i, (a, b) in enumerate(zip(first.events, second.events)):
        if a != b:
            problems.append(
                f"event {i} diverged: {a.render()} vs {b.render()}"
            )
            if sum(p.startswith("event ") for p in problems) >= limit:
                problems.append("... further divergences elided")
                break
    return problems
