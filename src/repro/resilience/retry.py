"""Retry policy and accounting shared by the execution layers.

:class:`RetryPolicy` is the knob set the pool's recovery loop runs
under (docs/RESILIENCE.md): attempt budget, per-shard collection
timeout, capped exponential backoff with *seeded* jitter, and the
pool-rebuild budget after which execution degrades to serial.  The
jitter is deterministic — a hash of ``(seed, round, token)`` — so two
identical runs back off identically; there is no process-global RNG
anywhere on this path.

:class:`RetryStats` is the structured counter record every recovery
event lands in.  :func:`repro.parallel.pool.run_shards` adds each
call's record to the pool's process-wide totals
(:func:`repro.parallel.pool.retry_stats`), and the sweep executor
writes each cell's delta of those totals into the experiment store's
per-row ``retry`` column, so a sweep report can say exactly how much
absorbing the run did.  Counters are
observability only: they never feed results, cache keys, or the
sanitizer trace.

``REPRO_RETRY`` overrides the default policy process-wide, e.g.
``REPRO_RETRY="attempts=6,timeout=30,base=0.1,cap=2,rebuilds=3"``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, fields, replace

from repro.errors import ConfigError

__all__ = ["ENV_VAR", "RetryPolicy", "RetryStats"]

ENV_VAR = "REPRO_RETRY"

_POLICY_KEYS = {
    "attempts": "max_attempts",
    "timeout": "timeout_s",
    "base": "backoff_base_s",
    "cap": "backoff_cap_s",
    "rebuilds": "max_pool_rebuilds",
    "seed": "jitter_seed",
}


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the pool fights before giving up.

    ``timeout_s`` is the per-shard *collection* timeout: the longest
    the driver waits on one shard's future once it starts collecting
    it.  ``None`` disables timeouts (the default — an honest long shard
    must not be mistaken for a hang unless the caller opts in).
    """

    max_attempts: int = 5
    timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    jitter_seed: int = 0
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ConfigError("max_pool_rebuilds must be >= 0")

    @classmethod
    def current(cls) -> "RetryPolicy":
        """The process default: ``REPRO_RETRY`` if set, else defaults."""
        spec = os.environ.get(ENV_VAR, "").strip()
        return cls.from_spec(spec) if spec else cls()

    @classmethod
    def from_spec(cls, spec: str) -> "RetryPolicy":
        """Parse ``key=value`` clauses (keys: attempts, timeout, base,
        cap, rebuilds, seed; ``timeout=none`` disables timeouts)."""
        policy = cls()
        for raw in spec.split(","):
            clause = raw.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            field_name = _POLICY_KEYS.get(key.strip())
            if not sep or field_name is None:
                raise ConfigError(
                    f"invalid retry clause {clause!r} (keys: "
                    f"{', '.join(sorted(_POLICY_KEYS))})"
                )
            value = value.strip()
            try:
                if field_name == "timeout_s":
                    parsed = None if value.lower() == "none" else float(value)
                elif field_name in ("backoff_base_s", "backoff_cap_s"):
                    parsed = float(value)
                else:
                    parsed = int(value)
            except ValueError:
                raise ConfigError(
                    f"invalid retry value in clause {clause!r}"
                ) from None
            policy = replace(policy, **{field_name: parsed})
        return policy

    def backoff_s(self, round_no: int, token: str = "") -> float:
        """Deterministic capped-exponential backoff for one retry round.

        ``base * 2**round`` capped at ``cap``, scaled into
        ``[0.5, 1.0]`` by seeded jitter so identical runs sleep
        identically while distinct rounds/tokens decorrelate.
        """
        if self.backoff_base_s <= 0:
            return 0.0
        raw = min(
            self.backoff_cap_s, self.backoff_base_s * (2.0 ** round_no)
        )
        material = f"{self.jitter_seed}|{round_no}|{token}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        jitter = 0.5 + (int.from_bytes(digest[:8], "big") / 2.0 ** 64) / 2.0
        return raw * jitter


@dataclass
class RetryStats:
    """Structured counters for one (or an accumulation of) recovery runs.

    ``attempts`` counts every shard execution attempt, including the
    first; ``retries`` counts only re-executions.  ``crashes`` counts
    pool-breakage events (worker death), ``timeouts`` per-shard
    collection timeouts, ``transient_errors`` retryable exceptions
    surfaced by workers, ``pool_rebuilds`` executor rebuilds,
    ``serial_fallbacks`` degradations to in-process execution, and
    ``exhausted`` shards that ran out of attempt budget.
    ``backoff_s`` totals the time slept between retry rounds.
    """

    attempts: int = 0
    retries: int = 0
    transient_errors: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    exhausted: int = 0
    backoff_s: float = 0.0

    def add(self, other: "RetryStats") -> None:
        """Accumulate ``other`` into this record in place."""
        for f in fields(self):
            setattr(
                self, f.name, getattr(self, f.name) + getattr(other, f.name)
            )

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def recovered(self) -> bool:
        """Whether any recovery machinery actually engaged."""
        return (
            self.retries > 0
            or self.crashes > 0
            or self.timeouts > 0
            or self.pool_rebuilds > 0
            or self.serial_fallbacks > 0
        )

    def delta(self, earlier: "RetryStats") -> "RetryStats":
        """The counter movement since ``earlier`` (a snapshot)."""
        out = RetryStats()
        for f in fields(out):
            setattr(
                out, f.name, getattr(self, f.name) - getattr(earlier, f.name)
            )
        return out

    def snapshot(self) -> "RetryStats":
        return replace(self)
