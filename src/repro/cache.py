"""Persistent, versioned result cache.

Simulation results are deterministic functions of (graph contents,
workload, design configuration, root set, execution model), so they can
be memoized on disk across processes: a repeated figure sweep then costs
file reads instead of hours of event-loop simulation.

Layout and guarantees
---------------------

* **Location**: ``$REPRO_CACHE_DIR`` if set, else
  ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.  Created lazily.
* **Keys**: :meth:`repro.core.backend.Backend.cache_key`, by the
  recipe of :mod:`repro.keys` (see docs/PARALLELISM.md for the exact
  key schema).  This module only stores and loads values under them.
* **Entries**: one file per key: the SHA-256 of a pickle of
  ``{"key": ..., "value": ...}``, then that pickle.  Written atomically
  (temp file + ``os.replace``) so concurrent writers and crashes never
  publish a torn entry; the checksum catches the damage that gets past
  that before anything is unpickled.
* **Invalidation**: every key mixes in
  :func:`repro.keys.model_digest`, a hash of the source of every
  ``repro`` module the backends import (``repro.core.result`` among
  them, so the pickled value's type is covered).  This module is not
  among them: the entry frame checks itself, so an edit here re-keys
  nothing, and an entry it can no longer read is a miss.  Corrupted,
  truncated, unreadable, or mismatched entries are treated as misses
  and recomputed — never raised.
* **Failure accounting** (docs/RESILIENCE.md): the cache is an
  accelerator, never a correctness dependency, so I/O failures stay
  silent at the call site — but they are *counted*
  (:class:`CacheCounters`: ``write_failures``, ``quarantined``) and
  surfaced by ``python -m repro cache info``.  Unreadable entries are
  moved into ``<cache>/quarantine/`` for forensics instead of being
  destroyed; ``python -m repro cache doctor`` scans the whole cache,
  quarantines what cannot be loaded, and reports.

``python -m repro cache {info,clear,path,doctor}`` inspects and
maintains the cache from the shell.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.graph.csr import CSRGraph
from repro.keys import atomic_write, cache_dir
from repro.resilience import faults

__all__ = [
    "CacheCounters",
    "DiskCache",
    "cache_dir",
    "default_cache",
    "graph_fingerprint",
]

_ENTRY_SUFFIX = ".pkl"

#: Subdirectory (inside the cache) holding unreadable entries moved
#: aside for forensics; excluded from ``entries()`` by construction
#: (the glob is non-recursive).
_QUARANTINE_DIR = "quarantine"


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a graph's full CSR arrays (memoized per instance,
    :meth:`~repro.graph.csr.CSRGraph.fingerprint`)."""
    return graph.fingerprint()


_CHECKSUM_BYTES = hashlib.sha256().digest_size


def _frame(entry: dict) -> bytes:
    """On-disk bytes of an entry: the SHA-256 of its pickle, then the
    pickle, so a flipped or truncated byte is caught before unpickling."""
    payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).digest() + payload


def _unframe(data: bytes) -> Any:
    """The entry inside :func:`_frame` bytes; :class:`ValueError` when
    the checksum does not match."""
    checksum, payload = data[:_CHECKSUM_BYTES], data[_CHECKSUM_BYTES:]
    if hashlib.sha256(payload).digest() != checksum:
        raise ValueError("cache entry checksum mismatch")
    return pickle.loads(payload)


def _current(entry: Any, key: str) -> bool:
    return isinstance(entry, dict) and entry.get("key") == key


@dataclass
class CacheCounters:
    """Hit/miss and failure accounting for one :class:`DiskCache`.

    ``errors`` counts every anomaly (read and write); the finer-grained
    ``write_failures`` (swallowed ``put`` I/O errors) and
    ``quarantined`` (unreadable entries moved aside) exist so a run
    whose cache silently stopped persisting is visible in
    ``repro cache info`` instead of just mysteriously slow.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    write_failures: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "write_failures": self.write_failures,
            "quarantined": self.quarantined,
        }


class DiskCache:
    """A directory of atomically-written pickle entries."""

    def __init__(self, directory: Path | str | None = None) -> None:
        self.directory = Path(directory) if directory else cache_dir()
        self.counters = CacheCounters()

    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_ENTRY_SUFFIX}"

    def quarantine_dir(self) -> Path:
        """Where unreadable entries are moved for post-mortem."""
        return self.directory / _QUARANTINE_DIR

    def _quarantine(self, path: Path) -> bool:
        """Move an unreadable entry aside; fall back to deletion.

        Returns whether the bytes were preserved.  Either way the entry
        stops shadowing its key.
        """
        try:
            qdir = self.quarantine_dir()
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            self.counters.quarantined += 1
            return True
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return False

    def get(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)``; corrupt entries count as misses and are
        quarantined, stale/foreign entries are dropped."""
        path = self._path(key)
        try:
            entry = _unframe(path.read_bytes())
            if _current(entry, key):
                self.counters.hits += 1
                return True, entry["value"]
            # Foreign entry under our name: not corrupt, just obsolete —
            # drop it without keeping the bytes.
            self.counters.errors += 1
            path.unlink(missing_ok=True)
        except FileNotFoundError:
            pass
        except Exception:
            # Whatever reading or unpickling raises, the entry is
            # corrupt: a miss, never an error at the call site.
            self.counters.errors += 1
            self._quarantine(path)
        self.counters.misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Atomically publish ``value`` under ``key``; I/O failures are
        swallowed (the cache is an accelerator, never a correctness
        dependency) but counted in ``counters.write_failures``."""
        data = _frame({"key": key, "value": value})
        if faults.plan_active():
            # Fault site "cache": a `corrupt` rule models a torn write
            # that slipped past the atomic rename (docs/RESILIENCE.md).
            data = faults.corrupt_bytes("cache", key, data)
        try:
            atomic_write(self._path(key), data)
            self.counters.stores += 1
        except OSError:
            self.counters.errors += 1
            self.counters.write_failures += 1

    # ------------------------------------------------------------------

    def entries(self) -> list[Path]:
        """Entry files currently on disk (excluding in-flight temps)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p
            for p in self.directory.glob(f"*{_ENTRY_SUFFIX}")
            if not p.name.startswith(".tmp-")
        )

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for p in self.entries():
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------

    def quarantined_entries(self) -> list[Path]:
        """Files previously moved into the quarantine directory."""
        qdir = self.quarantine_dir()
        if not qdir.is_dir():
            return []
        return sorted(qdir.glob(f"*{_ENTRY_SUFFIX}"))

    def purge_quarantine(self) -> int:
        """Delete quarantined files; returns how many were removed."""
        removed = 0
        for p in self.quarantined_entries():
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def doctor(self) -> dict[str, int]:
        """Full-cache health scan (``python -m repro cache doctor``).

        Loads and validates every entry: readable and current counts as
        ``ok``; readable but key-mismatched counts as ``stale`` and is
        deleted; unreadable counts as ``corrupt`` and is quarantined.  Returns the tally (plus ``quarantine_backlog``,
        the number of previously quarantined files awaiting review).
        """
        report = {
            "checked": 0, "ok": 0, "stale": 0, "corrupt": 0,
            "quarantined": 0,
        }
        for path in self.entries():
            report["checked"] += 1
            key = path.name[: -len(_ENTRY_SUFFIX)]
            try:
                entry = _unframe(path.read_bytes())
            except Exception:
                report["corrupt"] += 1
                if self._quarantine(path):
                    report["quarantined"] += 1
                continue
            if _current(entry, key):
                report["ok"] += 1
            else:
                report["stale"] += 1
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
        report["quarantine_backlog"] = len(self.quarantined_entries())
        return report


# ----------------------------------------------------------------------

_DEFAULT: DiskCache | None = None


def default_cache() -> DiskCache:
    """Process-wide cache bound to the *currently resolved* directory.

    Re-resolves ``REPRO_CACHE_DIR`` on every call so tests (and callers
    that retarget the environment variable) always hit the directory
    they configured; counters persist as long as the directory does not
    change.
    """
    global _DEFAULT
    resolved = cache_dir()
    if _DEFAULT is None or _DEFAULT.directory != resolved:
        _DEFAULT = DiskCache(resolved)
    return _DEFAULT
