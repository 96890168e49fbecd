"""Persistent, versioned result cache.

Simulation results are deterministic functions of (graph contents,
workload, design configuration, root set, execution model), so they can
be memoized on disk across processes: a repeated figure sweep then costs
file reads instead of hours of event-loop simulation.

Layout and guarantees
---------------------

* **Location**: ``$REPRO_CACHE_DIR`` if set, else
  ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.  Created lazily.
* **Keys**: SHA-256 over a canonical rendering of the request parts
  plus :data:`SCHEMA_VERSION`.  Graphs are fingerprinted by their full
  CSR byte contents and root sets by their full ``int64`` array hash —
  *never* by summaries that can collide (see docs/PARALLELISM.md for
  the exact key schema).
* **Entries**: one pickle file per key, holding
  ``{"schema": ..., "key": ..., "value": ...}``.  Written atomically
  (temp file + ``os.replace``) so concurrent writers and crashes never
  publish a torn entry.
* **Invalidation**: bumping :data:`SCHEMA_VERSION` (done whenever a
  timing model changes observable results) orphans every old entry;
  corrupted, truncated, unreadable, or mismatched entries are treated
  as misses and recomputed — never raised.
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
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.resilience import faults

__all__ = [
    "SCHEMA_VERSION",
    "CacheCounters",
    "DiskCache",
    "cache_dir",
    "default_cache",
    "graph_fingerprint",
    "make_key",
    "roots_fingerprint",
]

#: Bump whenever any simulator/engine change alters results for the same
#: inputs; every existing cache entry then misses and is recomputed.
SCHEMA_VERSION = 1

_ENTRY_SUFFIX = ".pkl"

#: Subdirectory (inside the cache) holding unreadable entries moved
#: aside for forensics; excluded from ``entries()`` by construction
#: (the glob is non-recursive).
_QUARANTINE_DIR = "quarantine"


def cache_dir() -> Path:
    """Resolve the cache directory (without creating it)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a graph's full CSR arrays (memoized per instance,
    :meth:`~repro.graph.csr.CSRGraph.fingerprint`)."""
    return graph.fingerprint()


def roots_fingerprint(roots: Iterable[int] | None) -> str:
    """Hash of the *entire* root array (``"all"`` for the full-graph
    default).

    Summaries like ``(len, first, last)`` collide between different root
    sets and silently return the wrong memoized result; hashing the full
    array cannot.
    """
    if roots is None:
        return "all"
    arr = np.asarray(list(roots), dtype=np.int64)
    h = hashlib.sha256(arr.tobytes())
    return f"{arr.size}:{h.hexdigest()}"


def make_key(**parts: Any) -> str:
    """Canonical cache key: SHA-256 over sorted ``repr``-rendered parts.

    Every value must render deterministically (strings, numbers, and
    dataclass ``repr``s do).  The schema version is always mixed in.
    """
    canon = [f"schema={SCHEMA_VERSION}"]
    for name in sorted(parts):
        canon.append(f"{name}={parts[name]!r}")
    return hashlib.sha256("\x1f".join(canon).encode("utf-8")).hexdigest()


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
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if (
                isinstance(entry, dict)
                and entry.get("schema") == SCHEMA_VERSION
                and entry.get("key") == key
            ):
                self.counters.hits += 1
                return True, entry["value"]
            # Stale schema or foreign entry under our name: not corrupt,
            # just obsolete — drop it without keeping the bytes.
            self.counters.errors += 1
            path.unlink(missing_ok=True)
        except FileNotFoundError:
            pass
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.counters.errors += 1
            self._quarantine(path)
        self.counters.misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Atomically publish ``value`` under ``key``; I/O failures are
        swallowed (the cache is an accelerator, never a correctness
        dependency) but counted in ``counters.write_failures``."""
        entry = {"schema": SCHEMA_VERSION, "key": key, "value": value}
        data = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        if faults.plan_active():
            # Fault site "cache": a `corrupt` rule models a torn write
            # that slipped past the atomic rename (docs/RESILIENCE.md).
            data = faults.corrupt_bytes("cache", key, data)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=_ENTRY_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
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
        ``ok``; readable but schema-stale or key-mismatched counts as
        ``stale`` and is deleted; unreadable counts as ``corrupt`` and
        is quarantined.  Returns the tally (plus ``quarantine_backlog``,
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
                with open(path, "rb") as fh:
                    entry = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError, ValueError):
                report["corrupt"] += 1
                if self._quarantine(path):
                    report["quarantined"] += 1
                continue
            if (
                isinstance(entry, dict)
                and entry.get("schema") == SCHEMA_VERSION
                and entry.get("key") == key
            ):
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
