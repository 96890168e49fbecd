"""Sectored LRU caches over whole neighbor lists.

A line-accurate set-associative simulation at these graph scales would be
both slow and pointless: the unit of access in pattern-aware mining is an
entire sorted neighbor list, streamed once per use (paper Figure 3).  The
shared cache is therefore modelled as a fully-associative LRU over
variable-size *sectors* (one per vertex neighbor list), sized in bytes —
the standard approximation for streaming accelerators.  Miss-rate curves
(paper Figure 13) are reported as misses / accesses, matching the paper's
definition.

The same structure models the per-PE private caches (candidate sets for
FINGERS, staged neighbor lists for FlexMiner).

:meth:`SectoredLRUCache.fetch_path` is the one shared-fetch path every
PE model replays through: this cache, then DRAM on a miss, then the NoC.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.hw.memory import DRAMModel
    from repro.hw.noc import NoCModel

__all__ = ["CacheStats", "SectoredLRUCache"]


@dataclass
class CacheStats:
    """Hit/miss counters plus eviction traffic."""

    accesses: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_inserted: int = 0
    bytes_evicted: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SectoredLRUCache:
    """Fully-associative LRU cache of variable-size entries.

    Keys are arbitrary hashables (vertex ids for neighbor lists,
    ``(path, state)`` tuples for candidate sets); each entry carries its
    byte size.  An entry larger than the whole capacity is never resident
    (every access to it misses), modelling huge hub neighbor lists that
    can only be streamed.
    """

    def __init__(self, capacity_bytes: int, *, name: str = "cache") -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._entries: OrderedDict[object, int] = OrderedDict()
        self._used = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def access(self, key: object, num_bytes: int) -> bool:
        """Look up ``key``; on miss, insert it.  Returns ``True`` on hit."""
        self.stats.accesses += 1
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        self.stats.misses += 1
        self._insert(key, num_bytes)
        return False

    def fetch_path(
        self,
        sizes: Sequence[int],
        hit_latency: int,
        dram: "DRAMModel",
        noc: "NoCModel | None" = None,
    ) -> Callable[[int, float], float]:
        """``fetch(v, now)``: the completion time of fetching list ``v``.

        Look ``v`` (of ``sizes[v]`` bytes) up here exactly as
        :meth:`access` does; a hit is ready ``hit_latency`` cycles after
        ``now``, a miss once ``dram`` delivers it plus ``hit_latency``.
        The response then crosses ``noc`` unless it is ``None`` (ideal
        wires).  One call per access: the replay loops' hottest path.
        """
        entries = self._entries
        move_to_end = entries.move_to_end
        insert = self._insert
        dram_access = dram.access
        transfer = None if noc is None else noc.transfer

        def fetch(v: int, now: float) -> float:
            stats = self.stats
            stats.accesses += 1
            if v in entries:
                move_to_end(v)
                done = now + hit_latency
            else:
                stats.misses += 1
                num_bytes = sizes[v]
                insert(v, num_bytes)
                done = dram_access(now, num_bytes) + hit_latency
            if transfer is None:
                return done
            return transfer(done, sizes[v])

        return fetch

    def contains(self, key: object) -> bool:
        """Non-mutating membership probe (no stats, no LRU update)."""
        return key in self._entries

    def touch(self, key: object) -> None:
        """Refresh LRU position without counting an access."""
        if key in self._entries:
            self._entries.move_to_end(key)

    def invalidate(self, key: object) -> None:
        """Drop an entry if present."""
        size = self._entries.pop(key, None)
        if size is not None:
            self._used -= size

    def _insert(self, key: object, num_bytes: int) -> None:
        capacity = self.capacity_bytes
        if num_bytes > capacity:
            # Too large to be resident: streamed, never cached.
            return
        entries, stats, used = self._entries, self.stats, self._used
        while used + num_bytes > capacity and entries:
            _, evicted = entries.popitem(last=False)
            used -= evicted
            stats.evictions += 1
            stats.bytes_evicted += evicted
        entries[key] = num_bytes
        self._used = used + num_bytes
        stats.insertions += 1
        stats.bytes_inserted += num_bytes

    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (stats are kept)."""
        self._entries.clear()
        self._used = 0

    def reset(self) -> None:
        """Drop all entries and statistics."""
        self.clear()
        self.stats = CacheStats()
