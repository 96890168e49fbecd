"""Off-chip DRAM model: fixed latency plus FCFS bandwidth occupancy.

A transfer of ``b`` bytes issued at time ``t`` completes at
``max(t, channel_free) + latency + b / bytes_per_cycle``; the channel then
stays busy until that service finishes.  This captures the two effects the
evaluation depends on: long memory stalls for dependent DFS fetches
(paper section 2.3, inefficiency #1) and bandwidth saturation when many
PEs miss concurrently (section 6.3, Yo/Pa discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import MemoryConfig

__all__ = ["DRAMModel", "DRAMStats"]


@dataclass
class DRAMStats:
    """Aggregate DRAM traffic counters."""

    requests: int = 0
    bytes_transferred: int = 0
    busy_cycles: float = 0.0
    total_queue_delay: float = 0.0

    @property
    def avg_queue_delay(self) -> float:
        return self.total_queue_delay / self.requests if self.requests else 0.0


class DRAMModel:
    """Single aggregated channel with latency + occupancy accounting."""

    def __init__(self, config: MemoryConfig) -> None:
        self._latency = config.dram_latency
        self._bytes_per_cycle = config.dram_bytes_per_cycle
        self._free_at = 0.0
        self.stats = DRAMStats()

    def access(self, now: float, num_bytes: int) -> float:
        """Issue a transfer at ``now``; return its completion time."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        start = self._free_at
        if now >= start:
            start = now
        service = num_bytes / self._bytes_per_cycle
        done = start + self._latency + service
        self._free_at = start + service
        stats = self.stats
        stats.requests += 1
        stats.bytes_transferred += num_bytes
        stats.busy_cycles += service
        stats.total_queue_delay += start - now
        return done

    @property
    def free_at(self) -> float:
        """Time at which the channel becomes idle."""
        return self._free_at

    def reset(self) -> None:
        """Clear channel state and statistics."""
        self._free_at = 0.0
        self.stats = DRAMStats()
