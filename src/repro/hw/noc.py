"""Network-on-chip model connecting PEs to the shared cache.

Paper Figure 5 shows the PEs attached to the shared cache through a NoC.
For the traffic pattern at hand — request/response between each PE and
the central cache — a detailed topology simulation adds nothing; what
matters is (a) a per-hop traversal latency added to every shared-cache
access and (b) an aggregate bandwidth ceiling that congests when many
PEs stream hub lists simultaneously.  Both are modelled here in the same
occupancy style as :class:`repro.hw.memory.DRAMModel`.

The default parameters make the NoC nearly transparent (a few cycles,
ample bandwidth), as in the paper, but the sensitivity benchmark sweeps
them to show when interconnect would start to matter.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NoCConfig", "NoCModel", "NoCStats"]


@dataclass(frozen=True)
class NoCConfig:
    """Interconnect parameters.

    ``latency_cycles`` is the round-trip request/response traversal;
    ``bytes_per_cycle`` the aggregate PE<->cache bandwidth (0 disables
    occupancy modelling entirely, i.e. an ideal crossbar).
    """

    latency_cycles: int = 4
    bytes_per_cycle: float = 256.0

    def __post_init__(self) -> None:
        if self.latency_cycles < 0:
            raise ValueError("latency must be non-negative")
        if self.bytes_per_cycle < 0:
            raise ValueError("bandwidth must be non-negative")


@dataclass
class NoCStats:
    """Traffic counters."""

    transfers: int = 0
    bytes_transferred: int = 0
    total_queue_delay: float = 0.0

    @property
    def avg_queue_delay(self) -> float:
        return self.total_queue_delay / self.transfers if self.transfers else 0.0


class NoCModel:
    """Latency plus FCFS aggregate-bandwidth occupancy."""

    def __init__(self, config: NoCConfig | None = None) -> None:
        self.config = config or NoCConfig()
        self._free_at = 0.0
        self.stats = NoCStats()

    def transfer(self, now: float, num_bytes: int) -> float:
        """Move ``num_bytes`` across the NoC at ``now``; return arrival."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        stats = self.stats
        stats.transfers += 1
        stats.bytes_transferred += num_bytes
        config = self.config
        if config.bytes_per_cycle <= 0:
            return now + config.latency_cycles
        start = self._free_at
        if now >= start:
            start = now
        service = num_bytes / config.bytes_per_cycle
        self._free_at = start + service
        stats.total_queue_delay += start - now
        return start + service + config.latency_cycles

    def reset(self) -> None:
        self._free_at = 0.0
        self.stats = NoCStats()
