"""Simulation statistics: the quantities the paper's evaluation reports.

* ``cycles`` per PE and chip makespan (Figures 9-12);
* IU *active rate* — total IU busy cycles over ``num_ius x PE cycles``
  (Table 3; the paper's worked example: 2 of 4 IUs busy for 10 of 20
  cycles = 25 %);
* IU *balance rate* — per compute load, the busy sum over
  ``duration x subset size``, averaged weighted by load duration
  (Table 3's second row);
* shared-cache miss rates (Figure 13) via
  :class:`repro.hw.cache.CacheStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PEStats"]


@dataclass
class PEStats:
    """Counters accumulated by one processing element."""

    tasks: int = 0
    task_groups: int = 0
    busy_cycles: float = 0.0
    stall_cycles: float = 0.0
    compute_cycles: float = 0.0
    overhead_cycles: float = 0.0
    # IU utilization (FINGERS only; FlexMiner has a single comparator).
    iu_busy_cycles: float = 0.0
    num_work_items: int = 0
    # Balance-rate accumulators: sum of per-load busy, and of
    # duration x subset-size, weighted by construction.
    balance_busy_sum: float = 0.0
    balance_capacity_sum: float = 0.0
    # Memory behaviour.
    neighbor_fetches: int = 0
    private_spills: int = 0
    embeddings_found: int = 0

    def record_op_balance(self, iu_busy: tuple[int, ...]) -> None:
        """Accumulate one compute load's balance contribution."""
        if not iu_busy:
            return
        duration = max(iu_busy)
        if duration == 0:
            return
        self.balance_busy_sum += sum(iu_busy)
        self.balance_capacity_sum += duration * len(iu_busy)

    def active_rate(self, num_ius: int) -> float:
        """Fraction of IU-cycles carrying work over the PE's busy window."""
        total = self.busy_cycles * num_ius
        return self.iu_busy_cycles / total if total > 0 else 0.0

    @property
    def balance_rate(self) -> float:
        if self.balance_capacity_sum == 0:
            return 1.0
        return self.balance_busy_sum / self.balance_capacity_sum

    @property
    def stall_fraction(self) -> float:
        return (
            self.stall_cycles / self.busy_cycles if self.busy_cycles > 0 else 0.0
        )

