"""Configuration for the multi-core software mining model.

Cost defaults are calibrated against the published hardware/software
gap: FlexMiner (ISCA 2021) reports roughly an order of magnitude over
AutoMine/GraphZero-class CPU frameworks, which the defaults reproduce on
the mid-size analogs.  Concretely: ~2 cycles per merged element for the
branchy scalar merge loop (SIMD, cited by the paper via Inoue et al.
[28], can be enabled by raising ``elements_per_cycle``), ~100 cycles of
software bookkeeping per tree-extension task (allocation, iterator and
queue management — the overhead the paper says makes fine-grained
software parallelism pay "diminishing returns"), and a cache-transfer
latency per steal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import _require_non_negative, scaled_bytes

__all__ = ["SoftwareConfig"]


@dataclass(frozen=True)
class SoftwareConfig:
    """A multi-core CPU running pattern-aware mining in software.

    Attributes
    ----------
    num_cores:
        Worker cores.
    granularity:
        ``"tree"`` — one schedulable task per search-tree root (the
        coarse decomposition FlexMiner's software baselines use);
        ``"branch"`` — every tree-extension task is stealable
        (aDFS-style branch-level parallelism in software).
    elements_per_cycle:
        Merge throughput of one core (SIMD factor; 1.0 = scalar).
    task_overhead_cycles:
        Software scheduling cost per executed task (queue operations,
        function dispatch) — the overhead the paper says diminishes
        returns for fine granularities.
    steal_overhead_cycles:
        Latency of stealing a task from a remote deque (cross-core cache
        transfer).
    llc_bytes:
        Shared last-level cache, scaled like the accelerator caches.
    """

    num_cores: int = 8
    granularity: str = "tree"
    elements_per_cycle: float = 0.5
    task_overhead_cycles: int = 100
    steal_overhead_cycles: int = 200
    llc_bytes: int = scaled_bytes(32 * 1024 * 1024)
    frequency_ghz: float = 2.5

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        if self.granularity not in ("tree", "branch"):
            raise ValueError("granularity must be 'tree' or 'branch'")
        if self.elements_per_cycle <= 0:
            raise ValueError("elements_per_cycle must be positive")
        _require_non_negative(
            self, "task_overhead_cycles", "steal_overhead_cycles", "llc_bytes"
        )

    @property
    def design_name(self) -> str:
        return f"SW-{self.num_cores}core-{self.granularity}"
