"""Configuration dataclasses for the two simulated designs.

Defaults follow the paper's section 5 methodology, with byte capacities
divided by :data:`repro.graph.datasets.CACHE_SCALE` to match the
100-1000x graph downscaling (see DESIGN.md, "Substitutions"):

* FINGERS: 20 PEs, 24 IUs + 12 task dividers per PE, segments
  ``s_l = 16`` / ``s_s = 4``, 32 kB private cache, two 8 kB stream
  buffers, 4 MB shared cache, DDR4-2666 x4 at 85 GB/s, 1 GHz.
* FlexMiner: 40 PEs (the original paper's largest configuration, used for
  the iso-area comparison), one comparator per PE, strict DFS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.graph.datasets import CACHE_SCALE
from repro.hw.noc import NoCConfig

__all__ = ["MemoryConfig", "FingersConfig", "FlexMinerConfig", "scaled_bytes"]


def scaled_bytes(paper_bytes: int) -> int:
    """Scale a paper byte capacity down by the global graph scale factor."""
    return max(64, paper_bytes // CACHE_SCALE)


def _require_non_negative(config, *names: str) -> None:
    """Reject negative cycle counts and byte capacities (zero is legal)."""
    for name in names:
        if getattr(config, name) < 0:
            raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class MemoryConfig:
    """Shared memory-system parameters (identical for both designs).

    ``dram_bytes_per_cycle`` is 85 GB/s at 1 GHz = 85 B/cycle (paper
    section 5: four channels of DDR4-2666).  Latencies are in core cycles.
    """

    shared_cache_bytes: int = scaled_bytes(4 * 1024 * 1024)
    shared_cache_hit_latency: int = 8
    private_cache_hit_latency: int = 2
    dram_latency: int = 200
    dram_bytes_per_cycle: float = 85.0
    bytes_per_vertex_id: int = 4
    #: PE <-> shared-cache interconnect (paper Figure 5's NoC).
    noc: NoCConfig = NoCConfig()

    def with_shared_cache(self, num_bytes: int) -> "MemoryConfig":
        """Copy with a different shared-cache capacity (Figure 13 sweep)."""
        return replace(self, shared_cache_bytes=num_bytes)


@dataclass(frozen=True)
class FingersConfig:
    """FINGERS chip configuration (paper sections 4 and 5).

    Attributes mirror the paper's knobs:

    ``num_ius``/``long_segment_len``
        Figure 12 sweeps these iso-area (product kept at 24 x 16 = 384).
    ``task_group_size``
        Degree of branch-level parallelism.  ``None`` selects the paper's
        automatic policy (minimum tasks to occupy the IUs, estimated from
        average set sizes); ``1`` disables pseudo-DFS (Figure 11's
        ablation).
    ``max_load``
        Task-divider splitting threshold (short segments per work item).
    """

    num_pes: int = 20
    num_ius: int = 24
    num_dividers: int = 12
    long_segment_len: int = 16
    short_segment_len: int = 4
    max_load: int = 3
    task_group_size: int | None = None
    max_task_group_size: int = 16
    private_cache_bytes: int = scaled_bytes(32 * 1024)
    stream_buffer_bytes: int = scaled_bytes(8 * 1024)
    num_stream_buffers: int = 2
    #: Task-divider head-list capacities (paper section 4.2): 15 long
    #: heads / 24 short heads per divider; longer lists are chunked.
    divider_long_heads: int = 15
    divider_short_heads: int = 24
    #: Serial input-distribution + result-collection handshake cycles per
    #: work item (round-robin multicast in, bitvector out — section 4.3).
    io_cycles_per_item: int = 2
    #: Fixed macro-pipeline overhead per task (pop, head-list generation,
    #: restriction pre-check, push of spawned tasks).
    task_overhead_cycles: int = 6
    frequency_ghz: float = 1.0

    def __post_init__(self) -> None:
        if self.num_pes < 1 or self.num_ius < 1 or self.num_dividers < 1:
            raise ValueError("PE/IU/divider counts must be positive")
        if self.long_segment_len < 1 or self.short_segment_len < 1:
            raise ValueError("segment lengths must be positive")
        if self.max_load < 1:
            raise ValueError("max_load must be >= 1")
        if self.task_group_size is not None and self.task_group_size < 1:
            raise ValueError("task_group_size must be >= 1 when given")
        for name in (
            "max_task_group_size", "divider_long_heads", "divider_short_heads"
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        _require_non_negative(
            self,
            "private_cache_bytes",
            "stream_buffer_bytes",
            "num_stream_buffers",
            "io_cycles_per_item",
            "task_overhead_cycles",
        )

    @property
    def design_name(self) -> str:
        return "FINGERS"


@dataclass(frozen=True)
class FlexMinerConfig:
    """FlexMiner baseline configuration (paper sections 2.2 and 5).

    One comparator-based set-operation unit per PE, strict DFS (so every
    shared-cache miss stalls the PE), and a per-PE private cache through
    which neighbor lists are staged (the c-map-equivalent storage; see the
    paper's methodology note that FINGERS replaces c-map with candidate
    sets in the private cache).
    """

    num_pes: int = 40
    private_cache_bytes: int = scaled_bytes(32 * 1024)
    #: Fixed per-task scheduling overhead (stack pop/push, control).
    task_overhead_cycles: int = 6
    frequency_ghz: float = 1.0

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ValueError("num_pes must be positive")
        _require_non_negative(
            self, "private_cache_bytes", "task_overhead_cycles"
        )

    @property
    def design_name(self) -> str:
        return "FlexMiner"
