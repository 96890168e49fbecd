"""Cycle-approximate hardware timing models of FINGERS and FlexMiner.

The models are *functionally exact* (they replay a trace of the same plan
IR the reference engine runs and must produce identical counts — enforced
by tests) and *temporally approximate*: instead of simulating every wire, they
charge cycle costs according to the microarchitectural contracts stated
in the paper (see DESIGN.md section 5) and model the memory system with
sectored LRU caches and a bandwidth/latency DRAM model.

Layout
------
``config``     configuration dataclasses for both designs
``memory``     DRAM model
``cache``      shared / private sectored caches, stream buffers
``iu``         intersect-unit pool: per-task reference of the IU costs
``optrace``    set-op trace: every task's tree shape and op costs, built
               batched once per run (vectorized IU/divider model)
``stats``      counters: cycles, active rate, balance rate, miss rates
``pe``         trace replay and the FINGERS processing element
               (pseudo-DFS, task groups)
``flexminer``  the baseline processing element (strict DFS, serial ops)
``chip``       multi-PE chip with dynamic root scheduling
``area``       area/power model (paper Table 2) and iso-area helpers
``api``        `simulate` / `speedup_grid` front door
"""

from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.api import simulate, speedup_grid

__all__ = [
    "FingersConfig",
    "FlexMinerConfig",
    "MemoryConfig",
    "simulate",
    "speedup_grid",
]
