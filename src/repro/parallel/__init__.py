"""Host-parallel execution layer: root sharding across worker processes.

The paper exploits parallelism at every on-chip granularity; this
package adds the granularity *above* the simulated chip — sharding
search-tree roots across host processes — so sweeps run as fast as the
host hardware allows.  The determinism and merge contract is documented
in ``docs/PARALLELISM.md``; the short version:

* reference-engine results are merged associatively, so any ``jobs``
  value reproduces the serial counts and embedding lists exactly;
* the simulators run the *sharded (multi-chip) model*: a decomposition
  that depends only on the graph and root set, one cold chip per shard,
  exact counter merges, makespan = max over shards — bit-for-bit
  identical for every ``jobs`` value.
"""

from repro.parallel.chunking import (
    CHUNKS_PER_JOB,
    DEFAULT_SHARDS,
    default_num_shards,
    engine_num_chunks,
    shard_roots,
)
from repro.parallel.pool import (
    pool_unavailable_reason,
    reset_retry_stats,
    retry_stats,
    run_shards,
)
from repro.resilience.retry import RetryPolicy, RetryStats

__all__ = [
    "RetryPolicy",
    "RetryStats",
    "CHUNKS_PER_JOB",
    "DEFAULT_SHARDS",
    "default_num_shards",
    "engine_num_chunks",
    "shard_roots",
    "pool_unavailable_reason",
    "reset_retry_stats",
    "retry_stats",
    "run_shards",
]
