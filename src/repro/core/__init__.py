"""Execution core: the backend registry and the unified result contract.

Every way of executing a mining job — the FINGERS chip model, the
FlexMiner baseline, the multi-core software miner, and the pure
functional reference engine — is a :class:`~repro.core.backend.Backend`
behind one registry.  All of them produce the same
:class:`~repro.core.result.RunResult`, merge shards through the same
:func:`~repro.core.result.merge_run_results`, run the
sharded model through the same
:func:`~repro.core.sharded.run_sharded` driver, and derive
persistent-cache keys from the same
:meth:`~repro.core.backend.Backend.cache_key` schema.

Typical use::

    from repro.core import get_backend

    backend = get_backend("fingers")
    result = backend.run(graph, "tc", backend.default_config(units=4))
    print(result.count, result.cycles)

See docs/API.md ("Backend contract") and docs/PARALLELISM.md for the
full merge/caching semantics.
"""

from repro.core.backend import (
    Backend,
    backend_for_config,
    backend_names,
    config_signature,
    get_backend,
)
from repro.core.merge import merge_stats
from repro.core.provenance import environment_provenance, git_revision
from repro.core.result import RunResult, merge_run_results
from repro.core.workload import Workload, resolve_workload

# ``Workload`` (the Union type alias) is importable but deliberately
# not in ``__all__``: typing aliases carry no docstring of their own.
__all__ = [
    "Backend",
    "RunResult",
    "backend_for_config",
    "backend_names",
    "config_signature",
    "environment_provenance",
    "get_backend",
    "git_revision",
    "merge_run_results",
    "merge_stats",
    "resolve_shards",
    "resolve_workload",
    "run_sharded",
]


def __getattr__(name):
    # The sharded driver is resolved lazily: it pulls in the worker-pool
    # machinery (repro.parallel), which library-only users never need.
    if name in ("run_sharded", "resolve_shards"):
        from repro.core import sharded as _sharded

        return getattr(_sharded, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
