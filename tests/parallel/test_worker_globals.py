"""Regression tests for the audited RACE001 findings.

The first Tier-C sweep over the real tree flagged three module-level
mutable-state sites on worker-reachable paths.  Each was audited as an
intentional per-process design and suppressed with an inline
``# noqa: RACE001`` pragma; these tests pin the *behavior* that makes
each suppression sound, so a refactor that breaks the invariant fails
here rather than silently re-introducing the hazard.
"""

import numpy as np
import pytest

from repro.analysis.dataflow import analyze_sources
from repro.graph import erdos_renyi
from repro.mining.api import plan_for
from repro.parallel import pool
from repro.parallel.pool import run_shards
from repro.pattern.plan import OpKind
from repro.setops.kernels import (
    KernelContext,
    kernel_counters,
    reset_kernel_counters,
)


def _double(payload, shard):
    return [x * payload["k"] for x in shard]


class TestPoolWorkerGlobals:
    """`pool._WORKER` / `pool._PAYLOAD` are per-process only."""

    def test_parent_globals_untouched_by_pool_run(self):
        assert pool._WORKER is None
        assert pool._PAYLOAD is None
        out = run_shards(_double, {"k": 3}, [[1, 2], [3, 4]], 2)
        assert out == [[3, 6], [9, 12]]
        # The initializer ran in the *children*; the parent's module
        # globals must never have been written.
        assert pool._WORKER is None
        assert pool._PAYLOAD is None

    def test_serial_path_never_installs_globals(self):
        out = run_shards(_double, {"k": 2}, [[5]], 1)
        assert out == [[10]]
        assert pool._WORKER is None
        assert pool._PAYLOAD is None


class TestPoolFailureLatch:
    """`pool._POOL_FAILURE` / `pool._WARNED` are an advisory latch: once
    set, later calls skip the pool but produce identical results."""

    def test_latched_failure_falls_back_with_identical_results(
        self, monkeypatch
    ):
        pooled = run_shards(_double, {"k": 7}, [[1], [2], [3]], 2)
        monkeypatch.setattr(pool, "_POOL_FAILURE", "OSError: simulated")
        monkeypatch.setattr(pool, "_WARNED", True)
        assert pool.pool_unavailable_reason() == "OSError: simulated"
        serial = run_shards(_double, {"k": 7}, [[1], [2], [3]], 2)
        assert serial == pooled == [[7], [14], [21]]

    def test_pool_error_sets_latch_and_warns_once(self, monkeypatch):
        monkeypatch.setattr(pool, "_POOL_FAILURE", None)
        monkeypatch.setattr(pool, "_WARNED", False)

        class _Boom:
            def __init__(self, *a, **kw):
                raise OSError("no processes here")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", _Boom)
        with pytest.warns(RuntimeWarning, match="running shards serially"):
            out = run_shards(_double, {"k": 1}, [[1], [2]], 2)
        assert out == [[1], [2]]
        assert "no processes here" in pool.pool_unavailable_reason()
        # Second call: latched, serial, and silent.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            again = run_shards(_double, {"k": 1}, [[1], [2]], 2)
        assert again == [[1], [2]]


class TestKernelCounters:
    """`kernels._COUNTERS` tallies are per-process advisory telemetry."""

    def test_counters_increment_in_process_and_snapshot_is_a_copy(self):
        reset_kernel_counters()
        a = np.array([1, 2, 3, 4], dtype=np.int32)
        b = np.array([2, 4, 6], dtype=np.int32)
        KernelContext().apply_op(OpKind.INTERSECT, a, b)
        snap = kernel_counters()
        assert sum(snap.values()) == 1
        snap["intersect/merge"] = 999
        # Mutating the snapshot must not write through to the tally.
        assert kernel_counters() != snap or sum(kernel_counters().values()) == 1
        reset_kernel_counters()
        assert kernel_counters() == {}

    def test_parallel_run_leaves_parent_counters_at_serial_levels(self):
        """Worker-process tallies stay in the workers: the parent's
        counters reflect only parent-side kernel calls."""
        from repro.core.sharded import per_root_counts_parallel

        graph = erdos_renyi(20, 0.3, seed=5)
        plan = plan_for("tc")
        reset_kernel_counters()
        per_root_counts_parallel(graph, plan, None, 2)
        parent_tally = sum(kernel_counters().values())
        reset_kernel_counters()
        per_root_counts_parallel(graph, plan, None, 1)
        serial_tally = sum(kernel_counters().values())
        # If the pool spawned, workers did the counting and the parent
        # saw none of it; on the serial fallback the tallies match.
        if pool.pool_unavailable_reason() is None:
            assert parent_tally == 0
        else:
            assert parent_tally == serial_tally
        assert serial_tally > 0
        reset_kernel_counters()


class TestSuppressionsStillNeeded:
    """The noqa'd findings are real: stripping the pragmas re-fires
    RACE001 — i.e. the suppressions document live behavior, not cruft."""

    def test_pool_initializer_fires_without_noqa(self):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_WORKER = None\n"
            "_PAYLOAD = None\n"
            "def _initializer(worker, payload):\n"
            "    global _WORKER, _PAYLOAD\n"
            "    _WORKER = worker\n"
            "    _PAYLOAD = payload\n"
            "def run(worker, payload, shards, jobs):\n"
            "    with ProcessPoolExecutor(\n"
            "        max_workers=jobs, initializer=_initializer,\n"
            "        initargs=(worker, payload),\n"
            "    ) as ex:\n"
            "        return list(ex.map(worker, shards))\n"
        )
        findings = analyze_sources({"repro.parallel.mini": source})
        assert [f.rule for f in findings] == ["RACE001"]
        assert "_initializer" in findings[0].message
