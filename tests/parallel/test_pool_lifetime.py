"""Pool lifetime: one worker pool per sweep, gone when the sweep returns.

``run_sweep`` opens a pool scope, so every sharded cell of one sweep
runs on the same worker processes: a jobs=2 sweep forks its workers
once, not once per cell.  The scope shuts the pool down on every exit
path, a cell at another worker count replaces it, and a pool a crash
broke is rebuilt for the rest of the sweep.  Each call's payload
reaches a worker through one file, unpickled at most once per worker.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.runner import clear_cache, configure, reset_stats
from repro.core.sharded import resolve_shards
from repro.errors import CellFailed, PoolDegradedWarning
from repro.experiments import ResultStore, executor, load_spec, run_sweep
from repro.graph import erdos_renyi
from repro.parallel import pool
from repro.parallel.pool import run_shards
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RETRY", "base=0,attempts=15")
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.setattr(pool, "_WARNED_DEGRADED", False)
    faults.clear()
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    _live_children()
    yield
    faults.clear()
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


def _live_children(deadline_s=10.0):
    """The children still alive after joining them for up to
    ``deadline_s``.  A closed pool's manager thread reaps its workers
    concurrently, so a join can return before the exit is recorded:
    poll until the list is empty or the deadline passes."""
    end = time.monotonic() + deadline_s
    while True:
        for child in multiprocessing.active_children():
            child.join(timeout=0.5)
        left = multiprocessing.active_children()
        if not left or time.monotonic() > end:
            return left
        time.sleep(0.05)


class _Counting(ProcessPoolExecutor):
    """A real pool that records every construction, the payload files
    of the calls submitted to it, and the worker processes still alive
    when it was made."""

    made: list = []

    def __init__(self, *args, **kwargs):
        self.alive_at_start = [
            p for p in multiprocessing.active_children() if p.is_alive()
        ]
        super().__init__(*args, **kwargs)
        self.paths = set()
        _Counting.made.append(self)

    def submit(self, fn, *args, **kwargs):
        self.paths.add(args[0][0])
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(_Counting, "made", [])
    monkeypatch.setattr(pool, "ProcessPoolExecutor", _Counting)
    return _Counting.made


GRAPHS = {
    "ga": erdos_renyi(30, 0.3, seed=1),
    "gb": erdos_renyi(34, 0.25, seed=2),
    "pair": erdos_renyi(2, 1.0, seed=0),  # two roots: two shards
}


def _spec(graphs=("ga",), jobs=(2,), patterns=("tc", "tt"),
          backends=("functional", "fingers")):
    return load_spec(
        {
            "sweep": {
                "name": "lifetime",
                "patterns": list(patterns),
                "graphs": list(graphs),
                "backends": list(backends),
                "jobs": list(jobs),
            },
            "configs": {"fingers": {"num_pes": 2}},
        },
        available_graphs=list(GRAPHS),
    )


def _sweep(spec, tmp_path, run="r", **kwargs):
    return run_sweep(spec, store=ResultStore(tmp_path / "store"),
                     graphs=GRAPHS, run=run, disk=False, **kwargs)


def _measurements(rows):
    return [
        (r.pattern, r.graph, r.backend, r.count, tuple(r.counts), r.cycles)
        for r in rows
    ]


class TestOnePoolPerSweep:
    def test_jobs2_sweep_constructs_one_executor(self, counting, tmp_path):
        out = _sweep(_spec(graphs=("ga", "gb")), tmp_path)
        assert out.executed == 8 and out.failed == 0
        assert len(counting) == 1
        # Every cell ran on it: eight calls, eight payload files.
        assert len(counting[0].paths) == 8

    def test_no_worker_outlives_the_sweep(self, counting, tmp_path):
        out = _sweep(_spec(), tmp_path)
        assert out.executed == 4
        assert _live_children() == []

    def test_no_worker_outlives_a_failed_sweep(
        self, counting, tmp_path, monkeypatch
    ):
        real = executor.run_backend_cached
        calls = []

        def second_cell_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("cell defect")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "run_backend_cached", second_cell_fails)
        with pytest.raises(CellFailed):
            _sweep(_spec(), tmp_path, isolate=False)
        # The first cell had the pool running when the second raised.
        assert len(counting) == 1 and counting[0].paths
        assert _live_children() == []

    def test_scope_removes_its_payload_directory(self):
        with pool.pool_scope() as scope:
            with pool.pool_scope() as nested:
                assert nested is scope
                run_shards(_square_sum, 2, [[1], [2], [3]], 2)
            directory = scope.directory
            assert directory is not None and os.path.isdir(directory)
            # Each call's payload file goes when the call returns.
            assert os.listdir(directory) == []
        assert not os.path.exists(directory)
        with pool.pool_scope() as again:
            assert again is not scope


class TestPoolReplacement:
    def test_new_worker_count_replaces_the_pool(self, counting):
        # Calls at jobs 2, 3, 2, 3 in one scope (as the cells of one
        # sweep): each replaces the pool, and the old pool's workers are
        # gone before the new pool is made.
        shards = [[i] for i in range(6)]
        with pool.pool_scope():
            for jobs in (2, 3, 2, 3):
                out = run_shards(_square_sum, jobs, shards, jobs)
                assert out == [jobs * s[0] for s in shards]
        assert [e._max_workers for e in counting] == [2, 3, 2, 3]
        assert all(e.alive_at_start == [] for e in counting)

    def test_sweep_replaces_the_pool_for_fewer_shards(
        self, counting, tmp_path
    ):
        # A cell with fewer shards than jobs needs fewer workers.  (Cells
        # that differ only in jobs share a key, so a sweep runs one.)
        spec = _spec(graphs=("ga", "pair", "gb"), jobs=(3,),
                     patterns=("tc",), backends=("fingers",))
        out = _sweep(spec, tmp_path)
        assert out.executed == 3
        assert [e._max_workers for e in counting] == [3, 2, 3]
        assert all(e.alive_at_start == [] for e in counting)

    def test_rebuilt_pool_carries_the_next_cell(self, counting, tmp_path):
        # Crash one shard of the first cell (graph ga) once.  A fault
        # token is the digest of a shard's roots, so pick a shard the
        # second cell (graph gb) does not have: it draws no fault.
        other = resolve_shards(GRAPHS["gb"], None, None)
        shard = next(s for s in resolve_shards(GRAPHS["ga"], None, None)
                     if s not in other)
        token = faults.token_for(shard)
        seed = next(
            s for s in range(500)
            if (plan := faults.FaultPlan.parse(
                f"seed={s},crash:pool[{token[:16]}]=0.5"
            )).decide("pool", token, 0) is not None
            and plan.decide("pool", token, 1) is None
        )
        shape = dict(graphs=("ga", "gb"), patterns=("tc",),
                     backends=("fingers",))
        serial = _sweep(_spec(jobs=(1,), **shape), tmp_path, run="serial")
        clear_cache()
        faults.install(f"seed={seed},crash:pool[{token[:16]}]=0.5")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", PoolDegradedWarning)
                out = _sweep(_spec(**shape), tmp_path, run="faulted")
        finally:
            faults.clear()
        assert out.executed == 2 and out.failed == 0
        first, second = out.rows
        assert first.retry["crashes"] >= 1
        assert first.retry["pool_rebuilds"] >= 1
        assert first.retry["serial_fallbacks"] == 0
        # One initial pool plus the rebuild(s) of the first cell; the
        # second cell ran on the last rebuilt pool, not serially.
        assert len(counting) == 1 + first.retry["pool_rebuilds"]
        assert second.retry == {}
        assert len(counting[-1].paths) == 2
        assert _measurements(out.rows) == _measurements(serial.rows)


def _square_sum(payload, shard):
    return payload * sum(shard)


class _Recorded:
    """A payload that appends the unpickling process's pid to a file."""

    def __init__(self, log, k):
        self.log, self.k = log, k

    def __getstate__(self):
        return {"log": self.log, "k": self.k}

    def __setstate__(self, state):
        self.__dict__.update(state)
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()}\n")


def _scaled(payload, shard):
    return payload.k * sum(shard)


def _pids(log):
    with open(log) as fh:
        return [int(line) for line in fh]


class TestPayloadRoute:
    SHARDS = [[i, i + 1] for i in range(12)]

    def test_each_worker_unpickles_a_payload_at_most_once(self, tmp_path):
        logs = [tmp_path / "first.log", tmp_path / "second.log"]
        with pool.pool_scope():
            for k, log in enumerate(logs, start=2):
                log.touch()
                out = run_shards(_scaled, _Recorded(str(log), k),
                                 self.SHARDS, 2)
                assert out == [k * sum(s) for s in self.SHARDS]
        first, second = (_pids(log) for log in logs)
        for pids in (first, second):
            assert pids and len(pids) == len(set(pids)) <= 2
            assert os.getpid() not in pids
        # The same workers served both calls, one load per call each.
        assert set(second) <= set(first)

    def test_retry_rounds_reuse_the_loaded_payload(self, tmp_path):
        # Transient faults requeue shards onto the same (unbroken)
        # pool; its workers keep the payload they already loaded.
        log = tmp_path / "payload.log"
        log.touch()
        faults.install("seed=3,transient:pool=0.4")
        try:
            out = run_shards(
                _scaled, _Recorded(str(log), 5), self.SHARDS, 2,
                policy=RetryPolicy(max_attempts=30, backoff_base_s=0.0),
            )
        finally:
            faults.clear()
        assert out == [5 * sum(s) for s in self.SHARDS]
        pids = _pids(log)
        assert len(pids) == len(set(pids)) <= 2
