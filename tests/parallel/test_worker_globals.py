"""Worker-path state: what a shard worker may write, checked by running it.

``run_shards`` runs ``worker(payload, shard)`` in a pool process on a
pickled copy of the payload, or in the driver on the payload itself
when it runs serially.  A worker that writes a ``repro`` module global
or its payload therefore behaves differently on the two paths: the
pool child's write is lost, the serial write leaks into the next shard
and into the parent.

:class:`TestWorkerPathWrites` runs every shard of every ``run_shards``
fan-out in ``src/repro`` in-process under a spy and diffs, around each
worker call, a snapshot of all ``repro.*`` module globals (rebinding by
identity, contents by pickled bytes) and the pickled payload.  The
other classes pin the per-process designs of the pool's own globals.
"""

import ast
import functools
import importlib
import pickle
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.backend import backend_names, get_backend
from repro.graph import erdos_renyi
from repro.mining.api import plan_for
from repro.mining.engine import count_embeddings, count_multi, list_embeddings
from repro.parallel import pool
from repro.parallel.pool import run_shards
from repro.pattern.multipattern import compile_multi_plan, motif_patterns
from repro.pattern.plan import OpKind
from repro.setops.kernels import (
    ENGINE_NAMES,
    KernelContext,
    KernelPolicy,
    kernel_counters,
    reset_kernel_counters,
)

#: The module globals a worker may write, each with why that is safe.
ALLOWED_WRITES = {
    "repro.setops.kernels._COUNTERS": (
        "per-process dispatch tally: a profiling aid that never feeds a "
        "result or a cycle count; a pool worker's tallies stay in it"
    ),
}


def _double(payload, shard):
    return [x * payload["k"] for x in shard]


# ----------------------------------------------------------------------
# The executed check
# ----------------------------------------------------------------------


def _pickled(value):
    try:
        return pickle.dumps(value)
    except Exception:  # locks, closures: compared by identity alone
        return None


def _snapshot():
    """``{module: {name: (value, pickled bytes)}}`` for every loaded
    ``repro`` module.  Holding each value keeps its ``id`` from being
    reused by a rebinding."""
    snap = {}
    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "repro":
            continue
        snap[modname] = {
            name: (value, _pickled(value))
            for name, value in list(vars(module).items())
            if not name.startswith("__")
            and not isinstance(value, types.ModuleType)
        }
    return snap


def _written(before, after):
    """Qualified names rebound, mutated, added or deleted between two
    snapshots.  A module first imported in between is new, not written."""
    names = []
    for modname, now in after.items():
        then = before.get(modname)
        if then is None:
            continue
        for name in sorted(now.keys() | then.keys()):
            old, new = then.get(name), now.get(name)
            if old is None or new is None or old[0] is not new[0] or (
                old[1] != new[1]
            ):
                names.append(f"{modname}.{name}")
    return names


class _Spy:
    """A ``run_shards`` stand-in: every shard in-process, each worker
    call bracketed by a globals snapshot and a payload pickle."""

    def __init__(self):
        self.workers = set()
        self.writes = set()

    def __call__(self, worker, payload, shards, jobs, *, policy=None,
                 stats=None):
        entry = f"{worker.__module__}.{worker.__qualname__}"
        self.workers.add(entry)
        results = []
        for shard in shards:
            payload_before = pickle.dumps(payload)
            before = _snapshot()
            results.append(worker(payload, shard))
            self.writes.update(
                (entry, name) for name in _written(before, _snapshot())
            )
            if pickle.dumps(payload) != payload_before:
                self.writes.add((entry, "payload"))
        return results


def _disallowed(writes, allowed=ALLOWED_WRITES):
    """The ``(worker entry, name)`` writes not excused by ``allowed``."""
    return {(entry, name) for entry, name in writes if name not in allowed}


@functools.cache
def _fanout_workers():
    """``module.name`` of the first argument of every ``run_shards(``
    call in ``src/repro``."""
    root = Path(repro.__file__).resolve().parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(
            ("repro",) + path.relative_to(root).with_suffix("").parts
        ).removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if called == "run_shards":
                assert isinstance(node.args[0], ast.Name), (
                    f"{path}:{node.lineno}: worker is not a plain name"
                )
                found.add(f"{module}.{node.args[0].id}")
    return found


def _drive():
    """Every host-parallel entry point, each with ``jobs=2``."""
    graph = erdos_renyi(24, 0.3, seed=5)
    roots = range(6)
    tc = plan_for("tc")
    for engine in ENGINE_NAMES:
        count_embeddings(
            graph, tc, roots=roots, jobs=2, kernels=KernelPolicy(engine)
        )
    patterns, names = motif_patterns(3)
    count_multi(
        graph, compile_multi_plan(patterns, names=names), roots=roots, jobs=2
    )
    list_embeddings(graph, tc, roots=roots, jobs=2)
    for name in backend_names():
        get_backend(name).run(graph, "tc", roots=roots, jobs=2)


@pytest.fixture(scope="module")
def spy():
    """One spied drive for the module: the modules that call
    ``run_shards`` are imported first, so each binding is patched."""
    workers = _fanout_workers()
    for entry in workers:
        importlib.import_module(entry.rsplit(".", 1)[0])
    spy = _Spy()
    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if getattr(module, "run_shards", None) is run_shards and (
                module.__name__.split(".")[0] == "repro"
            ):
                mp.setattr(module, "run_shards", spy)
        _drive()
    return spy


class TestWorkerPathWrites:
    def test_real_workers_write_clean(self, spy):
        writes = _disallowed(spy.writes)
        assert writes == set(), (
            "a shard worker wrote state that a pool child would keep to "
            "itself (worker entry, global or payload): "
            f"{sorted(writes)}"
        )
        # Each allowed write still happens: the list holds no stale entry.
        assert ALLOWED_WRITES.keys() <= {name for _, name in spy.writes}

    def test_every_fanout_worker_is_exercised(self, spy):
        assert spy.workers == _fanout_workers()

    def test_snapshot_sees_rebinds_and_mutations(self, monkeypatch):
        before = _snapshot()
        monkeypatch.setattr(pool, "_WARNED", not pool._WARNED)
        mutated = _snapshot()
        reset_kernel_counters()
        KernelContext().apply_op(
            OpKind.INTERSECT, np.arange(3, dtype=np.int32),
            np.arange(3, dtype=np.int32),
        )
        assert _written(before, mutated) == ["repro.parallel.pool._WARNED"]
        assert _written(mutated, _snapshot()) == [
            "repro.setops.kernels._COUNTERS"
        ]
        reset_kernel_counters()


def _fixture(monkeypatch, source):
    """Load ``source`` as the module ``repro._wcheck`` for one test."""
    module = types.ModuleType("repro._wcheck")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(textwrap.dedent(source), vars(module))
    return module


def _spied_writes(worker, payload):
    """The writes the spy records running ``worker`` over two shards."""
    spy = _Spy()
    spy(worker, payload, [[1], [2]], 2)
    return spy.writes


_ENTRY = "repro._wcheck._worker"


class TestCheckVerdicts:
    """The spy's verdict on small worker modules, one hazard shape each."""

    def test_global_mutation_is_caught(self, monkeypatch):
        w = _fixture(monkeypatch, """
            _CACHE = {}

            def _worker(payload, shard):
                _CACHE[shard[0]] = payload
                return shard
        """)
        assert _spied_writes(w._worker, {}) == {
            (_ENTRY, "repro._wcheck._CACHE")
        }

    def test_global_rebind_is_caught(self, monkeypatch):
        w = _fixture(monkeypatch, """
            _STATE = None

            def _worker(payload, shard):
                global _STATE
                _STATE = shard
                return shard
        """)
        assert _spied_writes(w._worker, {}) == {
            (_ENTRY, "repro._wcheck._STATE")
        }

    def test_write_through_helper_is_caught(self, monkeypatch):
        w = _fixture(monkeypatch, """
            _SEEN = []

            def _worker(payload, shard):
                note(shard)
                return shard

            def note(shard):
                _SEEN.append(shard)
        """)
        assert _spied_writes(w._worker, {}) == {
            (_ENTRY, "repro._wcheck._SEEN")
        }

    def test_write_off_worker_path_is_clean(self, monkeypatch):
        w = _fixture(monkeypatch, """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value

            def _worker(payload, shard):
                return list(shard)
        """)
        w.remember("before", 1)
        assert _spied_writes(w._worker, {}) == set()
        w.remember("after", 2)
        assert w._CACHE == {"before": 1, "after": 2}

    def test_local_shadow_is_clean(self, monkeypatch):
        w = _fixture(monkeypatch, """
            _CACHE = {}

            def _worker(payload, shard):
                _CACHE = {}
                _CACHE[shard[0]] = payload
                return shard
        """)
        assert _spied_writes(w._worker, {}) == set()

    def test_allow_list_excuses_listed_write(self, monkeypatch):
        w = _fixture(monkeypatch, """
            _CACHE = {}
            _OTHER = []

            def _worker(payload, shard):
                _CACHE[shard[0]] = payload
                _OTHER.append(shard)
                return shard
        """)
        writes = _spied_writes(w._worker, {})
        assert len(writes) == 2
        allowed = {"repro._wcheck._CACHE": "per-process by design"}
        assert _disallowed(writes, allowed) == {
            (_ENTRY, "repro._wcheck._OTHER")
        }
        assert _disallowed(writes) == writes

    def test_payload_mutation_is_caught(self, monkeypatch):
        w = _fixture(monkeypatch, """
            def _worker(payload, shard):
                payload["seen"] = shard
                return shard
        """)
        assert _spied_writes(w._worker, {}) == {(_ENTRY, "payload")}

    def test_read_only_payload_is_clean(self, monkeypatch):
        w = _fixture(monkeypatch, """
            def _worker(payload, shard):
                local = list(payload["roots"])
                local.append(shard)
                return local
        """)
        payload = {"roots": [0, 1]}
        assert _spied_writes(w._worker, payload) == set()
        assert payload == {"roots": [0, 1]}


# ----------------------------------------------------------------------
# The pool's own per-process globals
# ----------------------------------------------------------------------


class TestPoolWorkerGlobals:
    """`pool._LOADED` (a worker's token cache) is per-process only."""

    def test_worker_side_writes_are_caught(self, monkeypatch, tmp_path):
        """The pool initializer and the task entry write globals the spy
        would flag on a worker path: they are safe only because they run
        in pool children alone, which the parent-side tests below pin."""
        from repro.resilience import faults

        for module, name in [(pool, "_LOADED"), (faults, "_IN_WORKER")]:
            monkeypatch.setattr(module, name, getattr(module, name))
        path = tmp_path / "call.pkl"
        path.write_bytes(pickle.dumps((_double, {"k": 1})))
        before = _snapshot()
        pool._initializer()
        assert pool._invoke((str(path), 0, [4])) == [4]
        assert sorted(_written(before, _snapshot())) == [
            "repro.parallel.pool._LOADED",
            "repro.resilience.faults._IN_WORKER",
        ]

    def test_parent_globals_untouched_by_pool_run(self):
        assert pool._LOADED is None
        out = run_shards(_double, {"k": 3}, [[1, 2], [3, 4]], 2)
        assert out == [[3, 6], [9, 12]]
        # The payload was loaded in the *children*; the parent's token
        # cache must never have been written.
        assert pool._LOADED is None

    def test_serial_path_never_installs_globals(self):
        out = run_shards(_double, {"k": 2}, [[5]], 1)
        assert out == [[10]]
        assert pool._LOADED is None


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
