"""Runtime determinism sanitizer: probes, traces, and the double-run
comparator wired into the sweep executor."""

import numpy as np
import pytest

from repro import sanitize
from repro.bench.runner import clear_cache, configure, reset_stats
from repro.experiments import ResultStore, load_spec, run_sweep
from repro.experiments.executor import sanitized_cell_check
from repro.graph import erdos_renyi
from repro.graph.generators import barabasi_albert


@pytest.fixture(autouse=True)
def _fresh_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


class TestTraceMachinery:
    def test_emit_is_noop_outside_capture(self):
        sanitize.emit("kernel", "intersect/merge")
        with sanitize.capture() as trace:
            pass
        assert len(trace) == 0

    def test_capture_records_events_in_order(self):
        with sanitize.capture() as trace:
            sanitize.emit("a", "one", 1)
            sanitize.emit("b", "two")
        assert [e.kind for e in trace.events] == ["a", "b"]
        assert trace.events[0].digest != ""
        assert trace.events[1].digest == ""  # presence-only

    def test_captures_do_not_nest(self):
        with sanitize.capture():
            with pytest.raises(RuntimeError, match="nest"):
                with sanitize.capture():
                    pass

    def test_capture_disarms_after_exception(self):
        with pytest.raises(ValueError):
            with sanitize.capture():
                raise ValueError("boom")
        assert not sanitize.is_active()

    def test_payload_digest_array_content(self):
        a = np.array([1, 2, 3], dtype=np.int32)
        b = np.array([1, 2, 3], dtype=np.int32)
        c = np.array([1, 2, 4], dtype=np.int32)
        wide = np.array([1, 2, 3], dtype=np.int64)
        assert sanitize.payload_digest(a) == sanitize.payload_digest(b)
        assert sanitize.payload_digest(a) != sanitize.payload_digest(c)
        # dtype is part of identity: int32 vs int64 must differ.
        assert sanitize.payload_digest(a) != sanitize.payload_digest(wide)

    def test_payload_digest_dict_order_sensitive(self):
        """Key order is deliberately part of the digest — iteration
        order drift is a defect class the sanitizer exists to catch."""
        ab = {"a": 1, "b": 2}
        ba = {"b": 2, "a": 1}
        assert sanitize.payload_digest(ab) != sanitize.payload_digest(ba)

    def test_compare_traces_reports_divergence(self):
        with sanitize.capture() as first:
            sanitize.emit("kernel", "intersect/merge")
            sanitize.emit("rng", "seed", 1)
        with sanitize.capture() as second:
            sanitize.emit("kernel", "intersect/merge")
            sanitize.emit("rng", "seed", 2)
        problems = sanitize.compare_traces(first, second)
        assert len(problems) == 1
        assert "event 1" in problems[0]

    def test_compare_traces_reports_length_mismatch(self):
        with sanitize.capture() as first:
            sanitize.emit("kernel", "a")
        with sanitize.capture() as second:
            pass
        problems = sanitize.compare_traces(first, second)
        assert any("event counts differ" in p for p in problems)

    def test_identical_traces_compare_clean(self):
        with sanitize.capture() as first:
            sanitize.emit("kernel", "a", [1, 2])
        with sanitize.capture() as second:
            sanitize.emit("kernel", "a", [1, 2])
        assert sanitize.compare_traces(first, second) == []

    def test_env_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.env_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.env_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.env_enabled()


class TestProbes:
    def test_kernel_dispatch_probe(self):
        from repro.pattern.plan import OpKind
        from repro.setops.kernels import KernelContext

        a = np.array([1, 2, 3, 4], dtype=np.int32)
        b = np.array([2, 4, 6], dtype=np.int32)
        with sanitize.capture() as trace:
            KernelContext().apply_op(OpKind.INTERSECT, a, b)
        kinds = [e.kind for e in trace.events]
        assert "kernel" in kinds

    def test_generator_rng_probe(self):
        with sanitize.capture() as trace:
            barabasi_albert(20, 2, seed=7)
        rng_events = [e for e in trace.events if e.kind == "rng"]
        assert [e.label for e in rng_events] == ["barabasi_albert"]
        assert rng_events[0].digest == sanitize.payload_digest(7)

    def test_pool_probe_records_shards(self):
        from repro.core.sharded import per_root_counts_parallel
        from repro.mining.api import plan_for

        graph = erdos_renyi(20, 0.3, seed=3)
        plan = plan_for("tc")
        with sanitize.capture() as trace:
            per_root_counts_parallel(graph, plan, None, 2)
        pool_events = [e for e in trace.events if e.kind == "pool"]
        assert pool_events and pool_events[0].digest != ""


GRAPHS = {"tiny": erdos_renyi(30, 0.3, seed=1)}


def _spec():
    data = {
        "sweep": {
            "name": "sanitize-test",
            "patterns": ["tc"],
            "graphs": ["tiny"],
            "backends": ["functional", "fingers"],
        },
        "configs": {"fingers": {"num_pes": 1}},
    }
    return load_spec(data, available_graphs=["tiny"])


class TestSanitizedSweep:
    def test_sanitized_sweep_passes_on_deterministic_backends(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(
            _spec(), store=store, graphs=GRAPHS, sanitize=True
        )
        assert outcome.executed == 2

    def test_env_var_arms_the_sweep(self, tmp_path, monkeypatch):
        """REPRO_SANITIZE=1 takes effect without the keyword."""
        calls = []
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        import repro.experiments.executor as ex

        real = ex.sanitized_cell_check
        monkeypatch.setattr(
            ex, "sanitized_cell_check",
            lambda *a, **kw: (calls.append(a), real(*a, **kw))[1],
        )
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS)
        assert len(calls) == 2

    def test_divergent_backend_is_caught(self):
        """A backend that draws from global RNG state diverges between
        the two sanitized executions and must be flagged."""
        from repro.core.backend import get_backend
        from repro.experiments.spec import Cell

        backend = get_backend("functional")
        config = backend.default_config()
        graph = GRAPHS["tiny"]
        cell = Cell(pattern="tc", graph="tiny", backend="functional")

        ticker = {"n": 0}
        real_run = backend.run

        def noisy_run(*args, **kwargs):
            ticker["n"] += 1
            sanitize.emit("rng", "hidden-global-state", ticker["n"])
            return real_run(*args, **kwargs)

        backend_like = type(
            "Noisy", (), {"run": staticmethod(noisy_run)}
        )()
        with pytest.raises(sanitize.SanitizerError, match="diverged"):
            sanitized_cell_check(backend_like, graph, cell, config, None)

    def test_result_mismatch_is_caught(self):
        from repro.experiments.spec import Cell

        class FlakyResult:
            def __init__(self, n):
                self.count = n
                self.counts = (n,)
                self.cycles = 0.0

        class FlakyBackend:
            def __init__(self):
                self.n = 0

            def run(self, *args, **kwargs):
                self.n += 1
                return FlakyResult(self.n)

        cell = Cell(pattern="tc", graph="tiny", backend="functional")
        with pytest.raises(sanitize.SanitizerError, match="results differ"):
            sanitized_cell_check(
                FlakyBackend(), GRAPHS["tiny"], cell, None, None
            )
