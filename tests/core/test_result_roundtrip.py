"""RunResult round-trips through the persistent disk cache unchanged,
and a model-code change invalidates stale entries instead of serving
them.
"""

import pickle
import shutil
from pathlib import Path

import pytest

import repro.keys as keys_mod
from repro.bench.runner import (
    clear_cache,
    configure,
    reset_stats,
    run_backend_cached,
    runner_stats,
)
from repro.cache import default_cache
from repro.core import get_backend
from repro.core.result import RunResult
from repro.graph import erdos_renyi


@pytest.fixture(autouse=True)
def _fresh_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


def _graph():
    return erdos_renyi(25, 0.3, seed=21)


class TestDiskRoundTrip:
    @pytest.mark.parametrize("name", ["fingers", "flexminer", "software"])
    def test_write_evict_read_equal(self, name):
        g = _graph()
        backend = get_backend(name)
        cfg = backend.default_config(units=2)
        first = run_backend_cached(backend, g, "g", "tc", cfg)
        clear_cache()  # evict the in-process memo; disk survives
        second = run_backend_cached(backend, g, "g", "tc", cfg)
        assert second is not first
        assert second == first
        stats = runner_stats()
        assert stats.simulate_calls == 1
        assert stats.disk_hits == 1

    def test_every_section_survives_pickling(self):
        g = _graph()
        backend = get_backend("fingers")
        res = backend.run(g, "tc", backend.default_config(units=2))
        clone = pickle.loads(pickle.dumps(res))
        assert clone == res
        assert clone.shared_cache == res.shared_cache
        assert clone.dram == res.dram
        assert clone.noc == res.noc
        assert clone.num_pes == res.num_pes
        assert clone.combined == res.combined
        assert clone.counts_by_name == res.counts_by_name

    def test_sharded_result_round_trips(self):
        g = _graph()
        backend = get_backend("software")
        res = backend.run(g, "tc", backend.default_config(units=2), jobs=2)
        clone = pickle.loads(pickle.dumps(res))
        assert clone == res
        assert clone.num_shards == res.num_shards
        assert clone.total_steals == res.total_steals


class TestVersionInvalidation:
    def test_model_digest_change_misses(self, monkeypatch):
        g = _graph()
        backend = get_backend("fingers")
        cfg = backend.default_config(units=2)
        run_backend_cached(backend, g, "g", "tc", cfg)
        clear_cache()
        monkeypatch.setattr(keys_mod, "model_digest", lambda: "edited")
        run_backend_cached(backend, g, "g", "tc", cfg)
        stats = runner_stats()
        assert stats.simulate_calls == 2
        assert stats.disk_hits == 0

    @pytest.mark.parametrize("module, covered", [
        ("cache.py", False),  # the entry frame checks itself
        ("core/result.py", True),  # RunResult
        ("experiments/store.py", False),  # rows: STORE_SCHEMA_VERSION
    ], ids=["cache", "result", "store"])
    def test_entry_format_modules_are_in_the_digest(
        self, tmp_path, module, covered
    ):
        package = Path(keys_mod.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = keys_mod._closure_digest(copy)
        assert before == keys_mod.model_digest()
        with (copy / module).open("a") as handle:
            handle.write("\n_EDITED = True\n")
        assert (keys_mod._closure_digest(copy) != before) is covered

    def test_corrupt_entry_degrades_to_miss(self):
        g = _graph()
        backend = get_backend("fingers")
        cfg = backend.default_config(units=2)
        run_backend_cached(backend, g, "g", "tc", cfg)
        clear_cache()
        cache = default_cache()
        for path in cache.entries():
            path.write_bytes(b"not a pickle")
        run_backend_cached(backend, g, "g", "tc", cfg)
        stats = runner_stats()
        assert stats.simulate_calls == 2

    def test_disk_entry_is_a_run_result(self):
        g = _graph()
        backend = get_backend("software")
        cfg = backend.default_config(units=2)
        key = backend.cache_key(g, "tc", cfg)
        run_backend_cached(backend, g, "g", "tc", cfg)
        hit, value = default_cache().get(key)
        assert hit
        assert isinstance(value, RunResult)
        assert value.backend == "software"
