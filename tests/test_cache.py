"""Persistent result cache: keys, round-trips, and invalidation."""

import hashlib
import pickle
from types import SimpleNamespace

import pytest

import repro.cache as cache_mod
from repro.cache import (
    SCHEMA_VERSION,
    DiskCache,
    cache_dir,
    default_cache,
    graph_fingerprint,
    make_key,
    roots_fingerprint,
)
from repro.graph import erdos_renyi


class TestFingerprints:
    def test_graph_fingerprint_content_based(self):
        a = erdos_renyi(30, 0.3, seed=1)
        b = erdos_renyi(30, 0.3, seed=1)
        c = erdos_renyi(30, 0.3, seed=2)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)

    def test_graph_fingerprint_hashes_an_instance_once(self, monkeypatch):
        import repro.graph.csr as csr_mod
        from repro.core.backend import get_backend

        calls = []

        def counting_sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(
            csr_mod, "hashlib", SimpleNamespace(sha256=counting_sha256)
        )
        graph = erdos_renyi(30, 0.3, seed=1)
        backend = get_backend("functional")
        config = backend.default_config()
        keys = {
            backend.cache_key(graph, pattern, config, roots=[v])
            for pattern in ("tc", "tt", "cyc")
            for v in range(5)
        }
        assert len(keys) == 15
        assert len(calls) == 1

    def test_graph_fingerprint_is_sha256_of_csr_arrays(self):
        graph = erdos_renyi(30, 0.3, seed=1)
        first = graph_fingerprint(graph)
        fresh = hashlib.sha256(
            graph.indptr.tobytes() + b"|" + graph.indices.tobytes()
        ).hexdigest()
        assert first == fresh
        assert graph_fingerprint(graph) == fresh  # memoized value

    def test_unpickled_graph_recomputes_fingerprint(self):
        graph = erdos_renyi(30, 0.3, seed=1)
        expected = graph_fingerprint(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._fingerprint_cache is None
        assert graph_fingerprint(clone) == expected
        assert clone._fingerprint_cache == expected

    def test_roots_none_is_all(self):
        assert roots_fingerprint(None) == "all"

    def test_roots_full_array_no_summary_collision(self):
        # Regression: the old (len, first, last) summary keyed these two
        # different root sets identically and returned the wrong result.
        a = [0, 1, 2, 3, 9]
        b = [0, 4, 5, 6, 9]
        assert len(a) == len(b) and a[0] == b[0] and a[-1] == b[-1]
        assert roots_fingerprint(a) != roots_fingerprint(b)

    def test_roots_order_matters(self):
        assert roots_fingerprint([1, 2, 3]) != roots_fingerprint([3, 2, 1])

    def test_roots_accepts_iterator(self):
        assert roots_fingerprint(iter([1, 2])) == roots_fingerprint([1, 2])


class TestMakeKey:
    def test_deterministic(self):
        assert make_key(a=1, b="x") == make_key(a=1, b="x")

    def test_argument_order_irrelevant(self):
        assert make_key(a=1, b=2) == make_key(b=2, a=1)

    def test_distinct_parts_distinct_keys(self):
        assert make_key(a=1) != make_key(a=2)
        assert make_key(a=1) != make_key(b=1)

    def test_schema_version_mixed_in(self, monkeypatch):
        before = make_key(a=1)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert make_key(a=1) != before


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = make_key(kind="t", x=1)
        assert cache.get(key) == (False, None)
        cache.put(key, {"answer": 42})
        hit, value = cache.get(key)
        assert hit and value == {"answer": 42}
        assert cache.counters.hits == 1
        assert cache.counters.misses == 1
        assert cache.counters.stores == 1

    def test_entries_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(3):
            cache.put(make_key(i=i), i)
        assert len(cache.entries()) == 3
        assert cache.size_bytes() > 0
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_corrupted_entry_is_miss_and_removed(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = make_key(kind="corrupt")
        cache.put(key, "good")
        path = cache._path(key)
        path.write_bytes(b"\x80\x04 this is not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert not path.exists()
        assert cache.counters.errors == 1
        # Recompute and repopulate transparently.
        cache.put(key, "recomputed")
        assert cache.get(key) == (True, "recomputed")

    def test_schema_bump_invalidates(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = make_key(kind="schema")
        path = cache._path(key)
        tmp_path.mkdir(exist_ok=True)
        stale = {"schema": SCHEMA_VERSION - 1, "key": key, "value": "old"}
        path.write_bytes(pickle.dumps(stale))
        hit, _ = cache.get(key)
        assert not hit
        assert not path.exists()

    def test_foreign_key_under_our_name_is_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = make_key(kind="ours")
        entry = {"schema": SCHEMA_VERSION, "key": "someone-else", "value": 1}
        cache._path(key).write_bytes(pickle.dumps(entry))
        hit, _ = cache.get(key)
        assert not hit

    def test_unwritable_directory_swallowed(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cache = DiskCache(target)
        cache.put(make_key(x=1), "value")  # must not raise
        assert cache.counters.errors == 1


class TestDefaultCache:
    def test_tracks_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "one"))
        assert default_cache().directory == tmp_path / "one"
        assert cache_dir() == tmp_path / "one"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "two"))
        assert default_cache().directory == tmp_path / "two"
