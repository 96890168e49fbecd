"""Persistent result cache: keys, round-trips, and invalidation."""

import ast
import hashlib
import json
import pickle
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cache as cache_mod
import repro.keys as keys_mod
from repro.cache import DiskCache, cache_dir, default_cache, graph_fingerprint
from repro.graph import erdos_renyi
from repro.keys import make_key, roots_fingerprint


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

    def test_foreign_key_under_our_name_is_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = make_key(kind="ours")
        entry = {"key": "someone-else", "value": 1}
        cache._path(key).write_bytes(cache_mod._frame(entry))
        hit, _ = cache.get(key)
        assert not hit
        assert not cache._path(key).exists()
        assert cache.quarantined_entries() == []

    def test_doctor_drops_foreign_entry_as_stale(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(make_key(kind="good"), 1)
        foreign = {"key": "someone-else", "value": 2}
        cache._path(make_key(kind="ours")).write_bytes(
            cache_mod._frame(foreign)
        )
        report = cache.doctor()
        assert (report["checked"], report["ok"], report["stale"]) == (2, 1, 1)
        assert report["corrupt"] == 0
        assert len(cache.entries()) == 1

    def test_unwritable_directory_swallowed(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cache = DiskCache(target)
        cache.put(make_key(x=1), "value")  # must not raise
        assert cache.counters.errors == 1


def _real_entry() -> bytes:
    """The bytes ``DiskCache.put`` writes for a real simulated run."""
    from repro.core.backend import get_backend

    backend = get_backend("fingers")
    graph = erdos_renyi(20, 0.3, seed=4)
    result = backend.run(graph, "tc", backend.default_config(units=2))
    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskCache(tmp)
        cache.put("k", result)
        return cache._path("k").read_bytes()


_REAL_ENTRY = _real_entry()


def _assert_corrupt_everywhere(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskCache(tmp)
        cache._path("k").write_bytes(data)
        assert cache.get("k") == (False, None)
        assert cache.counters.quarantined == 1
        cache._path("k").write_bytes(data)
        report = cache.doctor()
        assert (report["checked"], report["corrupt"]) == (1, 1)
        assert cache.entries() == []


class TestCorruptEntries:
    """A damaged entry is a miss, never an exception (module docstring)."""

    @pytest.mark.parametrize("data", [
        # REDUCE on a str: TypeError "'str' object is not callable".
        b"\x80\x04X\x03\x00\x00\x00abc)R.",
        # BINBYTES past sys.maxsize: OverflowError.
        b"\x80\x04\x8e" + (2**64 - 1).to_bytes(8, "little"),
        # BINBYTES8 of 2**62 bytes: MemoryError.
        b"\x80\x04\x8e" + (2**62).to_bytes(8, "little"),
    ], ids=["type-error", "overflow-error", "memory-error"])
    def test_unpickling_errors_are_misses(self, data):
        _assert_corrupt_everywhere(data)

    def test_real_entry_is_a_hit(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache._path("k").write_bytes(_REAL_ENTRY)
        hit, value = cache.get("k")
        assert hit and value.backend == "fingers"
        assert cache.doctor()["ok"] == 1

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        flips=st.dictionaries(
            st.integers(0, len(_REAL_ENTRY) - 1), st.integers(1, 255),
            max_size=4,
        ),
        keep=st.integers(0, len(_REAL_ENTRY)),
    )
    def test_flipped_or_truncated_entry_is_a_miss(self, flips, keep):
        data = bytearray(_REAL_ENTRY)
        for index, mask in flips.items():
            data[index] ^= mask
        data = bytes(data[:keep])
        if data == _REAL_ENTRY:
            return
        _assert_corrupt_everywhere(data)


class TestModelDigest:
    def test_mixed_into_every_backend_key(self, monkeypatch):
        from repro.core.backend import backend_names, get_backend

        graph = erdos_renyi(20, 0.3, seed=4)

        def keys():
            return [
                get_backend(name).cache_key(graph, "tc", None)
                for name in backend_names()
            ]

        before = keys()
        monkeypatch.setattr(keys_mod, "model_digest", lambda: "edited")
        assert all(a != b for a, b in zip(before, keys()))

    def test_computed_once_per_process(self, monkeypatch):
        from repro.core.backend import get_backend

        calls = []

        def counting(package, memo=None):
            calls.append(package)
            return "digest"

        monkeypatch.setattr(keys_mod, "_closure_digest", counting)
        keys_mod.model_digest.cache_clear()
        try:
            graph = erdos_renyi(20, 0.3, seed=4)
            backend = get_backend("fingers")
            for pattern in ("tc", "tt", "cyc"):
                backend.cache_key(graph, pattern, None)
            assert calls == [Path(keys_mod.__file__).resolve().parent]
        finally:
            keys_mod.model_digest.cache_clear()

    def test_key_recipe_is_in_the_closure_and_the_disk_cache_is_not(
        self, tmp_path
    ):
        package = Path(keys_mod.__file__).resolve().parent
        leaf = ast.parse((package / "keys.py").read_bytes())
        assert keys_mod._import_specs(leaf) == []
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = keys_mod._closure_digest(copy)
        with (copy / "cache.py").open("a") as handle:
            handle.write("\n_EDITED = True\n")
        assert keys_mod._closure_digest(copy) == before
        with (copy / "keys.py").open("a") as handle:
            handle.write("\n_EDITED = True\n")
        assert keys_mod._closure_digest(copy) != before


_BACKENDS = '''"""Backends."""
from repro.hw.chip import run_chip


def simulate():
    from repro.sw import miner
    return run_chip() + miner.LATENCY
'''

_CHIP = '''"""The chip model."""
# Cycles per task.
CYCLES = 4


def run_chip():
    """Cycles of one run."""
    return CYCLES
'''


def _package(tmp_path: Path, chip: str = _CHIP) -> Path:
    """A three-module stand-in for the ``repro`` package: ``core.backends``
    imports ``hw.chip`` at module level and ``sw.miner`` in a function;
    ``experiments.store`` is imported by nothing."""
    files = {
        "core/backends.py": _BACKENDS,
        "hw/chip.py": chip,
        "sw/miner.py": "LATENCY = 2\n",
        "experiments/store.py": "SCHEMA = 1\n",
    }
    root = tmp_path / "repro"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


class TestNormalization:
    """What :func:`repro.keys.model_digest` sees of a module's source."""

    def _digest(self, tmp_path, chip=_CHIP):
        return keys_mod._closure_digest(_package(tmp_path, chip))

    def test_changed_constant_changes_digest(self, tmp_path):
        edited = _CHIP.replace("CYCLES = 4", "CYCLES = 5")
        assert self._digest(tmp_path / "a") != self._digest(
            tmp_path / "b", edited
        )

    @pytest.mark.parametrize("edit", [
        ("# Cycles per task.", "# Cycles per task, as measured."),
        ("# Cycles per task.\n", ""),
        ('"""The chip model."""', '"""The chip model.\n\nRewritten."""'),
        ('    """Cycles of one run."""\n', ""),
        ("    return CYCLES", "    return (\n        CYCLES\n    )"),
        ("CYCLES = 4\n", "CYCLES = 4\n\n\n"),
    ], ids=["comment", "comment-removed", "module-docstring",
            "function-docstring-removed", "line-breaks", "blank-lines"])
    def test_comments_docstrings_and_layout_do_not(self, tmp_path, edit):
        edited = _CHIP.replace(*edit)
        assert edited != _CHIP
        assert self._digest(tmp_path / "a") == self._digest(
            tmp_path / "b", edited
        )

    def test_rendering_is_pinned(self):
        # A tuple loop target and an f-string with nested quotes: the
        # constructs ast.unparse renders differently on 3.10, 3.11 and
        # 3.12.  This text must be the same on every supported Python,
        # or committed rows stop resuming on some of them.
        source = (
            'def f(xs):\n    """Doc."""\n'
            '    for a, b in xs:  # note\n'
            '        yield f"{a[\'k\']!r:>4}", (\n            b)\n'
        )
        assert keys_mod._normalized(ast.parse(source)) == (
            "Module(body=[FunctionDef(name='f', args=arguments(args=["
            "arg(arg='xs')]), body=[For(target=Tuple(elts=[Name(id='a', "
            "ctx=Store()), Name(id='b', ctx=Store())], ctx=Store()), "
            "iter=Name(id='xs', ctx=Load()), body=[Expr(value=Yield("
            "value=Tuple(elts=[JoinedStr(values=[FormattedValue(value="
            "Subscript(value=Name(id='a', ctx=Load()), slice=Constant("
            "value='k'), ctx=Load()), conversion=114, format_spec="
            "JoinedStr(values=[Constant(value='>4')]))]), Name(id='b', "
            "ctx=Load())], ctx=Load())))])])])"
        )

    def test_function_level_import_is_followed(self, tmp_path):
        root = _package(tmp_path)
        before = keys_mod._closure_digest(root)
        (root / "sw/miner.py").write_text("LATENCY = 3\n")
        assert keys_mod._closure_digest(root) != before

    def test_unimported_module_is_outside(self, tmp_path):
        root = _package(tmp_path)
        before = keys_mod._closure_digest(root)
        (root / "experiments/store.py").write_text("SCHEMA = 2\n")
        assert keys_mod._closure_digest(root) == before


@pytest.fixture
def fresh_digest(tmp_path, monkeypatch):
    """``model_digest`` recomputed in a private cache directory; the
    memo file it reads and writes."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    keys_mod.model_digest.cache_clear()
    yield tmp_path / "cache" / keys_mod._DIGEST_MEMO
    keys_mod.model_digest.cache_clear()


def _digest_now():
    keys_mod.model_digest.cache_clear()
    return keys_mod.model_digest()


def _with_spec(spec):
    """A valid memo but for one module's import spec."""
    def build(good):
        modules = dict(good["modules"])
        key, facts = next(iter(modules.items()))
        modules[key] = [facts[0], [spec]]
        return json.dumps({"format": 1, "modules": modules}).encode()
    return build


_MALFORMED = {
    "binary": lambda good: b"\x00\xffgarbage",
    "truncated": lambda good: b'{"format": 1, "modules": {',
    "list": lambda good: b"[]",
    "format": lambda good: b'{"format": 99, "modules": {}}',
    "modules-list": lambda good: b'{"format": 1, "modules": []}',
    "short-digest": lambda good: (
        b'{"format": 1, "modules": {"abc": ["00", []]}}'
    ),
    "spec-names-not-a-list": _with_spec(["repro.x", "y"]),
    "path-like-module": _with_spec(["repro.a/../b", None]),
}


class TestDigestMemo:
    """The per-module facts memo behind :func:`model_digest`."""

    def test_memo_is_written_then_reused_without_parsing(
        self, fresh_digest, monkeypatch
    ):
        digest = _digest_now()
        memo = json.loads(fresh_digest.read_text())
        assert memo["format"] == keys_mod._DIGEST_MEMO_FORMAT
        assert len(memo["modules"]) >= 30
        written = fresh_digest.stat().st_mtime_ns

        def no_parse(data):
            raise AssertionError("a memo hit must not parse")

        monkeypatch.setattr(keys_mod, "_module_facts", no_parse)
        assert _digest_now() == digest
        # Nothing changed, so nothing was rewritten.
        assert fresh_digest.stat().st_mtime_ns == written

    def test_memo_does_not_change_the_digest(self, tmp_path):
        root = _package(tmp_path)
        memo = {}
        cold = keys_mod._closure_digest(root, memo)
        assert cold == keys_mod._closure_digest(root)
        assert len(memo) == 3  # backends, chip, miner; not the store
        assert keys_mod._closure_digest(root, dict(memo)) == cold

    def test_edited_module_misses_and_stale_facts_are_pruned(
        self, tmp_path
    ):
        root = _package(tmp_path)
        memo = {}
        before = keys_mod._closure_digest(root, memo)
        old_keys = set(memo)
        (root / "hw/chip.py").write_text(_CHIP.replace("4", "5"))
        after = keys_mod._closure_digest(root, memo)
        assert after != before
        assert len(memo) == 3 and len(set(memo) - old_keys) == 1

    def test_import_targets_are_resolved_afresh(self, tmp_path):
        # The memo keeps import statements, not their targets: a module
        # that appears later is followed although no memoized file
        # changed.
        root = _package(tmp_path)
        (root / "hw/chip.py").write_text(
            "from repro.hw import extra\n" + _CHIP
        )
        memo = {}
        before = keys_mod._closure_digest(root, memo)
        (root / "hw/extra.py").write_text("X = 1\n")
        assert keys_mod._closure_digest(root, memo) != before
        assert len(memo) == 4

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_memo_recomputes(self, fresh_digest, case):
        digest = _digest_now()
        good = json.loads(fresh_digest.read_text())
        fresh_digest.write_bytes(_MALFORMED[case](good))
        assert keys_mod._read_memo(fresh_digest) == {}
        assert _digest_now() == digest
        # ...and the rewritten memo is whole again.
        assert json.loads(fresh_digest.read_text()) == good

    def test_entries_clear_and_doctor_ignore_the_memo(self, fresh_digest):
        _digest_now()
        cache = DiskCache(fresh_digest.parent)
        assert cache.entries() == []
        assert cache.clear() == 0
        assert cache.doctor()["checked"] == 0
        assert fresh_digest.is_file()


class TestDefaultCache:
    def test_tracks_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "one"))
        assert default_cache().directory == tmp_path / "one"
        assert cache_dir() == tmp_path / "one"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "two"))
        assert default_cache().directory == tmp_path / "two"
