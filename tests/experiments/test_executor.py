"""Resumable sweep execution: skip-on-cache-key, observability, provenance."""

import pytest

from repro import count
from repro.bench.runner import clear_cache, configure, reset_stats
from repro.experiments import ResultStore, load_spec, run_sweep
from repro.graph import erdos_renyi


@pytest.fixture(autouse=True)
def _fresh_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


GRAPHS = {"tiny": erdos_renyi(30, 0.3, seed=1)}


def _spec(**sweep):
    base = {
        "name": "exec-test",
        "patterns": ["tc"],
        "graphs": ["tiny"],
        "backends": ["functional", "fingers"],
    }
    base.update(sweep)
    data = {"sweep": base, "configs": {"fingers": {"num_pes": 1}}}
    if "fingers" not in base["backends"]:
        del data["configs"]
    return load_spec(data, available_graphs=["tiny"])


class TestRunSweep:
    def test_executes_every_cell_with_correct_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(_spec(), store=store, graphs=GRAPHS)
        assert outcome.executed == 2 and outcome.resumed == 0
        expected = count(GRAPHS["tiny"], "tc")
        by_backend = {row.backend: row for row in outcome.rows}
        assert by_backend["functional"].count == expected
        assert by_backend["fingers"].count == expected
        assert by_backend["fingers"].cycles > 0
        assert by_backend["functional"].cycles == 0

    def test_rerun_resumes_every_cell(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS)
        again = run_sweep(_spec(), store=store, graphs=GRAPHS)
        assert again.executed == 0
        assert again.resumed == 2
        assert again.rows == ()  # nothing recomputed, nothing appended
        assert len(store.load("exec-test")) == 2

    def test_config_change_is_a_new_cell_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec1 = _spec(backends=["fingers"])
        run_sweep(spec1, store=store, graphs=GRAPHS)
        data = {
            "sweep": {
                "name": "exec-test", "patterns": ["tc"],
                "graphs": ["tiny"], "backends": ["fingers"],
            },
            "configs": {"fingers": {"num_pes": 2}},
        }
        spec2 = load_spec(data, available_graphs=["tiny"])
        outcome = run_sweep(spec2, store=store, graphs=GRAPHS)
        assert outcome.executed == 1 and outcome.resumed == 0

    def test_no_resume_forces_reexecution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS)
        again = run_sweep(_spec(), store=store, graphs=GRAPHS, resume=False)
        assert again.executed == 2
        assert len(store.load("exec-test")) == 4  # append-only re-runs

    def test_rows_carry_provenance_and_signature(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(_spec(), store=store, graphs=GRAPHS)
        for row in outcome.rows:
            assert row.provenance["git_hash"]
            assert row.provenance["hostname"]
            assert row.provenance["timestamp"]
            assert row.provenance["python"]
            assert row.config_signature.endswith(")")
        fingers = next(r for r in outcome.rows if r.backend == "fingers")
        assert "num_pes=1" in fingers.config_signature

    def test_observability_counters(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(_spec(), store=store, graphs=GRAPHS)
        functional = next(
            r for r in outcome.rows if r.backend == "functional"
        )
        assert functional.cache["simulate_calls"] == 1
        assert sum(functional.dispatch.values()) > 0  # kernel dispatches
        for row in outcome.rows:
            assert row.wall_time_s > 0

    def test_functional_config_selects_the_engine(self, tmp_path):
        """``[configs.functional] engine = "recursive"`` runs the oracle:
        its cell tallies per-op merges and no frontier levels."""
        data = {
            "sweep": {
                "name": "exec-test", "patterns": ["tc"],
                "graphs": ["tiny"], "backends": ["functional"],
            },
            "configs": {"functional": {"engine": "recursive"}},
        }
        spec = load_spec(data, available_graphs=["tiny"])
        store = ResultStore(tmp_path / "store")
        (row,) = run_sweep(spec, store=store, graphs=GRAPHS).rows
        assert row.policy == "default"
        assert row.count == count(GRAPHS["tiny"], "tc")
        assert row.dispatch.get("intersect/merge", 0) > 0
        assert not any(key.startswith("frontier/") for key in row.dispatch)

    def test_progress_callback_sees_both_actions(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        events = []

        def progress(cell, action):
            events.append((cell.label, action))

        run_sweep(_spec(), store=store, graphs=GRAPHS, progress=progress)
        run_sweep(_spec(), store=store, graphs=GRAPHS, progress=progress)
        assert [a for _, a in events] == ["run", "run", "resume", "resume"]

    def test_custom_run_name(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(
            _spec(), store=store, graphs=GRAPHS, run="renamed"
        )
        assert outcome.run == "renamed"
        assert store.runs() == ["renamed"]


class TestModelAndMemory:
    def test_process_jobs_default_names_the_sharded_model(self, tmp_path):
        # A spec's jobs=0 under configure(jobs=2) runs the sharded
        # model; its row must say so, and must not resume a later
        # single-chip run of the same cell (or the reverse).
        from repro.graph import barabasi_albert

        graphs = {"ba": barabasi_albert(200, 5, seed=1)}
        spec = load_spec({
            "sweep": {"name": "jobs-model", "patterns": ["tc"],
                      "graphs": ["ba"], "backends": ["fingers"]},
            "configs": {"fingers": {"num_pes": 4}},
        }, available_graphs=["ba"])
        store = ResultStore(tmp_path / "store")
        configure(jobs=2)
        sharded = run_sweep(spec, store=store, graphs=graphs)
        configure(jobs=None)
        plain = run_sweep(spec, store=store, graphs=graphs)
        assert plain.executed == 1 and plain.resumed == 0
        (s_row,), (p_row,) = sharded.rows, plain.rows
        assert (s_row.jobs, p_row.jobs) == (2, None)
        assert s_row.cell_key != p_row.cell_key
        assert p_row.cycles == pytest.approx(6588.0, abs=0.05)
        assert s_row.cycles == pytest.approx(1817.3, abs=0.05)
        assert s_row.counts == p_row.counts
        # The outcome maps the spec's cell to the key it ran under.
        (cell,) = spec.expand()
        assert sharded.keys[cell] == s_row.cell_key
        assert plain.keys[cell] == p_row.cell_key

    def test_jobs_axis_writes_a_row_per_cell(self, tmp_path):
        # jobs=2 and jobs=3 share one sharded result key, but they are
        # two cells of the spec: a fresh store gets a row for each, and
        # a rerun resumes both.
        from repro.graph import barabasi_albert

        graphs = {"ba": barabasi_albert(200, 5, seed=1)}
        spec = load_spec({
            "sweep": {"name": "jobs-axis", "patterns": ["tc", "4cl"],
                      "graphs": ["ba"], "backends": ["functional"],
                      "jobs": [2, 3]},
        }, available_graphs=["ba"])
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(spec, store=store, graphs=graphs)
        assert (outcome.executed, outcome.resumed) == (4, 0)
        rows = store.load("jobs-axis")
        assert sorted((r.pattern, r.jobs) for r in rows) == [
            ("4cl", 2), ("4cl", 3), ("tc", 2), ("tc", 3),
        ]
        by_pattern = {}
        for row in rows:
            by_pattern.setdefault(row.pattern, set()).add(
                (row.cell_key, row.counts)
            )
        assert all(len(keys) == 1 for keys in by_pattern.values())
        again = run_sweep(spec, store=store, graphs=graphs)
        assert (again.executed, again.resumed) == (0, 4)

    def test_memory_variant_is_its_own_cell(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = load_spec({
            "sweep": {"name": "mem", "patterns": ["tc"], "graphs": ["tiny"],
                      "backends": ["fingers"]},
            "configs": {"fingers": [
                {"name": "fast", "num_pes": 1},
                {"name": "slow", "num_pes": 1,
                 "memory": {"dram_latency": 2000,
                            "shared_cache_bytes": 64}},
            ]},
        }, available_graphs=["tiny"])
        fast, slow = run_sweep(spec, store=store, graphs=GRAPHS).rows
        assert fast.cell_key != slow.cell_key
        assert fast.counts == slow.counts
        assert slow.cycles > fast.cycles
        assert "MemoryConfig(" in slow.config_signature
        assert "MemoryConfig(" not in fast.config_signature
        assert slow.extras["shared_miss_rate"] > fast.extras["shared_miss_rate"]
        assert set(fast.extras) == {
            "load_imbalance", "task_group_size", "shared_miss_rate",
            "iu_active_rate", "iu_balance_rate",
        }
