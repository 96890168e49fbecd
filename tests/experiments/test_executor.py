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
