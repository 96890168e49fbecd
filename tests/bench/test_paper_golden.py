"""Every ``repro bench`` text renders from the committed ``paper-*`` runs.

Each experiment resumes all of its cells from a copy of the committed
store (``benchmarks/results/store/paper-*.jsonl``): no simulator call,
no appended row, no run file read twice, and a text byte-identical to
``benchmarks/results/paper/<name>.txt``.  A cold run against the same
files is the CI ``paper-golden`` job (``tools/paper_golden.py``).

Every row is keyed on the model code (``repro.keys.model_digest``), so
an edit to a module the backends import fails here until the
``paper-*`` runs are regenerated in the same commit (:data:`REGENERATE`).
Every cell the committed rows resume never reaches the run cache, so the
first cell that does fails its experiment at once instead of simulating
it and every cell after it cold.
"""

import shutil
from pathlib import Path

import pytest

import repro.bench.runner as runner
from repro.bench import EXPERIMENTS
from repro.bench.runner import (
    RunnerStats,
    clear_cache,
    configure,
    reset_stats,
    runner_stats,
)
from repro.experiments.store import ResultStore

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

REGENERATE = (
    "if the model code changed since the committed paper-* rows were made, "
    "their keys (repro.keys.model_digest) no longer match; regenerate "
    "them in the same commit: "
    "export PYTHONPATH=src REPRO_CACHE_DIR=$(mktemp -d) "
    "REPRO_RESULTS_DIR=$(mktemp -d); "
    "python -m repro bench --no-cache > bench.txt; "
    'python tools/paper_golden.py bench.txt "$REPRO_RESULTS_DIR/store"; '
    'cp "$REPRO_RESULTS_DIR"/store/paper-*.jsonl benchmarks/results/store/'
)


@pytest.fixture
def committed_store(tmp_path, monkeypatch):
    store = tmp_path / "store"
    store.mkdir()
    for run in (RESULTS / "store").glob("paper-*.jsonl"):
        shutil.copy(run, store / run.name)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield store
    clear_cache()
    reset_stats()


def test_every_experiment_has_a_golden():
    goldens = sorted(p.stem for p in (RESULTS / "paper").glob("*.txt"))
    assert goldens == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_renders_golden_from_committed_rows(name, committed_store,
                                            monkeypatch):
    loads = []
    load = ResultStore.load

    def counted_load(self, run, **kwargs):
        loads.append(run)
        return load(self, run, **kwargs)

    monkeypatch.setattr(ResultStore, "load", counted_load)

    def key_miss(key, compute, use_disk):
        pytest.fail(
            f"{name}: cell {key[:16]} is not in the committed rows; "
            + REGENERATE
        )

    monkeypatch.setattr(runner, "_cached", key_miss)
    before = {p.name: p.read_bytes() for p in committed_store.iterdir()}
    text = EXPERIMENTS[name]().render() + "\n"
    stats = runner_stats()
    assert stats == RunnerStats(), (
        f"{name} made {stats.simulate_calls} simulator call(s) and "
        f"{stats.disk_hits} disk hit(s) from the committed rows; "
        + REGENERATE
    )
    assert len(loads) == len(set(loads))  # each run file read once
    after = {p.name: p.read_bytes() for p in committed_store.iterdir()}
    assert after == before  # zero rows appended
    golden = RESULTS / "paper" / f"{name}.txt"
    assert text == golden.read_text(encoding="utf-8")
