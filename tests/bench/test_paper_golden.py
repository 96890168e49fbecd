"""Every ``repro bench`` text renders from the committed ``paper-*`` runs.

Each experiment resumes all of its cells from a copy of the committed
store (``benchmarks/results/store/paper-*.jsonl``): no simulator call,
no appended row, no run file read twice, and a text byte-identical to
``benchmarks/results/paper/<name>.txt``.  A cold run against the same
files is the CI ``paper-golden`` job (``tools/paper_golden.py``).
"""

import shutil
from pathlib import Path

import pytest

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
    before = {p.name: p.read_bytes() for p in committed_store.iterdir()}
    text = EXPERIMENTS[name]().render() + "\n"
    assert runner_stats() == RunnerStats()  # zero simulator calls
    assert len(loads) == len(set(loads))  # each run file read once
    after = {p.name: p.read_bytes() for p in committed_store.iterdir()}
    assert after == before  # zero rows appended
    golden = RESULTS / "paper" / f"{name}.txt"
    assert text == golden.read_text(encoding="utf-8")
