"""``repro.bench.paper.run_paper``: the store run behind each paper experiment."""

from repro.bench.paper import run_paper, sweep_spec
from repro.bench.runner import configure
from repro.experiments.store import ResultStore


def test_fresh_run_writes_a_cell_two_specs_share_once(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    first = sweep_spec("shared", ["tc"], ["er120"], {"functional": {}})
    second = sweep_spec("shared", ["tc", "4cl"], ["er120"], {"functional": {}})
    configure(disk_cache=False)
    try:
        row = run_paper("shared", first, second)
    finally:
        configure(disk_cache=True)

    rows = ResultStore().load("paper-shared")
    assert sorted(r.pattern for r in rows) == ["4cl", "tc"]
    assert row("tc", "er120", "functional").count == next(
        r.count for r in rows if r.pattern == "tc"
    )
