"""BENCHMARK.json, the catalogue and the README agree."""

import json
from pathlib import Path

from catalogue import BENCHMARK_METRICS, END_TO_END, PER_LAYER, WORKLOAD_NAMES
from run import DEFAULT_SECONDS
from workloads import WORKLOADS

E2E = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_catalogue():
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        WORKLOAD_NAMES
    )
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    e2e = {m.name: m for m in END_TO_END}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        BENCHMARK_METRICS
    )
    for m in BENCHMARK["end_to_end"]:
        ref = e2e[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (
            ref.unit, ref.better, ref.bound
        )
    assert BENCHMARK["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in PER_LAYER
    ]


def test_names_are_unique_and_well_formed():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    assert len(PER_LAYER) <= 128


def test_readme_documents_every_metric_and_workload():
    readme = (E2E / "README.md").read_text()
    for name in [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]:
        assert f"`{name}`" in readme, name
    for name in WORKLOAD_NAMES:
        assert f"`{name}`" in readme, name
