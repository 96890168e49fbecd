"""Result-store round trips, forward compatibility, and hygiene."""

import json

import pytest

from repro.experiments import ResultRow, ResultStore
from repro.experiments.store import STORE_SCHEMA_VERSION


def _row(**overrides):
    fields = dict(
        run="r1",
        cell_key="key-1",
        pattern="tc",
        graph="As",
        backend="functional",
        count=8017,
        counts=(8017,),
        cycles=0.0,
        wall_time_s=0.01,
        provenance={"git_hash": "abc", "timestamp": "2026-01-01T00:00:00"},
    )
    fields.update(overrides)
    return ResultRow(**fields)


class TestRow:
    def test_json_roundtrip_is_exact(self):
        row = _row(metrics={"speedup": 2.0}, dispatch={"merge": 3})
        assert ResultRow.from_json(row.to_json()) == row

    def test_rows_carry_the_schema_version(self):
        record = json.loads(_row().to_json())
        assert record["schema"] == STORE_SCHEMA_VERSION

    def test_newer_schema_rows_are_skipped(self):
        record = json.loads(_row().to_json())
        record["schema"] = STORE_SCHEMA_VERSION + 1
        assert ResultRow.from_json(json.dumps(record)) is None

    def test_malformed_lines_are_skipped(self):
        assert ResultRow.from_json("not json {") is None
        assert ResultRow.from_json('"a bare string"') is None
        assert ResultRow.from_json('{"schema": 1}') is None
        # A complete row whose counts are not a list of integers.
        record = json.loads(_row().to_json())
        for counts in (5, None, "12", {"tc": 1}, [1, "2"], [1.5], [True]):
            record["counts"] = counts
            assert ResultRow.from_json(json.dumps(record)) is None

    @pytest.mark.parametrize("name, value", [
        ("run", 7), ("cell_key", None), ("pattern", ["tc"]), ("graph", 1.0),
        ("backend", True), ("policy", {}), ("schedule", 0), ("workload", 3),
        ("config_signature", None), ("status", 7),
        ("count", "7"), ("count", True), ("count", 7.0), ("count", None),
        ("cycles", "abc"), ("cycles", None), ("cycles", False),
        ("wall_time_s", "0.1"), ("wall_time_s", True),
        ("jobs", "2"), ("jobs", 2.0), ("jobs", False),
        ("error", "boom"), ("retry", []), ("metrics", 1.0), ("extras", [1]),
        ("dispatch", None), ("cache", "x"), ("provenance", [["a", 1]]),
    ])
    def test_wrong_typed_fields_are_skipped(self, name, value):
        record = json.loads(_row().to_json())
        record[name] = value
        assert ResultRow.from_json(json.dumps(record)) is None

    @pytest.mark.parametrize("name, value", [
        ("cycles", 12), ("wall_time_s", 0), ("jobs", None), ("jobs", 2),
    ])
    def test_numeric_fields_take_either_json_number(self, name, value):
        record = json.loads(_row().to_json())
        record[name] = value
        assert getattr(ResultRow.from_json(json.dumps(record)), name) == value

    def test_missing_counts_defaults_to_empty(self):
        record = json.loads(_row().to_json())
        del record["counts"]
        assert ResultRow.from_json(json.dumps(record)).counts == ()

    def test_identity_excludes_measurement_fields(self):
        a = _row(cycles=1.0, wall_time_s=0.5)
        b = _row(cycles=9.0, wall_time_s=5.0, cell_key="other")
        assert a.identity() == b.identity()


class TestStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        rows = [_row(), _row(cell_key="key-2", pattern="4cl")]
        store.append(rows)
        assert store.load("r1") == rows
        assert store.runs() == ["r1"]

    def test_append_is_append(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_row())
        store.append(_row(cell_key="key-2"))
        assert len(store.load("r1")) == 2

    def test_load_skips_corrupt_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_row())
        path = tmp_path / "r1.jsonl"
        bad_counts = json.loads(_row(cell_key="key-bad").to_json())
        bad_counts["counts"] = 5
        with path.open("a", encoding="utf-8") as handle:
            handle.write("corrupt {{{ line\n")
            handle.write("\n")
            handle.write(json.dumps(bad_counts) + "\n")
        store.append(_row(cell_key="key-2"))
        keys = [row.cell_key for row in store.load("r1")]
        assert keys == ["key-1", "key-2"]

    def test_missing_run_lists_known_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_row())
        with pytest.raises(FileNotFoundError, match="r1"):
            store.load("nope")

    def test_statuses_last_row_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.statuses("r1") == {}  # absent run is not an error
        store.append(_row(status="failed"))
        store.append(_row())
        assert store.statuses("r1") == {("key-1", None): "ok"}

    def test_run_names_are_validated(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("../escape", "a/b", "", ".hidden"):
            with pytest.raises(ValueError, match="run name"):
                store.load(bad)

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_row())
        assert store.delete("r1") is True
        assert store.delete("r1") is False
        assert store.runs() == []

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        store = ResultStore()
        assert store.root == tmp_path / "store"
