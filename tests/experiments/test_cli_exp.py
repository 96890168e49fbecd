"""The ``repro exp`` CLI: run / report / diff / list."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench.runner import clear_cache, configure, reset_stats
from repro.cli import main
from repro.experiments import ResultStore


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_cache()
    reset_stats()
    yield tmp_path
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


_SMOKE = Path(__file__).resolve().parents[2] / "examples/sweeps/smoke.toml"


def _spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "sweep": {
            "name": "clismoke",
            "patterns": ["tc"],
            "graphs": ["As"],
            "backends": ["functional", "fingers"],
        },
        "configs": {"fingers": {"num_pes": 1}},
    }), encoding="utf-8")
    return path


class TestRun:
    def test_run_then_resume(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        assert main(["exp", "run", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "2 executed" in out
        assert main(["exp", "run", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 resumed" in out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "sweep": {"name": "x", "patterns": ["nope"],
                      "graphs": ["As"], "backends": ["functional"]},
        }), encoding="utf-8")
        assert main(["exp", "run", str(path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, capsys):
        assert main(["exp", "run", "does-not-exist.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestReportListDiff:
    def test_full_cli_lifecycle(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        assert main(["exp", "run", str(spec)]) == 0
        capsys.readouterr()

        out_dir = tmp_path / "reports"
        assert main(["exp", "report", "clismoke",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "clismoke.md").exists()
        assert (out_dir / "clismoke.html").exists()

        assert main(["exp", "list"]) == 0
        assert "clismoke" in capsys.readouterr().out

        assert main(["exp", "diff", "clismoke", "clismoke"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_detects_injected_slowdown(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        assert main(["exp", "run", str(spec)]) == 0
        store = ResultStore()
        slowed = [
            dataclasses.replace(
                row, run="slowed", cycles=row.cycles * 2,
                cell_key=row.cell_key + ":slowed",
            )
            for row in store.load("clismoke")
        ]
        store.append(slowed)
        assert main(["exp", "diff", "clismoke", "slowed"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # A generous threshold accepts the same delta.
        assert main(["exp", "diff", "clismoke", "slowed",
                     "--threshold", "3.0"]) == 0

    def test_report_unknown_run_exits_2(self, capsys):
        assert main(["exp", "report", "absent"]) == 2
        assert "absent" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["exp", "report", "bad/name"],
        ["exp", "diff", "bad/name", "x"],
        ["exp", "run", str(_SMOKE), "--run", "bad/name"],
    ], ids=["report", "diff", "run"])
    def test_bad_run_name_is_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run name 'bad/name' must match")
        assert len(err.strip().splitlines()) == 1

    def test_single_format(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        assert main(["exp", "run", str(spec)]) == 0
        out_dir = tmp_path / "md-only"
        assert main(["exp", "report", "clismoke", "--out", str(out_dir),
                     "--format", "md"]) == 0
        assert (out_dir / "clismoke.md").exists()
        assert not (out_dir / "clismoke.html").exists()

    def test_migrate_is_retired(self):
        with pytest.raises(SystemExit):
            main(["exp", "migrate"])
