"""CLI surface added with the parallel/caching layer: --jobs, --no-cache,
and the ``cache`` subcommand."""

import pytest

from repro.cache import DiskCache
from repro.cli import main
from repro.keys import model_digest


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.bench import runner

    runner.clear_cache()
    runner.configure(jobs=None, disk_cache=True)
    yield tmp_path
    runner.clear_cache()
    runner.configure(jobs=None, disk_cache=True)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    edges = ["0 1", "1 2", "2 0", "0 3", "3 4", "4 0", "1 3"]
    path.write_text("\n".join(edges) + "\n")
    return str(path)


class TestCountFlags:
    def test_jobs_matches_serial(self, graph_file, capsys):
        assert main(["count", "tc", "--file", graph_file]) == 0
        serial = capsys.readouterr().out
        assert main(["count", "tc", "--file", graph_file, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_no_cache_writes_nothing(self, graph_file, tmp_path, capsys):
        assert main(
            ["count", "tc", "--file", graph_file, "--no-cache"]
        ) == 0
        assert DiskCache(tmp_path / "cache").entries() == []

    def test_cached_count_persists(self, graph_file, tmp_path, capsys):
        assert main(["count", "tc", "--file", graph_file]) == 0
        assert len(DiskCache(tmp_path / "cache").entries()) == 1

    def test_bad_jobs_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["count", "tc", "--file", graph_file, "--jobs", "0"])


class TestSimulateFlags:
    def test_sharded_model_reported(self, graph_file, capsys):
        assert main(
            ["simulate", "tc", "--file", graph_file, "--pes", "2",
             "--jobs", "2"]
        ) == 0
        assert "sharded model" in capsys.readouterr().out

    def test_unsharded_not_reported(self, graph_file, capsys):
        assert main(
            ["simulate", "tc", "--file", graph_file, "--pes", "2"]
        ) == 0
        assert "sharded model" not in capsys.readouterr().out

    def test_trace_conflicts_with_jobs(self, graph_file, capsys):
        assert main(
            ["simulate", "tc", "--file", graph_file, "--trace",
             "--jobs", "2"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_software_design_with_jobs(self, graph_file, capsys):
        assert main(
            ["simulate", "tc", "--file", graph_file, "--design", "software",
             "--jobs", "2"]
        ) == 0
        assert "design:" in capsys.readouterr().out

    def test_compare_with_jobs(self, graph_file, capsys):
        assert main(
            ["compare", "tc", "--file", graph_file, "--jobs", "2"]
        ) == 0
        assert "speedup" in capsys.readouterr().out


class TestCacheSubcommand:
    def test_path(self, tmp_path, capsys):
        assert main(["cache", "path"]) == 0
        assert str(tmp_path / "cache") in capsys.readouterr().out

    def test_info_empty(self, capsys):
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out
        assert f"model:     {model_digest()[:12]}\n" in out

    def test_clear_after_populate(self, graph_file, capsys):
        main(["count", "tc", "--file", graph_file])
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "entries:   1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries:   0" in capsys.readouterr().out
