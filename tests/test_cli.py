"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stats", "--dataset", "As", "--file", "x.txt"]
            )


class TestCommands:
    def test_stats_dataset(self, capsys):
        assert main(["stats", "--dataset", "As"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "950" in out

    def test_stats_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["stats", "--file", str(path)]) == 0
        assert "3" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "tt"]) == 0
        out = capsys.readouterr().out
        assert "level 0" in out and "restrictions" in out

    def test_plan_edge_induced(self, capsys):
        assert main(["plan", "tt", "--edge-induced"]) == 0
        assert "edge-induced" in capsys.readouterr().out

    def test_count(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n0 3\n")
        assert main(["count", "tc", "--file", str(path)]) == 0
        assert "1" in capsys.readouterr().out

    @pytest.mark.parametrize("no_cache", [False, True])
    def test_count_goes_through_cached_runner(
        self, tmp_path, monkeypatch, capsys, no_cache
    ):
        """A repeat ``count`` (in-process memo dropped, as in a new
        process) is a disk hit of the shared runner; ``--no-cache``
        recomputes and writes no entry."""
        from repro.bench import runner
        from repro.cache import DiskCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n0 3\n")
        argv = ["count", "tc", "--file", str(path)]
        argv += ["--no-cache"] if no_cache else []
        outputs = []
        runner.reset_stats()
        for _ in range(2):
            runner.clear_cache()
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["tc: 1\n"] * 2
        stats = runner.runner_stats()
        if no_cache:
            assert (stats.disk_hits, stats.simulate_calls) == (0, 2)
            assert DiskCache(tmp_path / "cache").entries() == []
        else:
            assert (stats.disk_hits, stats.simulate_calls) == (1, 1)

    def test_count_with_listing(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["count", "tc", "--file", str(path), "--list", "5"]) == 0
        assert "0-1-2" in capsys.readouterr().out

    def test_motifs(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n0 3\n")
        assert main(["motifs", "3", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tc" in out and "wedge" in out

    def test_simulate_fingers(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{i} {j}" for i in range(12)
                                  for j in range(i + 1, 12)))
        assert main([
            "simulate", "tc", "--file", str(path),
            "--design", "fingers", "--pes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "FINGERS" in out and "cycles" in out

    def test_simulate_flexminer_with_trace(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{i} {j}" for i in range(10)
                                  for j in range(i + 1, 10)))
        assert main([
            "simulate", "tc", "--file", str(path),
            "--design", "flexminer", "--pes", "2", "--trace",
        ]) == 0
        assert "PE0" in capsys.readouterr().out

    def test_simulate_software(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{i} {j}" for i in range(10)
                                  for j in range(i + 1, 10)))
        assert main([
            "simulate", "tc", "--file", str(path),
            "--design", "software", "--pes", "2",
        ]) == 0
        assert "SW-2core" in capsys.readouterr().out

    def test_simulate_functional(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{i} {j}" for i in range(10)
                                  for j in range(i + 1, 10)))
        assert main([
            "simulate", "tc", "--file", str(path),
            "--design", "functional",
        ]) == 0
        out = capsys.readouterr().out
        assert "functional" in out
        assert "120" in out  # C(10,3) triangles in K10
        assert "n/a" in out

    def test_simulate_functional_trace_rejected(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main([
            "simulate", "tc", "--file", str(path),
            "--design", "functional", "--trace",
        ]) == 2
        assert "does not support" in capsys.readouterr().err

    def test_backends_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("fingers", "flexminer", "software", "functional"):
            assert name in out
        assert "FingersConfig" in out
        assert "key=v1" in out

    def test_compare(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{i} {j}" for i in range(12)
                                  for j in range(i + 1, 12)))
        assert main(["compare", "tc", "--file", str(path), "--pes", "1"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_bench_table2(self, capsys):
        assert main(["bench", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_bench_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    def test_unknown_pattern_rejected_by_every_pattern_command(self, capsys):
        """One stderr line listing the known names, exit 2, no traceback;
        ``3mc`` is a known name only where a workload is accepted."""
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        with_pattern = {
            name for name, p in sub.choices.items()
            if any(a.dest == "pattern" for a in p._actions)
        }
        graph = ["--dataset", "As"]
        extra = {
            "plan": [], "lint-plan": [], "count": graph, "simulate": graph,
            "validate": graph, "compare": graph,
        }
        assert with_pattern == set(extra)
        bad = [(cmd, "nosuch") for cmd in extra]
        bad += [(cmd, "3mc") for cmd in extra
                if cmd not in ("simulate", "compare")]
        for cmd, name in bad:
            assert main([cmd, name, *extra[cmd]]) == 2, cmd
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1, (cmd, err)
            assert f"unknown pattern {name!r}" in err and "tc, tt" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--pes", "0"],
    ["simulate", "--pes", "-3"],
    ["simulate", "--ius", "0"],
    ["simulate", "--group-size", "0"],
    ["simulate", "--root-stride", "0"],
    ["simulate", "--root-stride", "-1"],
    ["compare", "--pes", "0"],
    ["compare", "--root-stride", "0"],
])
def test_numeric_flags_must_be_positive(argv, capsys):
    """A non-positive count or stride is a usage error (exit 2, one
    error line, no traceback), never a silent default or an empty run."""
    command, flag, value = argv
    with pytest.raises(SystemExit) as excinfo:
        main([command, "tc", "--dataset", "As", flag, value])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"repro {command}: error: argument {flag}: must be >= 1"]


@pytest.mark.parametrize("design, flag", [
    ("functional", "--pes"),
    ("functional", "--ius"),
    ("functional", "--group-size"),
    ("functional", "--schedule"),
    ("software", "--ius"),
    ("software", "--group-size"),
    ("software", "--schedule"),
    ("flexminer", "--ius"),
    ("flexminer", "--group-size"),
])
def test_simulate_rejects_flags_the_design_ignores(design, flag, capsys):
    """A flag the chosen backend does not read is an error (exit 2, one
    line naming the flag), never silently dropped."""
    value = "dynamic" if flag == "--schedule" else "2"
    argv = ["simulate", "tc", "--dataset", "As", "--design", design]
    assert main([*argv, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the {design} backend does not read {flag}\n"


_FILE_COMMANDS = [
    ["stats"], ["count", "tc"], ["motifs", "3"], ["simulate", "tc"],
    ["validate", "tc"], ["compare", "tc"],
]


@pytest.mark.parametrize("name, content, message", [
    ("missing.txt", None, "missing.txt: No such file or directory"),
    ("adir", "dir", "adir: Is a directory"),
    ("bad.txt", "a b\n", "bad.txt:1: vertex ids must be integers, got 'a b'"),
    ("neg.txt", "0 -1\n", "neg.txt:1: negative vertex id -1"),
    ("short.txt", "0\n", "short.txt:1: expected 'u v', got '0'"),
])
def test_unreadable_file_is_one_error_line(
    name, content, message, tmp_path, capsys
):
    """A ``--file`` that is missing, a directory or malformed exits 2
    with one ``error:`` line on stderr, never a traceback, for every
    command that reads a graph."""
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    for command in _FILE_COMMANDS:
        assert main([*command, "--file", str(path)]) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path}/{message}\n", command


def test_tune_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tune", "tt", "--dataset", "As"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'tune'" in capsys.readouterr().err


def test_lint_flow_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint-flow"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'lint-flow'" in capsys.readouterr().err


class TestValidateCommand:
    def test_validate_consistent(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n0 3\n")
        assert main(["validate", "tc", "--file", str(path)]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_validate_with_software(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["validate", "tc", "--file", str(path), "--software"]) == 0
        assert "software" in capsys.readouterr().out
