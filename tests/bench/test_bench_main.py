"""Tests for ``repro bench``, the one front end over ``repro.bench.EXPERIMENTS``."""

import argparse

import pytest

import repro.bench
from repro.cli import build_parser, main


def _bench_choices(parser):
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    bench = sub.choices["bench"]
    return next(a for a in bench._actions if a.dest == "experiments").choices


class _Rendered:
    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        for name in ("table1", "table2", "fig9", "fig10", "fig11", "fig12",
                     "fig13", "table3"):
            assert name in repro.bench.EXPERIMENTS

    def test_extensions_registered(self):
        for name in ("ablation_scheduling", "ablation_edge_induced",
                     "software_comparison", "sensitivity_dram_latency"):
            assert name in repro.bench.EXPERIMENTS

    def test_parser_choices_are_the_registry(self):
        assert list(_bench_choices(build_parser())) == list(
            repro.bench.EXPERIMENTS
        )


class TestMain:
    def test_only_table2(self, capsys):
        assert main(["bench", "table2"]) == 0
        out = capsys.readouterr().out
        assert "=== table2 (" in out
        assert "=== table1" not in out
        assert out.count("run cache:") == 1

    def test_out_flag_is_retired(self, tmp_path):
        # Text artifacts come from `repro exp report --format txt`;
        # `repro bench` is print-only.
        with pytest.raises(SystemExit):
            main(["bench", "table2", "--out", str(tmp_path)])

    def test_unknown_experiment_rejected(self, capsys):
        # One bad name rejects the whole selection before anything runs.
        with pytest.raises(SystemExit):
            main(["bench", "table2", "fig99"])
        assert "=== table2" not in capsys.readouterr().out

    def test_table1_and_table2(self, capsys):
        assert main(["bench", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "=== table1 (" in out and "=== table2 (" in out
        assert out.index("=== table1") < out.index("=== table2")
        assert "Table 1" in out and "Table 2" in out
        assert out.count("run cache:") == 1

    def test_no_names_runs_every_experiment_in_order(self, capsys,
                                                      monkeypatch):
        fakes = {name: (lambda n=name: _Rendered(f"body of {n}"))
                 for name in ("first", "second")}
        monkeypatch.setattr(repro.bench, "EXPERIMENTS", fakes)
        assert main(["bench", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.index("=== first") < out.index("body of first")
        assert out.index("body of first") < out.index("=== second")
        assert out.rstrip().endswith(
            "run cache: 0 memo hits, 0 disk hits, 0 simulator calls"
        )

    @pytest.mark.parametrize("argv", [
        ["ablation-max-load"],
        ["sensitivity-dram"],
        ["--only", "table2"],
        ["table2", "--profile-kernels"],
    ], ids=["dashed-ablation", "dashed-sensitivity", "only",
            "profile-kernels"])
    def test_retired_spellings_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(["bench", *argv])
