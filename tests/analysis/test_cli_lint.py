"""CLI surface of the analyzer: ``repro lint`` and ``repro lint-plan``."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def dirty_tree(tmp_path, monkeypatch):
    """A fake repro.mining module with one DET001 finding, cwd-anchored."""
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (pkg / "snippet.py").write_text(
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n"
    )
    monkeypatch.chdir(tmp_path)
    return pkg


def test_lint_reports_finding_and_fails(dirty_tree, capsys):
    assert main(["lint", str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "random.choice" in out


def test_lint_json_output(dirty_tree, capsys):
    assert main(["lint", "--json", str(dirty_tree)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["errors"] == 1
    assert doc["findings"][0]["rule"] == "DET001"


def test_lint_noqa_suppresses_finding(dirty_tree, capsys):
    snippet = dirty_tree / "snippet.py"
    snippet.write_text(snippet.read_text().replace(
        "random.choice(items)",
        "random.choice(items)  # noqa: DET001 - fixture",
    ))
    assert main(["lint", str(dirty_tree)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_missing_path_is_an_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["lint", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_lint_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    clean = tmp_path / "repro" / "mining"
    clean.mkdir(parents=True)
    (clean / "ok.py").write_text("def double(x):\n    return 2 * x\n")
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_plan_single_pattern(capsys):
    assert main(["lint-plan", "tc"]) == 0
    out = capsys.readouterr().out
    assert "tc/vertex-induced" in out
    assert "ok" in out


def test_lint_plan_all(capsys):
    assert main(["lint-plan", "--all"]) == 0
    out = capsys.readouterr().out
    assert "plans statically valid" in out
    assert "FAIL" not in out


def test_lint_plan_all_json(capsys):
    assert main(["lint-plan", "--all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc, "sweep must report per-plan results"
    assert all(findings == [] for findings in doc.values())


def test_lint_plan_requires_pattern_or_all(capsys):
    assert main(["lint-plan"]) == 2
    assert "exactly one" in capsys.readouterr().err
