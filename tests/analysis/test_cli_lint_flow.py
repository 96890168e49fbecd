"""CLI surface of ``repro lint-flow``: golden JSON and text output."""

import json
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def flowtree(monkeypatch):
    """The committed fixture tree, cwd-anchored for stable paths."""
    monkeypatch.chdir(DATA)
    return "flowtree"


def test_lint_flow_json_matches_golden(flowtree, capsys):
    """The full --json document is pinned: rule set, locations,
    messages, and counts must not drift unnoticed."""
    assert main(["lint-flow", flowtree, "--json"]) == 1
    got = json.loads(capsys.readouterr().out)
    golden = json.loads((DATA / "flowtree_golden.json").read_text())
    assert got == golden


def test_lint_flow_text_output(flowtree, capsys):
    assert main(["lint-flow", flowtree]) == 1
    out = capsys.readouterr().out
    assert "RACE001" in out
    assert "RACE002" in out
    assert "2 errors" in out


def test_lint_flow_default_target_is_repro_package(capsys):
    """With no paths, lint-flow analyzes the installed tree — which is
    kept flow-clean (the audited sites carry inline noqa pragmas)."""
    assert main(["lint-flow"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_flow_missing_path_is_an_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["lint-flow", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
