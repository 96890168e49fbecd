"""``tools/paper_golden.py`` compares each committed paper row's key."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "paper_golden.py"


def _tool():
    spec = importlib.util.spec_from_file_location("paper_golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh_store(tmp_path, tool, edit=None):
    """A copy of the committed ``paper-*`` runs; ``edit`` rewrites the
    first row of ``paper-table3``."""
    for run in tool.COMMITTED_STORE.glob("paper-*.jsonl"):
        lines = run.read_text(encoding="utf-8").splitlines()
        if edit is not None and run.stem == "paper-table3":
            lines[0] = json.dumps(edit(json.loads(lines[0])), sort_keys=True)
        (tmp_path / run.name).write_text("\n".join(lines) + "\n")
    return tmp_path


def test_committed_rows_match_themselves(tmp_path):
    tool = _tool()
    assert tool.row_problems(_fresh_store(tmp_path, tool)) == []


def test_rekeyed_cell_is_reported(tmp_path):
    tool = _tool()

    def rekey(record):
        record["cell_key"] = "0" * 64
        return record

    problems = tool.row_problems(_fresh_store(tmp_path, tool, rekey))
    assert len(problems) == 1
    assert problems[0].startswith("paper-table3 (")
    assert problems[0].endswith(
        "committed row keyed under another model digest; regenerate"
    )


def test_duplicated_cell_is_reported(tmp_path):
    tool = _tool()
    store = _fresh_store(tmp_path, tool)
    run = store / "paper-table3.jsonl"
    first = run.read_text(encoding="utf-8").splitlines()[0]
    with run.open("a", encoding="utf-8") as f:
        f.write(first + "\n")

    problems = tool.row_problems(store)
    key = json.loads(first)["cell_key"]
    assert problems == [f"paper-table3 (cold run): 2 rows hold cell_key {key[:16]}"]
