"""A model-code edit re-keys every result; a comment edit, or an edit
to the disk cache, re-keys none.

Each test copies the ``repro`` package into a scratch tree, runs a
two-cell FINGERS/FlexMiner sweep from the copy in a subprocess, edits
one module in the copy, and reruns the same sweep against the same
result cache and store.  The subprocess takes the real key path:
``Backend.cache_key`` -> ``repro.keys.model_digest`` over the copy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.store import ResultStore

SPEC = """\
[sweep]
name     = "model-edit"
patterns = ["tc"]
graphs   = ["As"]
backends = ["fingers", "flexminer"]

[configs.fingers]
num_pes = 1

[configs.flexminer]
num_pes = 1
"""


class _Tree:
    """A scratch copy of the package with one cache and one store."""

    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        shutil.copytree(
            Path(repro.__file__).resolve().parent, self.src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        self.spec = root / "spec.toml"
        self.spec.write_text(SPEC)
        self.results = root / "results"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            REPRO_CACHE_DIR=str(root / "cache"),
            REPRO_RESULTS_DIR=str(self.results),
        )

    def sweep(self, run: str) -> str:
        """Run the sweep into store run ``run``; its summary line."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "exp", "run", str(self.spec),
             "--run", run],
            env=self.env, capture_output=True, text=True, check=True,
        )
        return proc.stdout.strip().splitlines()[-1]

    def rows(self, run: str):
        return ResultStore(self.results / "store").load(run)

    def edit(self, module: str, old: str, new: str) -> None:
        path = self.src / "repro" / module
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    def edit_chip(self, old: str, new: str) -> None:
        self.edit("hw/chip.py", old, new)


@pytest.fixture
def tree(tmp_path):
    tree = _Tree(tmp_path)
    assert tree.sweep("r") == "run 'r': 2 executed, 0 resumed from the store"
    assert tree.sweep("r") == "run 'r': 0 executed, 2 resumed from the store"
    return tree


def test_cycles_edit_resimulates_every_cell(tree):
    before = {row.backend: row.cycles for row in tree.rows("r")}
    tree.edit_chip("        cycles=cycles,\n", "        cycles=cycles + 1,\n")
    assert tree.sweep("r") == "run 'r': 2 executed, 0 resumed from the store"
    fresh = tree.rows("r")[-2:]
    assert {row.backend: row.cycles - 1 for row in fresh} == before
    assert all(row.cache["simulate_calls"] == 1 for row in fresh)
    assert all(row.cache["disk_hits"] == 0 for row in fresh)


def test_comment_and_docstring_edit_resimulates_nothing(tree):
    tree.edit_chip('"""', '"""Edited docstring.\n\n')
    tree.edit_chip("\ndef ", "\n# An edited comment.\ndef ")
    assert tree.sweep("r") == "run 'r': 0 executed, 2 resumed from the store"
    # A new run misses the store but hits the result cache.
    assert tree.sweep("r2") == "run 'r2': 2 executed, 0 resumed from the store"
    fresh = tree.rows("r2")
    assert all(row.cache["simulate_calls"] == 0 for row in fresh)
    assert all(row.cache["disk_hits"] == 1 for row in fresh)


def test_disk_cache_edit_resimulates_nothing(tree):
    # A code edit in DiskCache.doctor: the disk cache is not the model.
    tree.edit("cache.py", '"checked": 0,', '"checked": 0, "edited": 0,')
    assert tree.sweep("r") == "run 'r': 0 executed, 2 resumed from the store"
    assert tree.sweep("r2") == "run 'r2': 2 executed, 0 resumed from the store"
    fresh = tree.rows("r2")
    assert all(row.cache["simulate_calls"] == 0 for row in fresh)
    assert all(row.cache["disk_hits"] == 1 for row in fresh)
