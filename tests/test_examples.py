"""Smoke tests that the shipped examples stay runnable.

Only the fast examples run in the test suite; the longer ones
(design-space sweeps) are exercised by `make examples`.
"""

import runpy
import sys

import pytest


@pytest.mark.parametrize(
    "script",
    [
        "examples/quickstart.py",
        "examples/clique_communities.py",
        "examples/trace_and_validate.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(script, run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100


def test_quickstart_prints_speedup(capsys):
    runpy.run_path("examples/quickstart.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "single-PE speedup" in out
    assert "tailed triangles: 2" in out
