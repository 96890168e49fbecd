"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper, writes the
rendered text to ``benchmarks/results/paper/<name>.txt`` (the pinned
texts ``repro bench`` must reproduce), and echoes it to the terminal.
Run the full harness with::

    pytest benchmarks/ --benchmark-only

An in-process cache (repro.bench.runner) shares simulation runs between
figures, so running the whole directory in one pytest session is much
cheaper than the sum of its parts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.paths import results_dir as _canonical_results_dir

# Resolved through repro.bench.paths so CLI sweeps, ``repro exp``, and
# pytest invocations from any CWD agree on one location (and tests can
# redirect everything with REPRO_RESULTS_DIR).
RESULTS_DIR = _canonical_results_dir()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    return _canonical_results_dir(create=True)


@pytest.fixture
def publish(results_dir, capsys):
    """Write a rendered experiment to results/paper/ and the terminal."""

    def _publish(name: str, text: str) -> None:
        paper = results_dir / "paper"
        paper.mkdir(exist_ok=True)
        (paper / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _publish
