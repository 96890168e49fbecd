"""Canonical locations for benchmark artifacts.

Everything resolves through :func:`results_dir`, so ``repro bench``,
``repro exp`` and pytest agree on one place from any working directory:

* ``$REPRO_RESULTS_DIR``, when set, wins (tests point it at tmp dirs);
* otherwise the checkout's ``benchmarks/results/`` when this package is
  imported from a source tree;
* otherwise ``./benchmarks/results`` under the current directory (the
  installed-package fallback).

The experiment store (:mod:`repro.experiments.store`) keeps its
versioned JSONL runs under ``results_dir()/store/`` and generated
reports under ``results_dir()/reports/``; see docs/BENCHMARKS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["reports_dir", "results_dir", "store_dir"]

#: Environment variable overriding the results directory.
RESULTS_ENV = "REPRO_RESULTS_DIR"


def _default_results_dir() -> Path:
    # src/repro/bench/paths.py -> src/repro/bench -> src/repro -> src -> root
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


def results_dir(*, create: bool = False) -> Path:
    """The canonical benchmark-results directory.

    Resolution: ``$REPRO_RESULTS_DIR`` → the source checkout's
    ``benchmarks/results/`` → ``./benchmarks/results``.  With
    ``create=True`` the directory is created (parents included) before
    being returned.
    """
    env = os.environ.get(RESULTS_ENV)
    path = Path(env) if env else _default_results_dir()
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def store_dir(*, create: bool = False) -> Path:
    """Where the experiment store keeps its JSONL run files
    (``results_dir()/store``)."""
    path = results_dir() / "store"
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def reports_dir(*, create: bool = False) -> Path:
    """Where generated sweep reports land (``results_dir()/reports``)."""
    path = results_dir() / "reports"
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path
