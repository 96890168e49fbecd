"""Check a cold ``repro bench`` run against the committed paper records.

Run every experiment cold into scratch directories, then compare::

    export REPRO_CACHE_DIR=$(mktemp -d) REPRO_RESULTS_DIR=$(mktemp -d)
    python -m repro bench --no-cache > bench.txt
    python tools/paper_golden.py bench.txt "$REPRO_RESULTS_DIR/store"

Exits 1 when a rendered text differs from
``benchmarks/results/paper/<name>.txt``, or when a ``paper-*`` row's
``count``, ``counts``, ``cycles`` or ``cell_key`` differs from the
committed row with the same identity (or either side lacks one).  Every
comparison is exact: one cycle of drift in any cell fails.  A
``cell_key`` mismatch means the committed row was keyed under another
model digest (``repro.keys.model_digest``), so a warm ``repro bench``
would re-simulate it: regenerate the runs by copying the cold run's
``paper-*.jsonl`` files into ``benchmarks/results/store/``.  A run on
either side holding two successful rows with one ``cell_key`` is a
problem too: a run writes each cell once.  Each row's ``wall_time_s`` is
that cell's cold wall time.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

from repro.experiments.store import ResultStore

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "benchmarks" / "results" / "paper"
COMMITTED_STORE = ROOT / "benchmarks" / "results" / "store"
HEADER = re.compile(r"\n=== (\S+) \([0-9.]+s\) ===\n")


def rendered_texts(output: str) -> dict[str, str]:
    """``{name: text + "\\n"}`` of each section ``repro bench`` printed."""
    parts = HEADER.split(output.split("\n\nrun cache:")[0] + "\n")
    return dict(zip(parts[1::2], parts[2::2]))


def text_problems(output: str) -> list[str]:
    texts = rendered_texts(output)
    problems = []
    for golden in sorted(GOLDEN_DIR.glob("*.txt")):
        text = texts.pop(golden.stem, None)
        if text is None:
            problems.append(f"{golden.stem}: not in the bench output")
        elif text != golden.read_text(encoding="utf-8"):
            problems.append(f"{golden.stem}: text differs from {golden.name}")
    problems += [f"{name}: printed but has no golden" for name in texts]
    return problems


def _ok_rows(store: ResultStore, run: str) -> list:
    return [row for row in store.load(run) if row.ok]


def _duplicates(side: str, run: str, rows: list) -> list[str]:
    """One problem per ``cell_key`` that more than one row of ``run``
    holds: a run writes each cell once."""
    counts = Counter(row.cell_key for row in rows)
    return [
        f"{run} ({side}): {n} rows hold cell_key {key[:16]}"
        for key, n in sorted(counts.items()) if n > 1
    ]


def row_problems(fresh_root: Path) -> list[str]:
    committed, fresh = ResultStore(COMMITTED_STORE), ResultStore(fresh_root)
    runs = {r for r in committed.runs() + fresh.runs() if r.startswith("paper-")}
    problems = []
    for run in sorted(runs):
        if run not in committed.runs() or run not in fresh.runs():
            problems.append(f"{run}: run missing from one side")
            continue
        old_rows, new_rows = _ok_rows(committed, run), _ok_rows(fresh, run)
        problems += _duplicates("committed", run, old_rows)
        problems += _duplicates("cold run", run, new_rows)
        old = {row.identity(): row for row in old_rows}
        new = {row.identity(): row for row in new_rows}
        for identity in sorted(old.keys() | new.keys(), key=str):
            a, b = old.get(identity), new.get(identity)
            if a is None or b is None:
                problems.append(f"{run} {identity}: row missing from one side")
            elif (a.count, tuple(a.counts), a.cycles) != (
                b.count, tuple(b.counts), b.cycles
            ):
                problems.append(
                    f"{run} {identity}: committed count {a.count} cycles "
                    f"{a.cycles!r}, cold run count {b.count} cycles {b.cycles!r}"
                )
            elif a.cell_key != b.cell_key:
                problems.append(
                    f"{run} {identity}: committed row keyed under another "
                    "model digest; regenerate"
                )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    output = Path(argv[0]).read_text(encoding="utf-8")
    problems = text_problems(output) + row_problems(Path(argv[1]))
    for problem in problems:
        print(f"paper-golden: {problem}")
    print(f"paper-golden: {'FAIL' if problems else 'ok'} "
          f"({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
