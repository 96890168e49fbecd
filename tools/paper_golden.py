"""Check a cold ``repro bench`` run against the committed paper records.

Run every experiment cold into scratch directories, then compare::

    export REPRO_CACHE_DIR=$(mktemp -d) REPRO_RESULTS_DIR=$(mktemp -d)
    python -m repro bench --no-cache > bench.txt
    python tools/paper_golden.py bench.txt "$REPRO_RESULTS_DIR/store"

Exits 1 when a rendered text differs from
``benchmarks/results/paper/<name>.txt``, or when a ``paper-*`` row's
``count``, ``counts`` or ``cycles`` differs from the committed row with
the same identity (or either side lacks one).  Both comparisons are
exact: one cycle of drift in any cell fails.  Each row's
``wall_time_s`` is that cell's cold wall time.
"""

from __future__ import annotations

import re
import sys
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


def _latest(store: ResultStore, run: str) -> dict:
    return {row.identity(): row for row in store.load(run) if row.ok}


def row_problems(fresh_root: Path) -> list[str]:
    committed, fresh = ResultStore(COMMITTED_STORE), ResultStore(fresh_root)
    runs = {r for r in committed.runs() + fresh.runs() if r.startswith("paper-")}
    problems = []
    for run in sorted(runs):
        if run not in committed.runs() or run not in fresh.runs():
            problems.append(f"{run}: run missing from one side")
            continue
        old, new = _latest(committed, run), _latest(fresh, run)
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
