"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... \\
        --head B1.json B2.json ...

Each file is a results JSON written by ``run.py --out``.  For every
end-to-end metric the row gives each side's median and quartiles, the
share of run pairs (``base[i]``, ``head[i]``) the head won (ties count
for neither), and a verdict:

``better``
    at least ten pairs, the head wins at least nine tenths of them, and
    the medians differ by more than the base's own quartile spread;
``worse``
    the head's median is worse than the base's by more than the bound
    (``max(bound * base median, floor)``); for ``equal`` metrics, any
    difference at all;
``unresolved``
    the base's relative quartile spread is wider than the bound and the
    head does not read better on every run;
``within``
    none of the above.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from catalogue import END_TO_END, WORKLOAD_NAMES, EndToEnd

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _is_better(metric: EndToEnd, head: float, base: float) -> bool:
    return head < base if metric.better == "lower" else head > base


def verdict(metric: EndToEnd, base: list[float], head: list[float]):
    """``(verdict, share of pairs won by head)`` for one row."""
    pairs = list(zip(base, head))
    wins = sum(_is_better(metric, h, b) for b, h in pairs) / len(pairs)
    if metric.better == "equal":
        return ("within" if set(base) | set(head) == {base[0]}
                else "worse"), wins
    b1, bmed, b3 = _quartiles(base)
    hmed = statistics.median(head)
    worse_by = hmed - bmed if metric.better == "lower" else bmed - hmed
    allowed = max(metric.bound * abs(bmed), metric.floor)
    all_better = all(_is_better(metric, h, b) for b in base for h in head)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE
            and abs(hmed - bmed) > b3 - b1):
        return "better", wins
    if bmed and (b3 - b1) / abs(bmed) > metric.bound and not all_better:
        return "unresolved", wins
    if worse_by > allowed:
        return "worse", wins
    return "within", wins


def compare(base_runs: list[dict], head_runs: list[dict]) -> list[dict]:
    rows = []
    for metric in END_TO_END:
        for workload in WORKLOAD_NAMES:
            def values(runs):
                return [r["workloads"][workload]["metrics"][metric.name]
                        for r in runs
                        if metric.name in r["workloads"].get(
                            workload, {}).get("metrics", {})]
            base, head = values(base_runs), values(head_runs)
            if not base or not head:
                continue
            result, wins = verdict(metric, base, head)
            rows.append({
                "metric": metric.name, "workload": workload,
                "unit": metric.unit, "base": _quartiles(base),
                "head": _quartiles(head), "wins": wins, "verdict": result,
            })
    return rows


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, nargs="+", required=True)
    p.add_argument("--head", type=Path, nargs="+", required=True)
    args = p.parse_args(argv)
    rows = compare(_load(args.base), _load(args.head))
    print("| metric | workload | base median [q1, q3] | head median [q1, q3] "
          "| head wins | verdict |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        def cell(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {r['unit']}"
        print(f"| {r['metric']} | {r['workload']} | {cell(r['base'])} "
              f"| {cell(r['head'])} | {r['wins']:.0%} | {r['verdict']} |")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
