"""Report generation: markdown + HTML views of a stored run.

Rendering is a pure function of the stored rows — no clocks, no
environment reads — so reports regenerate byte-identically from the
same store (the golden-file tests rely on this).  Each report carries:

* the full result table per (pattern, graph, backend, policy) cell,
* wall-clock speedups against the ``functional``/``default`` cell of
  the same (pattern, graph) — the paper's reference engine,
* modelled-cycle speedups of ``fingers`` over ``flexminer`` where both
  were swept, and
* a provenance table: git hash, config signature, host, interpreter and
  numpy versions, and timestamp for **every** row (docs/BENCHMARKS.md).

``write_report`` is one of the two modules allowed to write under
``benchmarks/results/`` (the STORE001 lint rule funnels everything else
through the store).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Iterable, Sequence

from repro.bench.paths import reports_dir
from repro.experiments.store import ResultRow, ResultStore

__all__ = ["render_html", "render_markdown", "render_text", "write_report"]


def _sorted(rows: Iterable[ResultRow]) -> list[ResultRow]:
    return sorted(
        rows, key=lambda r: (r.identity(), r.provenance.get("timestamp", ""))
    )


def _partition(rows: Iterable[ResultRow]) -> tuple[list[ResultRow], list[ResultRow]]:
    """``(ok_rows, current_failures)`` for one run's rows.

    Measurement tables render only ``ok`` rows.  A cell counts as
    *currently* failed when its **latest** row (store file order) is a
    failure — a failure superseded by a later ``--retry-failed``
    success disappears from the failure table, matching resume
    semantics.  All-ok stores partition to ``(rows, [])``, keeping the
    pre-resilience reports byte-identical.
    """
    rows = list(rows)
    latest: dict[tuple, ResultRow] = {}
    for row in rows:
        latest[row.cell_id] = row
    failures = _sorted(r for r in latest.values() if not r.ok)
    return _sorted(r for r in rows if r.ok), failures


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _cell_name(row: ResultRow) -> str:
    parts = [row.pattern, row.graph, row.backend]
    if row.policy != "default":
        parts.append(row.policy)
    if row.schedule != "dynamic":
        parts.append(row.schedule)
    if row.jobs is not None:
        parts.append(f"jobs={row.jobs}")
    return "/".join(parts)


def _result_table(rows: Sequence[ResultRow]) -> tuple[list[str], list[list[str]]]:
    header = [
        "pattern", "graph", "backend", "policy", "jobs", "schedule",
        "count", "cycles", "wall s",
    ]
    body = [
        [
            row.pattern, row.graph, row.backend, row.policy,
            "-" if row.jobs is None else str(row.jobs), row.schedule,
            f"{row.count:,}", f"{row.cycles:,.0f}", _fmt(row.wall_time_s),
        ]
        for row in rows
    ]
    return header, body


def _speedup_rows(rows: Sequence[ResultRow]) -> list[list[str]]:
    reference = {
        (r.pattern, r.graph): r
        for r in rows
        if r.backend == "functional" and r.policy == "default"
        and r.jobs is None and r.schedule == "dynamic"
    }
    body = []
    for row in rows:
        ref = reference.get((row.pattern, row.graph))
        if ref is None or row is ref:
            continue
        if ref.wall_time_s <= 0 or row.wall_time_s <= 0:
            continue
        body.append([
            _cell_name(row), _fmt(ref.wall_time_s), _fmt(row.wall_time_s),
            f"{ref.wall_time_s / row.wall_time_s:.2f}",
        ])
    return body


def _policy_speedup_rows(rows: Sequence[ResultRow]) -> list[list[str]]:
    """Wall-clock speedups of every non-baseline policy against the
    baseline *policy* of the same (pattern, graph, backend, jobs,
    schedule) cell — the engine-comparison view (``make bench-engine``).

    The baseline policy is ``recursive`` when the run swept one (the
    engine sweeps name their oracle cell that), else ``legacy``, else
    ``default``.  Empty when the run swept a single policy, so classic
    single-policy reports are unchanged.
    """
    by_policy: dict[str, dict[tuple, ResultRow]] = {}
    for r in rows:
        key = (r.pattern, r.graph, r.backend, r.jobs, r.schedule)
        by_policy.setdefault(r.policy, {})[key] = r
    if len(by_policy) < 2:
        return []
    base_name = next(
        (n for n in ("recursive", "legacy", "default") if n in by_policy),
        None,
    )
    if base_name is None:
        return []
    baseline = by_policy[base_name]
    body = []
    for row in rows:
        if row.policy == base_name:
            continue
        ref = baseline.get((row.pattern, row.graph, row.backend, row.jobs,
                            row.schedule))
        if ref is None or ref.wall_time_s <= 0 or row.wall_time_s <= 0:
            continue
        body.append([
            _cell_name(row), base_name, _fmt(ref.wall_time_s),
            _fmt(row.wall_time_s),
            f"{ref.wall_time_s / row.wall_time_s:.2f}",
        ])
    return body


def _cycle_speedup_rows(rows: Sequence[ResultRow]) -> list[list[str]]:
    def pick(backend):
        return {
            (r.pattern, r.graph): r
            for r in rows
            if r.backend == backend and r.policy == "default"
            and r.cycles > 0
        }

    ours, baseline = pick("fingers"), pick("flexminer")
    body = []
    for key in sorted(set(ours) & set(baseline)):
        f, x = ours[key], baseline[key]
        body.append([
            f"{key[0]}/{key[1]}", f"{f.cycles:,.0f}", f"{x.cycles:,.0f}",
            f"{x.cycles / f.cycles:.2f}",
        ])
    return body


def _provenance_rows(rows: Sequence[ResultRow]) -> list[list[str]]:
    body = []
    for row in rows:
        p = row.provenance
        body.append([
            _cell_name(row),
            p.get("git_hash", "unknown"),
            row.config_signature,
            p.get("hostname", "?"),
            f"py {p.get('python', '?')} / np {p.get('numpy', '?')}",
            p.get("timestamp", "?"),
        ])
    return body


def _failure_rows(failures: Sequence[ResultRow]) -> list[list[str]]:
    return [
        [
            _cell_name(row),
            row.error.get("type", "?"),
            row.error.get("message", ""),
            str(row.error.get("attempt", "?")),
            row.provenance.get("timestamp", "?"),
        ]
        for row in failures
    ]


_SPEEDUP_HEADER = ["cell", "functional wall s", "wall s", "speedup"]
_POLICY_SPEEDUP_HEADER = ["cell", "baseline policy", "baseline wall s",
                          "wall s", "speedup"]
_FAILURE_HEADER = ["cell", "error", "message", "attempt", "timestamp"]
_CYCLES_HEADER = ["pattern/graph", "fingers cycles", "flexminer cycles",
                  "speedup"]
_PROVENANCE_HEADER = ["cell", "git hash", "config signature", "host",
                      "versions", "timestamp"]


def _layout(rows: Iterable[ResultRow]) -> tuple[str, list[tuple]]:
    """``(summary, sections)`` shared by every format.

    Each section is ``(title, header, body)``; the optional ones
    (failures, the two wall-clock speedup tables, cycles) are left out
    when empty, so every format shows the same sections in one order.
    """
    rows, failures = _partition(rows)
    summary = f"{len(rows)} result rows."
    if failures:
        summary = (
            f"{len(rows)} result rows; "
            f"{len(failures)} cell(s) currently failed."
        )
    optional = [
        ("Failures", _FAILURE_HEADER, _failure_rows(failures)),
        ("Wall-clock speedup vs functional/default", _SPEEDUP_HEADER,
         _speedup_rows(rows)),
        ("Wall-clock speedup vs baseline policy", _POLICY_SPEEDUP_HEADER,
         _policy_speedup_rows(rows)),
        ("Modelled cycles: fingers vs flexminer", _CYCLES_HEADER,
         _cycle_speedup_rows(rows)),
    ]
    sections = [("Results", *_result_table(rows))]
    sections += [section for section in optional if section[2]]
    sections.append(
        ("Provenance", _PROVENANCE_HEADER, _provenance_rows(rows))
    )
    return summary, sections


def _render_lines(rows, title: str, heading, table) -> str:
    """A line-oriented report: ``heading`` formats each section title,
    ``table`` each ``(header, body)``."""
    summary, sections = _layout(rows)
    parts = [title, "", summary, ""]
    for name, header, body in sections:
        parts += [heading(name), "", table(header, body), ""]
    return "\n".join(parts)


def _md_table(header: list[str], body: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines)


def render_markdown(rows: Iterable[ResultRow], *, run: str) -> str:
    """The markdown report for one run's rows (pure; byte-stable)."""
    return _render_lines(
        rows, f"# Sweep report: {run}", lambda name: f"## {name}", _md_table
    )


def _text_table(header: list[str], body: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body
        else len(header[i])
        for i in range(len(header))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), rule] + [line(row) for row in body])


def render_text(rows: Iterable[ResultRow], *, run: str) -> str:
    """The plain-text report for one run's rows (pure; byte-stable).

    The terminal-facing sibling of :func:`render_markdown` — same
    sections, fixed-width tables (``repro exp report <run> --format
    txt``).
    """
    return _render_lines(
        rows, f"=== Sweep report: {run} ===", lambda name: f"-- {name} --",
        _text_table,
    )


def _html_table(header: list[str], body: list[list[str]]) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in header)
    rows_html = "".join(
        "<tr>" + "".join(f"<td>{html.escape(c)}</td>" for c in row) + "</tr>"
        for row in body
    )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{rows_html}</tbody></table>"
    )


def render_html(rows: Iterable[ResultRow], *, run: str) -> str:
    """The HTML report for one run's rows (pure; byte-stable)."""
    summary, sections = _layout(rows)
    parts = [f"<h1>Sweep report: {html.escape(run)}</h1>", f"<p>{summary}</p>"]
    for name, header, body in sections:
        parts += [f"<h2>{name}</h2>", _html_table(header, body)]
    style = (
        "body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "th,td{border:1px solid #999;padding:4px 8px;text-align:left}"
        "th{background:#eee}"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>Sweep report: {html.escape(run)}</title>"
        f"<style>{style}</style></head><body>"
        + "".join(parts) + "</body></html>"
    )


def write_report(
    store: ResultStore,
    run: str,
    *,
    out_dir: Path | str | None = None,
    formats: Sequence[str] = ("md", "html"),
) -> list[Path]:
    """Render one run to ``<out_dir>/<run>.{md,html}`` (default:
    ``benchmarks/results/reports/``) and return the written paths."""
    rows = store.load(run)
    out = Path(out_dir) if out_dir is not None else reports_dir(create=True)
    out.mkdir(parents=True, exist_ok=True)
    renderers = {"md": render_markdown, "html": render_html,
                 "txt": render_text}
    unknown = set(formats) - set(renderers)
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    written = []
    for fmt in formats:
        path = out / f"{run}.{fmt}"
        path.write_text(renderers[fmt](rows, run=run), encoding="utf-8")
        written.append(path)
    return written
