"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``stats``      Table-1-style statistics for a dataset analog or edge-list file.
``plan``       Print a pattern's compiled execution plan.
``count``      Count (or list) embeddings with the reference engine.
``motifs``     k-motif census.
``simulate``   Run one job on any registered backend (``--design``).
``backends``   List registered execution backends and their config types.
``validate``   Cross-check every backend's count on one job.
``compare``    Both accelerator designs on one job, with the speedup.
``bench``      Run the named experiments (table1 ... fig13, table3,
               ablation_*, software_*, sensitivity_*; all when none is
               named) into the store runs ``paper-<name>`` and print
               the paper-shaped output; ``--no-cache`` replaces the runs.
``cache``      Inspect or clear the persistent result cache.
``exp``        Experiment platform: run declarative sweeps into the
               result store, generate reports, diff runs against
               baselines (docs/BENCHMARKS.md).
``lint``       Static determinism/parallel-safety linter (docs/ANALYSIS.md).
``lint-plan``  Statically verify compiled execution plans.

``count``, ``simulate``, ``compare``, and ``bench`` accept ``--jobs N``
(shard search-tree roots over N worker processes; results are identical
for every N — see docs/PARALLELISM.md) and ``--no-cache`` (bypass the
persistent result cache in ``REPRO_CACHE_DIR``/``~/.cache/repro``).
A ``--file`` that is missing, not a file or not a valid edge list exits
2 with one ``error:`` line.

Examples::

    python -m repro stats --dataset Mi
    python -m repro count tc --dataset Mi --jobs 8
    python -m repro plan tt
    python -m repro compare cyc --dataset As --pes 1 --jobs 4
    python -m repro bench table1 table2
    python -m repro exp run examples/sweeps/smoke.toml
    python -m repro exp report smoke
    python -m repro exp diff kernels-baseline kernels-current
    python -m repro cache info
    python -m repro lint --json
    python -m repro lint-plan --all
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.graph.datasets import (
    bench_graph_names,
    dataset_names,
    load_dataset,
)
from repro.graph.io import load_edge_list
from repro.graph.stats import graph_stats

__all__ = ["main", "build_parser"]


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--dataset", choices=dataset_names() + bench_graph_names(),
        help="built-in dataset analog or benchmark graph",
    )
    group.add_argument("--file", help="SNAP-style edge-list file")


class _InputError(Exception):
    """Bad user input (an unreadable ``--file``, an invalid run name):
    ``main`` prints it and exits 2."""


def _load_graph(args: argparse.Namespace):
    if args.dataset:
        return load_dataset(args.dataset)
    try:
        return load_edge_list(args.file)
    except OSError as exc:
        raise _InputError(f"{args.file}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _graph_label(args: argparse.Namespace) -> str:
    return args.dataset if args.dataset else args.file


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="shard roots over N worker processes (results identical "
             "for every N; see docs/PARALLELISM.md)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache",
    )


class _Selection(tuple):
    """Registry names as ``choices`` of a ``nargs="*"`` positional.

    argparse (through Python 3.11) validates an empty selection as the
    single value ``[]``; admitting it lets zero names mean "all".
    """

    def __contains__(self, value) -> bool:
        return value == [] or tuple.__contains__(self, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FINGERS (ASPLOS 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="graph statistics (Table 1 columns)")
    _add_graph_args(p)

    p = sub.add_parser("plan", help="print a compiled execution plan")
    p.add_argument("pattern", help="benchmark pattern name (tc, 4cl, tt, ...)")
    p.add_argument(
        "--edge-induced", action="store_true", help="edge-induced semantics"
    )

    p = sub.add_parser("count", help="count embeddings (reference engine)")
    p.add_argument("pattern")
    _add_graph_args(p)
    p.add_argument(
        "--edge-induced", action="store_true", help="edge-induced semantics"
    )
    p.add_argument(
        "--list", type=int, metavar="N", default=None,
        help="also print the first N embeddings",
    )
    _add_parallel_args(p)

    p = sub.add_parser("motifs", help="k-motif census")
    p.add_argument("k", type=int, choices=[2, 3, 4, 5])
    _add_graph_args(p)

    from repro.core.backend import backend_names

    p = sub.add_parser("simulate", help="simulate one design")
    p.add_argument("pattern")
    _add_graph_args(p)
    p.add_argument(
        "--design", choices=backend_names(), default="fingers",
    )
    p.add_argument(
        "--pes", type=_positive_int, default=None, help="PE / core count"
    )
    p.add_argument("--ius", type=_positive_int, default=None)
    p.add_argument("--group-size", type=_positive_int, default=None)
    p.add_argument("--root-stride", type=_positive_int, default=1)
    p.add_argument(
        "--schedule", choices=["dynamic", "static_interleave", "static_block"],
        default=None, help="root schedule (default: dynamic)",
    )
    p.add_argument("--trace", action="store_true", help="print a text Gantt")
    _add_parallel_args(p)

    p = sub.add_parser("validate", help="cross-check all executors")
    p.add_argument("pattern")
    _add_graph_args(p)
    p.add_argument("--software", action="store_true",
                   help="include the multi-core software model")

    p = sub.add_parser("compare", help="FINGERS vs FlexMiner on one job")
    p.add_argument("pattern")
    _add_graph_args(p)
    p.add_argument(
        "--pes", type=_positive_int, default=1, help="FINGERS PEs (baseline x2)"
    )
    p.add_argument("--root-stride", type=_positive_int, default=1)
    _add_parallel_args(p)

    from repro.bench import EXPERIMENTS

    p = sub.add_parser(
        "bench", help="run paper experiments (all when none is named)"
    )
    p.add_argument(
        "experiments", nargs="*", choices=_Selection(EXPERIMENTS),
        help="experiments to run, in this order (default: all)",
    )
    _add_parallel_args(p)

    sub.add_parser(
        "backends",
        help="list registered execution backends (repro.core registry)",
    )

    p = sub.add_parser(
        "cache", help="inspect, clear, or health-check the result cache"
    )
    p.add_argument(
        "action", choices=["info", "clear", "path", "doctor"],
        help="info: entries, size, counters; clear: delete entries; "
             "path: print dir; doctor: validate every entry, quarantine "
             "unreadable ones (docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--purge-quarantine", action="store_true",
        help="with doctor: delete previously quarantined files after "
             "the scan",
    )

    p = sub.add_parser(
        "exp",
        help="experiment sweeps, result store, reports, regression diffs "
             "(docs/BENCHMARKS.md)",
    )
    exp_sub = p.add_subparsers(dest="exp_command", required=True)

    q = exp_sub.add_parser(
        "run", help="execute a sweep spec into the result store"
    )
    q.add_argument("spec", help="sweep spec file (.toml or .json)")
    q.add_argument(
        "--run", default=None, metavar="NAME",
        help="store run name (default: the spec's sweep.name)",
    )
    q.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: benchmarks/results/store)",
    )
    q.add_argument(
        "--no-resume", action="store_true",
        help="re-execute cells even when already present in the run",
    )
    q.add_argument(
        "--sanitize", action="store_true",
        help="runtime determinism sanitizer: run every executed cell "
             "twice, uncached, and require bit-identical probe traces "
             "(also enabled by REPRO_SANITIZE=1)",
    )
    q.add_argument(
        "--retry-failed", action="store_true",
        help="re-execute only cells whose latest row is a failure; "
             "successful cells stay resumed (docs/RESILIENCE.md)",
    )
    q.add_argument(
        "--no-isolate", action="store_true",
        help="abort the sweep at the first failing cell instead of "
             "recording a structured failure row",
    )
    _add_parallel_args(q)

    q = exp_sub.add_parser(
        "report", help="render a stored run as markdown + HTML"
    )
    q.add_argument("run", help="run name in the store")
    q.add_argument("--store", default=None, metavar="DIR")
    q.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory (default: benchmarks/results/reports)",
    )
    q.add_argument(
        "--format", choices=["md", "html", "txt"], action="append",
        default=None,
        help="emit only this format (repeatable; default: md + html; "
             "txt is the terminal-facing view)",
    )

    q = exp_sub.add_parser(
        "diff", help="compare a run against a baseline run (exit 1 on "
                     "regression)"
    )
    q.add_argument("baseline", help="baseline run name")
    q.add_argument("current", help="run name to check")
    q.add_argument("--store", default=None, metavar="DIR")
    q.add_argument(
        "--threshold", type=float, default=1.25, metavar="R",
        help="cycles/metrics regression ratio (default: 1.25)",
    )
    q.add_argument(
        "--wall-threshold", type=float, default=1.5, metavar="R",
        help="wall-time regression ratio (default: 1.5; wall time is "
             "host-noise-prone)",
    )

    q = exp_sub.add_parser("list", help="list runs in the result store")
    q.add_argument("--store", default=None, metavar="DIR")

    p = sub.add_parser(
        "lint",
        help="determinism/parallel-safety linter (rule catalog: "
             "docs/ANALYSIS.md)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "lint-plan", help="statically verify compiled execution plans"
    )
    p.add_argument(
        "pattern", nargs="?",
        help="benchmark pattern name (tc, 4cl, tt, ...); omit with --all",
    )
    p.add_argument(
        "--all", action="store_true",
        help="verify every built-in pattern, both semantics",
    )
    p.add_argument(
        "--edge-induced", action="store_true", help="edge-induced semantics"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _cmd_stats(args) -> int:
    s = graph_stats(_load_graph(args))
    print(f"vertices:      {s.num_vertices:,}")
    print(f"edges:         {s.num_edges:,}")
    print(f"avg degree:    {s.avg_degree}")
    print(f"max degree:    {s.max_degree}")
    print(f"median degree: {s.median_degree}")
    print(f"CSR bytes:     {s.csr_bytes:,}")
    return 0


def _cmd_plan(args) -> int:
    from repro.mining.api import plan_for

    plan = plan_for(args.pattern, vertex_induced=not args.edge_induced)
    print(plan.describe())
    return 0


def _cmd_count(args) -> int:
    from repro.bench.runner import run_backend_cached
    from repro.mining.api import embeddings

    graph = _load_graph(args)
    vi = not args.edge_induced
    result = run_backend_cached(
        "functional", graph, _graph_label(args),
        args.pattern if vi else f"{args.pattern}:edge",
        jobs=args.jobs, disk=not args.no_cache,
    )
    print(f"{args.pattern}: {result.count:,}")
    if args.list:
        for emb in embeddings(graph, args.pattern, vertex_induced=vi,
                              limit=args.list, jobs=args.jobs):
            print("  " + "-".join(str(v) for v in emb))
    return 0


def _cmd_motifs(args) -> int:
    from repro.mining.api import motif_census

    census = motif_census(_load_graph(args), args.k)
    for name, value in sorted(census.items(), key=lambda kv: -kv[1]):
        print(f"{name:20s} {value:>12,}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.bench.runner import run_backend_cached
    from repro.core.backend import get_backend

    backend = get_backend(args.design)
    for flag in ("pes", "ius", "group_size", "schedule"):
        if getattr(args, flag) is not None and flag not in backend.cli_flags:
            print(f"error: the {backend.name} backend does not read "
                  f"--{flag.replace('_', '-')}", file=sys.stderr)
            return 2
    schedule = args.schedule or "dynamic"
    graph = _load_graph(args)
    roots = list(range(0, graph.num_vertices, args.root_stride))
    config = backend.config_from_args(args)
    if args.trace:
        # Tracing records the actual event interleaving: unsharded,
        # uncached by design.
        if args.jobs is not None:
            print("error: --trace and --jobs are mutually exclusive",
                  file=sys.stderr)
            return 2
        if not backend.supports_trace:
            print(f"error: the {backend.name} backend does not support "
                  "--trace", file=sys.stderr)
            return 2
        from repro.hw.trace import Tracer, render_gantt

        tracer = Tracer()
        res = backend.run(
            graph, args.pattern, config,
            roots=roots, schedule=schedule, tracer=tracer,
        )
        for line in backend.summary(res):
            print(line)
        print(render_gantt(tracer))
        return 0
    res = run_backend_cached(
        backend, graph, _graph_label(args), args.pattern, config,
        roots=roots, schedule=schedule, jobs=args.jobs,
        disk=not args.no_cache,
    )
    for line in backend.summary(res):
        print(line)
    return 0


def _cmd_backends(args) -> int:
    from repro.core.backend import backend_names, get_backend

    for name in backend_names():
        backend = get_backend(name)
        print(f"{name:12s} config={backend.config_type.__name__:16s} "
              f"{backend.description}")
    return 0


def _cmd_validate(args) -> int:
    from repro.mining.validate import cross_validate

    report = cross_validate(
        _load_graph(args), args.pattern, include_software=args.software
    )
    print(report)
    return 0 if report.consistent else 1


def _cmd_compare(args) -> int:
    from repro.bench.runner import run_backend_cached
    from repro.hw.api import FingersConfig, FlexMinerConfig

    graph = _load_graph(args)
    label = _graph_label(args)
    roots = list(range(0, graph.num_vertices, args.root_stride))
    fingers = run_backend_cached(
        "fingers", graph, label, args.pattern, FingersConfig(num_pes=args.pes),
        roots=roots, jobs=args.jobs, disk=not args.no_cache,
    )
    flex = run_backend_cached(
        "flexminer", graph, label, args.pattern,
        FlexMinerConfig(num_pes=2 * args.pes),
        roots=roots, jobs=args.jobs, disk=not args.no_cache,
    )
    print(f"count: {fingers.count:,}")
    print(f"FINGERS   ({args.pes:3d} PEs): {fingers.cycles:14,.0f} cycles")
    print(f"FlexMiner ({2 * args.pes:3d} PEs): {flex.cycles:14,.0f} cycles")
    print(f"iso-area speedup: {fingers.speedup_over(flex):.2f}x")
    return 0


def _cmd_cache(args) -> int:
    from repro.cache import default_cache
    from repro.keys import model_digest

    cache = default_cache()
    if args.action == "path":
        print(cache.directory)
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.directory}")
        return 0
    if args.action == "doctor":
        report = cache.doctor()
        print(f"directory:   {cache.directory}")
        print(f"checked:     {report['checked']}")
        print(f"ok:          {report['ok']}")
        print(f"stale:       {report['stale']} (deleted)")
        print(f"corrupt:     {report['corrupt']} "
              f"({report['quarantined']} quarantined)")
        if args.purge_quarantine:
            purged = cache.purge_quarantine()
            print(f"quarantine:  purged {purged} file(s)")
        else:
            print(f"quarantine:  {report['quarantine_backlog']} file(s) "
                  f"in {cache.quarantine_dir()}")
        return 0
    entries = cache.entries()
    print(f"directory: {cache.directory}")
    print(f"model:     {model_digest()[:12]}")
    print(f"entries:   {len(entries)}")
    print(f"bytes:     {cache.size_bytes():,}")
    counters = cache.counters.as_dict()
    print("counters:  " + "  ".join(f"{k}={v}" for k, v in counters.items()))
    quarantined = cache.quarantined_entries()
    if quarantined:
        print(f"quarantine: {len(quarantined)} file(s) awaiting review "
              f"(repro cache doctor --purge-quarantine)")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths, render_json, render_text
    from repro.analysis.codelint import default_lint_root

    try:
        findings = lint_paths(args.paths or [default_lint_root()])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_json(findings) if args.json else render_text(findings))
    return 1 if findings else 0


def _cmd_lint_plan(args) -> int:
    import json as _json

    from repro.analysis import render_text, verify_all_builtin, verify_plan
    from repro.mining.api import plan_for

    if args.all == bool(args.pattern):
        print("error: give exactly one of a pattern name or --all",
              file=sys.stderr)
        return 2
    if args.all:
        results = verify_all_builtin()
    else:
        plan = plan_for(args.pattern, vertex_induced=not args.edge_induced)
        label = (
            f"{args.pattern}/"
            f"{'edge' if args.edge_induced else 'vertex'}-induced"
        )
        results = {label: verify_plan(plan, name=label)}

    bad = {label: f for label, f in results.items() if f}
    if args.json:
        print(_json.dumps({
            label: [
                {"rule": f.rule, "level": f.line, "message": f.message}
                for f in fs
            ]
            for label, fs in results.items()
        }, indent=2))
    else:
        for label in sorted(results):
            status = "FAIL" if results[label] else "ok"
            print(f"{label:24s} {status}")
            if results[label]:
                print(render_text(results[label]))
    if not args.json:
        print(f"{len(results) - len(bad)}/{len(results)} plans statically valid")
    return 1 if bad else 0


def _cmd_bench(args) -> int:
    from repro.bench import EXPERIMENTS
    from repro.bench import runner as _runner
    from repro.cache import cache_dir
    from repro.errors import CellFailed

    _runner.configure(jobs=args.jobs, disk_cache=not args.no_cache)
    _runner.reset_stats()
    for name in args.experiments or EXPERIMENTS:
        start = time.perf_counter()
        try:
            text = EXPERIMENTS[name]().render()
        except CellFailed as exc:
            print(f"error: {name}: {exc}: {exc.__cause__!r}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        print(f"\n=== {name} ({elapsed:.1f}s) ===")
        print(text)
    stats = _runner.runner_stats()
    print(
        f"\nrun cache: {stats.memo_hits} memo hits, {stats.disk_hits} disk "
        f"hits, {stats.simulate_calls} simulator calls"
        + ("" if args.no_cache else f" (disk: {cache_dir()})")
    )
    return 0


def _cmd_exp(args) -> int:
    from repro.experiments import (
        ResultStore,
        SpecError,
        diff_runs,
        load_spec_file,
        run_sweep,
        write_report,
    )
    from repro.experiments.store import check_run_name

    for key in ("run", "baseline", "current"):
        name = getattr(args, key, None)
        if name is not None:
            try:
                check_run_name(name)
            except ValueError as exc:
                raise _InputError(str(exc)) from None

    store = ResultStore(args.store) if args.store else ResultStore()

    if args.exp_command == "run":
        from repro.bench import runner as _runner

        try:
            spec = load_spec_file(args.spec)
        except (SpecError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _runner.configure(jobs=args.jobs, disk_cache=not args.no_cache)

        def progress(cell, action):
            print(f"  [{action:6s}] {cell.label}")

        print(f"sweep {spec.name!r}: {len(spec.expand())} cells")
        from repro.sanitize import SanitizerError

        from repro.errors import CellFailed

        try:
            outcome = run_sweep(
                spec, store=store, run=args.run,
                resume=not args.no_resume, progress=progress,
                sanitize=True if args.sanitize else None,
                isolate=not args.no_isolate,
                retry_failed=args.retry_failed,
            )
        except SanitizerError as exc:
            print(f"sanitizer: {exc}", file=sys.stderr)
            return 1
        except CellFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summary = (
            f"run {outcome.run!r}: {outcome.executed} executed, "
            f"{outcome.resumed} resumed from the store"
        )
        if outcome.failed:
            summary += (
                f", {outcome.failed} failed (recorded; re-run with "
                f"--retry-failed)"
            )
        print(summary)
        return 1 if outcome.failed else 0

    if args.exp_command == "report":
        try:
            paths = write_report(
                store, args.run, out_dir=args.out,
                formats=tuple(args.format) if args.format else ("md", "html"),
            )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for path in paths:
            print(path)
        return 0

    if args.exp_command == "diff":
        try:
            baseline_rows = store.load(args.baseline)
            current_rows = store.load(args.current)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = diff_runs(
            baseline_rows, current_rows,
            baseline=args.baseline, current=args.current,
            cycle_threshold=args.threshold,
            wall_threshold=args.wall_threshold,
        )
        print(report.render())
        return report.exit_code

    # list
    runs = store.runs()
    if not runs:
        print(f"no runs in {store.root}")
        return 0
    for run in runs:
        rows = store.load(run)
        print(f"{run:24s} {len(rows):5d} rows")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "plan": _cmd_plan,
    "count": _cmd_count,
    "motifs": _cmd_motifs,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "backends": _cmd_backends,
    "cache": _cmd_cache,
    "exp": _cmd_exp,
    "lint": _cmd_lint,
    "lint-plan": _cmd_lint_plan,
}


#: Subcommands whose pattern argument may also name the multi-pattern
#: ``3mc`` workload (:func:`repro.core.workload.resolve_workload`).
_WORKLOAD_COMMANDS = frozenset({"simulate", "compare"})


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.pattern.pattern import all_named_patterns

    args = build_parser().parse_args(argv)
    pattern = getattr(args, "pattern", None)
    if pattern is not None:
        known = sorted(all_named_patterns())
        if args.command in _WORKLOAD_COMMANDS:
            known.append("3mc")
        if pattern not in known:
            print(f"error: unknown pattern {pattern!r}; known: "
                  f"{', '.join(known)}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
