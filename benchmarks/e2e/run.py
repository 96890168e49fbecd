"""End-to-end benchmark of the FINGERS reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload sim-1pe --seed 7
    python3 benchmarks/e2e/run.py --trace 1            # per-layer metrics

Each workload runs in its own fresh Python process, one after another,
against the ``repro`` sources of this checkout (``src/``), with a fresh
cache and results directory under ``.bench_build/e2e/``.  The command
prints every metric as ``workload metric value unit``, writes a results
JSON (``--out``), and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits non-zero when any
job failed or a workload did not finish.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from catalogue import (
    BENCHMARK_METRICS,
    END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
    end_to_end,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "e2e"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 16
#: A workload process past this is killed (with its pool workers).
WORKER_TIMEOUT_S = 170

PAPER_SPEEDUP = {"sim-1pe": "Fig. 9: 6.2x", "sim-chip": "Fig. 10: 2.8x"}

#: Variables that would change what the program does; workload
#: processes never inherit them.
_SCRUBBED = (
    "REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_RETRY", "REPRO_CACHE_DIR",
    "REPRO_RESULTS_DIR", "PYTHONPATH",
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measuring time per workload (sets the pass count)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=WORK / "results.json",
                   help="results JSON; a traced run also writes "
                   "trace.json beside it")
    # Internal: run one workload in this process.
    p.add_argument("--worker", help=argparse.SUPPRESS)
    p.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    return p


def _worker(args) -> int:
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"e2e: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from harness import run_workload

    result = run_workload(
        args.worker, args.seed, args.seconds, bool(args.trace), args.scratch
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _spawn(name: str, args) -> dict[str, Any] | None:
    """Run one workload in a fresh process; ``None`` if it did not
    finish."""
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_RESULTS_DIR=str(tmp / "results"),
        OMP_NUM_THREADS="1",
        # Provenance without shelling out to git, checkout or not.
        REPRO_GIT_HASH="e2e-benchmark",
    )
    result_file = tmp / "result.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_file),
        "--scratch", str(tmp / "scratch"),
    ]
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            output = f"e2e: {name} exceeded {WORKER_TIMEOUT_S} s; killed\n"
        finally:
            # The workload process leads its own group; take any pool
            # worker still alive down with it, then reap the leader.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        sys.stderr.write(output)
        if proc.returncode != 0 or not result_file.exists():
            print(f"e2e: workload {name} did not finish "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return None
        return json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(name: str, r: dict[str, Any]) -> list[str]:
    """The ``workload metric value unit`` lines of one workload."""
    m = r["metrics"]
    lines = []
    for metric in END_TO_END:
        if metric.name not in m:
            continue
        line = f"{name} {metric.name} {_fmt(m[metric.name])} {metric.unit}"
        notes = []
        if metric.name == "pass_s":
            notes.append(f"median of {r['passes']['untraced']} passes")
        elif metric.name == "job_s_p50":
            notes.append(f"{r['tail']['samples']} samples")
        elif metric.name == "job_s_tail":
            notes.append(f"{r['tail']['percentile']} of "
                         f"{r['tail']['samples']} samples")
        elif metric.name == "setup_s":
            notes.append(f"median of {r['setup_reps']} set-ups")
        if metric.name in r["wall"]:
            notes.append(f"wall {_fmt(r['wall'][metric.name])} s")
        if notes:
            line += f" ({'; '.join(notes)})"
        if metric.name == "speedup_geomean":
            line += (f" (paper {PAPER_SPEEDUP[name]}; analog inputs, so "
                     "the model is unvalidated: no error figure)")
        lines.append(line)
    units = {layer.name: layer.unit for layer in PER_LAYER}
    for key, value in r.get("layers", {}).items():
        lines.append(f"{name} {key} {_fmt(value)} {units[key]}")
    for key, value in r.get("dispatch", {}).items():
        label = "setops.dispatch." + key.replace("/", ".")
        if label not in units and value:
            lines.append(f"{name} {label} {_fmt(value)} count")
    for error in r["errors"]:
        lines.append(f"# {name} error: {error}")
    return lines


def _final_metrics(names, results, trace: bool) -> dict[str, Any]:
    """The final line's ``metrics``: every end-to-end metric of
    BENCHMARK.json untraced, every per-layer metric traced.  With more
    than one workload the keys are ``<workload>.<metric>``."""
    out = {}
    for name in names:
        r = results[name]
        if trace:
            pairs = [(layer.name, layer.unit, r["layers"][layer.name])
                     for layer in PER_LAYER]
        else:
            pairs = [(m, end_to_end(m).unit, r["metrics"][m])
                     for m in BENCHMARK_METRICS]
        for metric, unit, value in pairs:
            key = metric if len(names) == 1 else f"{name}.{metric}"
            out[key] = {"value": value, "unit": unit}
    return out


def _host() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.worker:
        return _worker(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {SRC}; run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    mode = "traced" if args.trace else "untraced"
    print(f"# e2e benchmark: seed {args.seed}, {args.seconds:g} s per "
          f"workload, {mode}")
    results: dict[str, Any] = {}
    for name in names:
        r = _spawn(name, args)
        if r is None:
            return 1
        results[name] = r
        for line in _report(name, r):
            print(line, flush=True)

    traces = {n: results[n].pop("trace_records", None) for n in names}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": _host(), "workloads": results,
    }, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (args.out.parent / "trace.json").write_text(
            json.dumps(traces) + "\n", encoding="utf-8"
        )
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _final_metrics(names, results, bool(args.trace)),
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
