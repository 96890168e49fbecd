"""Run one workload in this process and compute its metrics.

The load is a closed loop with one client: jobs run back to back, each
after the previous one returned.  A run is

1. a set-up (input generation plus plan compile);
2. the oracle, once, outside every timed phase;
3. one untimed warm-up pass over the job list;
4. a fixed number of timed passes, ``round(seconds / nominal_pass_s)``,
   so both sides of a comparison measure the same amount of work, each
   preceded by another set-up that must rebuild identical inputs
   (``setup_s`` is the median over all of them).  In a traced run half
   of the passes run untraced (for the overhead baseline) and a quarter
   run traced.

A job that raises or disagrees with the oracle counts as failed; the run
continues.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import resource
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np
import repro.bench.runner as runner
import repro.parallel.pool as pool
import repro.setops.kernels as kernels
from catalogue import DISPATCH_KEYS, SEGMENTED_OPS
from repro.cache import graph_fingerprint
from tracing import Tracer, traced
from workloads import WORKLOADS, Inputs

#: Wall-clock budget of one workload process: passes stop early past it
#: so a badly slowed tree still finishes (and says so) instead of
#: hanging the caller.
DEADLINE_S = 150.0

_MAX_ERRORS = 20


def tail_percentile(samples: list[float]) -> tuple[float, str]:
    """The highest of p99, p90, p75 with at least ten samples beyond it;
    the median when none qualifies."""
    n = len(samples)
    for p in (99, 90, 75):
        if n * (100 - p) >= 10 * 100:
            return statistics.quantiles(samples, n=100)[p - 1], f"p{p}"
    return statistics.median(samples), "p50"


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload].nominal_pass_s))


class HostSpeed:
    """How fast this host runs right now, relative to the reference host.

    A timed pass is scaled by ``REFERENCE_PROBE_S / probe time``, with
    the probe run just before and just after the pass (geometric mean of
    the two), and a set-up by the probe just before it.  The probe is
    fixed work that
    does not touch ``repro``: a NumPy gather and sort over an 8 MB
    array, and a pure-Python dictionary loop (the two kinds of work the
    workloads do), timed together as a geometric mean.  On a shared host
    whose speed drifts over minutes, the scaled times of two runs agree
    far better than their wall times, while a change to ``repro`` moves
    both alike.
    """

    #: The probe's time on the reference host (see README.md), so that
    #: scaled times read as seconds there.
    REFERENCE_PROBE_S = 0.026

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1 << 30, 2_000_000, dtype=np.int32)
        self._index = rng.integers(0, self._values.size, 1_000_000)

    def probe_s(self) -> float:
        _quiesce()
        t0 = time.perf_counter()
        for _ in range(4):
            self._values[self._index].sum()
            np.sort(self._values[:250_000])
        t1 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(200_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))

    def scale(self, *probes: float) -> float:
        return self.REFERENCE_PROBE_S / geomean(list(probes))


class _Pass:
    """Durations, problems and simulator statistics of one pass.

    ``samples`` are wall seconds; ``scale`` converts them to reference
    seconds (:class:`HostSpeed`)."""

    def __init__(self) -> None:
        self.scale = 1.0
        self.samples: list[tuple[str, float]] = []
        self.problems: list[str] = []
        self.stats: dict[str, dict[str, Any]] = {}
        self.failed = 0

    def times(self, job: str | None = None, scaled: bool = True):
        """Durations of every job (or of one job id) in this pass."""
        k = self.scale if scaled else 1.0
        return [d * k for j, d in self.samples if job is None or j == job]

    @property
    def seconds(self) -> float:
        return sum(self.times())


def _quiesce() -> None:
    """Settle before a job so it does not pay for the previous one: reap
    pool workers still exiting (the pool shuts down without waiting)
    and collect the previous job's garbage."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    gc.collect()


def _run_pass(w, inputs, expected, scratch: Path, tracer, label) -> _Pass:
    record = _Pass()
    for job in w.jobs(inputs, expected, scratch):
        _quiesce()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.job_span(f"{label}:{job.id}"):
                    out = job.run()
        except Exception as exc:  # noqa: BLE001 - count and continue
            record.samples.append((job.id, time.perf_counter() - start))
            record.problems.append(f"{job.id}: {type(exc).__name__}: {exc}")
            record.failed += 1
            continue
        record.samples.append((job.id, time.perf_counter() - start))
        problems, stats = job.check(out)
        record.stats[job.id] = stats
        if problems:
            record.problems.extend(problems)
            record.failed += 1
    return record


def _sim_summary(stats: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Simulated statistics of one pass (identical on every pass)."""
    sims = [s for s in stats.values() if "tasks" in s]
    out = {"sim_cycles": sum(s.get("cycles", 0.0) for s in stats.values())}
    if not sims:
        return out
    accesses = sum(s["shared_accesses"] for s in sims)
    ratios = [
        stats[f"flexminer/{s['pattern']}"]["cycles"] / s["cycles"]
        for s in sims
        if s["design"] == "fingers" and f"flexminer/{s['pattern']}" in stats
    ]
    out.update(
        tasks=sum(s["tasks"] for s in sims),
        task_groups=sum(s["task_groups"] for s in sims),
        shared_miss_rate=(
            sum(s["shared_misses"] for s in sims) / accesses
            if accesses else 0.0
        ),
        stall_cycles=sum(s["stall_cycles"] for s in sims),
        iu_busy_cycles=sum(s["iu_busy_cycles"] for s in sims),
        load_imbalance=statistics.fmean(s["load_imbalance"] for s in sims),
        # A failed job has no statistics, so its pair drops out.
        speedup_geomean=geomean(ratios) if ratios else 0.0,
    )
    return out


class _Setups:
    """Timed set-ups of one workload; every one must rebuild identical
    inputs.  They are spread over the run, one before each timed pass,
    so their median samples the host's state like ``pass_s`` does."""

    def __init__(self, workload, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.builds: list[float] = []
        self.compiles: list[float] = []
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.prints: set[tuple] = set()

    def run(self, scale: float = 1.0) -> Inputs:
        w = self.workload
        t0 = time.perf_counter()
        graphs = w.build(self.seed)
        roots = w.roots(graphs)
        t1 = time.perf_counter()
        plans = w.compile()
        t2 = time.perf_counter()
        self.builds.append(t1 - t0)
        self.compiles.append(t2 - t1)
        self.wall.append(t2 - t0)
        self.scaled.append((t2 - t0) * scale)
        self.prints.add(tuple(sorted(
            (name, graph_fingerprint(g)) for name, g in graphs.items()
        )))
        return Inputs(graphs, plans, roots)


def _timings(setup_s: list[float], passes: list[_Pass], scaled: bool):
    """The timing metrics, in reference seconds or in wall seconds."""
    samples = [d for p in passes for d in p.times(scaled=scaled)]
    tail, label = tail_percentile(samples)
    out = {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(
            sum(p.times(scaled=scaled)) for p in passes
        ),
        "job_s_p50": statistics.median(samples),
        "job_s_tail": tail,
    }
    for step in ("warm", "resume"):
        steps = [d for p in passes for d in p.times(step, scaled)]
        if steps:
            out[f"{step}_s"] = statistics.median(steps)
    return out, label, len(samples)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scratch: Path
) -> dict[str, Any]:
    """Run one workload; returns the result record ``run.py`` reports."""
    began = time.perf_counter()
    w = WORKLOADS[name]
    speed = HostSpeed()
    setups = _Setups(w, seed)
    inputs = setups.run(speed.scale(speed.probe_s()))

    t = time.perf_counter()
    expected = w.oracle(inputs)
    oracle_s = time.perf_counter() - t

    def one_pass(label, tracer=None, setup=True):
        before = speed.probe_s()
        if setup:
            setups.run(speed.scale(before))
        record = _run_pass(w, inputs, expected, scratch / label, tracer, label)
        record.scale = speed.scale(before, speed.probe_s())
        return record

    warmup = one_pass("warmup", setup=False)
    total = timed_passes(name, seconds)
    untraced_n, traced_n = (
        (max(1, total // 2), max(1, total // 4)) if trace else (total, 0)
    )

    def over_budget() -> bool:
        return time.perf_counter() - began > DEADLINE_S

    untraced: list[_Pass] = []
    for i in range(untraced_n):
        if untraced and over_budget():
            break
        untraced.append(one_pass(f"pass{i}"))
    tracer = Tracer() if trace else None
    traced_passes: list[_Pass] = []
    layer_base = {}
    if tracer is not None:
        layer_base = _layer_counters()
        with traced(tracer):
            with tracer.job_span("setup"):
                setups.run()
            for i in range(traced_n):
                if traced_passes and over_budget():
                    break
                traced_passes.append(
                    one_pass(f"traced{i}", tracer, setup=False)
                )
    passes = [warmup] + untraced + traced_passes

    reference = _sim_summary(warmup.stats)
    for p in passes[1:]:
        for job_id, stats in p.stats.items():
            if stats.get("cycles") != warmup.stats.get(job_id, {}).get(
                "cycles"
            ):
                p.problems.append(f"{job_id}: cycles differ between passes")
                p.failed += 1
    problems: list[str] = []
    if len(setups.prints) != 1:
        problems.append("set-up is not deterministic: fingerprints differ")
    failed = len(problems)  # set-up problems, each one failure
    for p in passes:
        problems.extend(p.problems)
        failed += p.failed
    attempted = sum(len(p.samples) for p in passes)

    reps = 1 + len(untraced)
    metrics, tail_label, n_samples = _timings(
        setups.scaled[:reps], untraced, scaled=True
    )
    wall, _, _ = _timings(setups.wall[:reps], untraced, scaled=False)
    metrics.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        error_rate=failed / attempted,
    )
    if "tasks" in reference:
        metrics["sim_tasks_per_s"] = reference["tasks"] / metrics["pass_s"]
        metrics["speedup_geomean"] = reference["speedup_geomean"]
    if reference["sim_cycles"]:
        metrics["sim_cycles"] = reference["sim_cycles"]

    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "truncated": len(untraced) < untraced_n
        or len(traced_passes) < traced_n,
        "setup_reps": reps,
        "fingerprints": dict(next(iter(setups.prints))),
        "oracle_s": oracle_s,
        "attempted": attempted,
        "failed": failed,
        "errors": problems[:_MAX_ERRORS],
        "tail": {"percentile": tail_label, "samples": n_samples},
        "metrics": metrics,
        "wall": wall,
        "host_speed": [p.scale for p in untraced],
        "pass_wall_s": [sum(p.times(scaled=False)) for p in untraced],
        "job_samples": [p.samples for p in untraced],
    }
    if tracer is not None:
        excess = tracer.self_time_excess()
        bad = {j: e for j, e in excess.items() if e > 1e-6}
        if bad:
            result["errors"].append(f"self time exceeds job span: {bad}")
            result["failed"] += 1
            result["metrics"]["error_rate"] = result["failed"] / attempted
        result["layers"], result["dispatch"] = _layer_metrics(
            tracer, traced_passes, untraced, warmup, layer_base, setups,
            reference, metrics,
        )
        result["trace_records"] = tracer.to_json()
    return result


def _layer_counters() -> dict[str, Any]:
    return {
        "kernels": kernels.kernel_counters(),
        "runner": runner.runner_stats(),
        "retry": pool.retry_stats(),
    }


def _layer_metrics(tracer, traced_passes, untraced, warmup, base, setups,
                   reference, metrics):
    """Per-layer metrics, per traced pass, from the tracer's records."""
    n = len(traced_passes)
    jobs = {s["job"] for s in tracer.spans
            if s.get("name") == "job" and s["job"] != "setup"}
    after = _layer_counters()

    def calls(group):
        return tracer.calls(group, jobs) / n

    def self_s(group):
        return tracer.self_s(group, jobs) / n

    def incl(group):
        return tracer.inclusive_s(group, jobs) / n

    def counter(name):
        return tracer.counter(name, jobs) / n

    m: dict[str, float] = {
        "graph.build_s": statistics.median(setups.builds),
        "pattern.compile_calls": tracer.calls("pattern.compile", {"setup"}),
        "pattern.compile_s": statistics.median(setups.compiles),
        "mining.count_calls": calls("mining.count"),
        "mining.count_s": incl("mining.count"),
        "mining.count_self_s": self_s("mining.count"),
    }
    for label in SEGMENTED_OPS:
        m[f"setops.segmented.{label}_calls"] = calls(f"setops.segmented.{label}")
        m[f"setops.segmented.{label}_self_s"] = self_s(
            f"setops.segmented.{label}"
        )
    values_in = counter("setops.segmented.values_in")
    values_out = counter("setops.segmented.values_out")
    m["setops.segmented.values_in"] = values_in
    m["setops.segmented.values_out"] = values_out
    m["setops.segmented.selectivity"] = (
        values_out / values_in if values_in else 0.0
    )
    dispatch = {
        key: (after["kernels"].get(key, 0) - base["kernels"].get(key, 0)) / n
        for key in sorted(set(after["kernels"]) | set(base["kernels"]))
    }
    for key in DISPATCH_KEYS:
        m["setops.dispatch." + key.replace("/", ".")] = dispatch.get(key, 0)
    tasks = reference.get("tasks", 0)
    pe_groups = ("hw.pe_step.fingers", "hw.pe_step.flexminer")
    m.update({
        "setops.apply_op_calls": calls("setops.apply_op"),
        "setops.apply_op_self_s": self_s("setops.apply_op"),
        "setops.apply_op_elements": counter("setops.apply_op_elements"),
        "mining.filtered_candidates_calls": calls(
            "mining.filtered_candidates"
        ),
        "mining.filtered_candidates_self_s": self_s(
            "mining.filtered_candidates"
        ),
        "hw.pe_step_calls": sum(calls(g) for g in pe_groups),
        "hw.pe_step_self_s": sum(self_s(g) for g in pe_groups),
        "hw.fingers_step_s": incl("hw.pe_step.fingers"),
        "hw.flexminer_step_s": incl("hw.pe_step.flexminer"),
        "hw.iu_calls": calls("hw.iu"),
        "hw.iu_self_s": self_s("hw.iu"),
        "hw.iu_work_items": counter("hw.iu_work_items"),
        "hw.host_us_per_task": (
            incl("hw.chip") / tasks * 1e6 if tasks else 0.0
        ),
        "hw.chip_self_s": self_s("hw.chip"),
        "hw.cache_access_calls": calls("hw.cache_access"),
        "hw.cache_access_self_s": self_s("hw.cache_access"),
        "hw.cache_hit_ratio": (
            counter("hw.cache_hits") / calls("hw.cache_access")
            if calls("hw.cache_access") else 0.0
        ),
        "hw.dram_calls": calls("hw.dram"),
        "hw.dram_self_s": self_s("hw.dram"),
        "hw.noc_calls": calls("hw.noc"),
        "hw.noc_self_s": self_s("hw.noc"),
    })
    for key in ("tasks", "task_groups", "shared_miss_rate", "stall_cycles",
                "iu_busy_cycles", "load_imbalance", "speedup_geomean"):
        m[f"hw.sim.{key}"] = reference.get(key, 0.0)
    m["hw.sim.cycles"] = reference["sim_cycles"]
    m["hw.sim_tasks_per_s"] = metrics.get("sim_tasks_per_s", 0.0)
    retry = after["retry"].delta(base["retry"])
    r0, r1 = base["runner"], after["runner"]
    m.update({
        "core.run_calls": calls("core.run"),
        "core.run_s": incl("core.run"),
        "core.merge_calls": calls("core.merge"),
        "core.merge_self_s": self_s("core.merge"),
        "parallel.run_shards_calls": calls("parallel.run_shards"),
        "parallel.run_shards_s": incl("parallel.run_shards"),
        "parallel.shards": counter("parallel.shards"),
        "parallel.retries": retry.retries / n,
        "parallel.serial_fallbacks": retry.serial_fallbacks / n,
        "cache.get_calls": calls("cache.get"),
        "cache.get_self_s": self_s("cache.get"),
        "cache.put_calls": calls("cache.put"),
        "cache.put_self_s": self_s("cache.put"),
        "cache.hits": counter("cache.hits"),
        "cache.misses": counter("cache.misses"),
        "cache.write_failures": counter("cache.write_failures"),
        "bench.memo_hits": (r1.memo_hits - r0.memo_hits) / n,
        "bench.disk_hits": (r1.disk_hits - r0.disk_hits) / n,
        "bench.simulate_calls": (r1.simulate_calls - r0.simulate_calls) / n,
        "experiments.run_sweep_s": incl("experiments.run_sweep"),
        "experiments.run_sweep_self_s": self_s("experiments.run_sweep"),
        "experiments.cache_key_calls": calls("experiments.cache_key"),
        "experiments.cache_key_self_s": self_s("experiments.cache_key"),
        "experiments.store_append_self_s": self_s("experiments.store_append"),
        "experiments.store_read_self_s": self_s("experiments.store_read"),
        "experiments.provenance_self_s": self_s("experiments.provenance"),
        "sweep.warm_s": metrics.get("warm_s", 0.0),
        "sweep.resume_s": metrics.get("resume_s", 0.0),
    })
    untraced_pass = statistics.median(p.seconds for p in untraced)
    m["bench.lazy_init_s"] = warmup.seconds - untraced_pass
    m["bench.trace_overhead"] = (
        statistics.median(p.seconds for p in traced_passes) / untraced_pass
        - 1.0
    )
    return m, dispatch
