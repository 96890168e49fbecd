"""Timing-model sensitivity benches (robustness of the conclusions)."""

from repro.bench.sensitivity import (
    sensitivity_dram_latency,
    sensitivity_hit_latency,
    sensitivity_noc_bandwidth,
)


def test_sensitivity_dram_latency(benchmark, publish):
    result = benchmark.pedantic(
        sensitivity_dram_latency, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("sensitivity_dram_latency", result.render())
    s = result.data
    # FINGERS wins at every latency.  The advantage is *stable* across a
    # 16x latency range: the task group pays one memory round-trip where
    # strict DFS pays one per task, so the ratio tracks the group size
    # rather than the latency magnitude.
    assert all(v > 1.0 for v in s.values())
    assert max(s.values()) / min(s.values()) < 1.5


def test_sensitivity_hit_latency(benchmark, publish):
    result = benchmark.pedantic(
        sensitivity_hit_latency, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("sensitivity_hit_latency", result.render())
    s = result.data
    assert all(v > 1.0 for v in s.values())
    # The conclusion is stable: no more than ~2.5x swing over a 16x
    # latency range on a cache-resident workload.
    assert max(s.values()) / min(s.values()) < 2.5


def test_sensitivity_noc_bandwidth(benchmark, publish):
    result = benchmark.pedantic(
        sensitivity_noc_bandwidth, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("sensitivity_noc_bandwidth", result.render())
    s = result.data
    assert all(v > 1.0 for v in s.values())
    # Ample NoC bandwidth is transparent: 64 vs 256 B/cycle barely moves.
    assert abs(s[256] - s[64]) / s[256] < 0.15
